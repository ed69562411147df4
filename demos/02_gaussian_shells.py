"""q-Gaussian laws on Q_p: characteristic functionals, norm-shell weights
and reproducible sampling.

The law with spread beta has characteristic functional exp(-beta |h|**q);
its mass decomposes over the shells |x| = p**m, and the sampler draws a
shell by inverse CDF and then uniform digits.
"""

import math

from padicsde import (
    GaussianSpec,
    MonteCarloEnsemble,
    PAdicValue,
    empirical_char,
    gaussian_char,
    sample_gaussian,
    shell_distribution,
)

p, n = 3, 6
spec = GaussianSpec(p, n, beta=1.0, q=1)

print("== characteristic functional ==")
one = (PAdicValue.one(p, n),)
for v in (0, 1, -1):
    h = PAdicValue(p, n, v, 1)
    print(f"|h| = {h.norm():<6}  mu^(h) = {gaussian_char((spec,), one, h):.6f}")

print("\n== norm-shell weights (exact Fourier inversion) ==")
table = shell_distribution(spec)
for m, w in table.rows():
    if w > 1e-4:
        print(f"P(|x| = {p}^{m:>3}) = {w:.6f}")
print("total mass:", f"{table.total_mass():.12f}")

print("\n== reproducible sampling ==")
ens = MonteCarloEnsemble(master_seed=2024, size=6)
draws = [sample_gaussian(spec, stream) for stream in ens.streams()]
for i, x in enumerate(draws):
    print(f"sample {i}: {x}")
again = [sample_gaussian(spec, stream) for stream in ens.streams()]
print("bit-identical on replay:", draws == again)

print("\n== empirical characteristic function ==")
size = 20000
hs = [PAdicValue(p, n, v, 1) for v in (0, 1, -1)]
got = empirical_char(spec, hs, size, seed=7)
for h in hs:
    want = math.exp(-spec.beta * h.norm() ** spec.q)
    print(f"|h| = {h.norm():<6} empirical {got[h].real:+.4f}{got[h].imag:+.4f}i"
          f"  analytic {want:.4f}  (tolerance {4 / math.sqrt(size):.4f})")
