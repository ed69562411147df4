"""Evolution operators: chain-product flows, the exponential comparison,
perturbation bounds and generating operators.

The flow is the ordered product of (I + A dt) along digit chains, kept in
exact rational entries, so the two-sided defining equations, the semigroup
law and the perturbation interchange identity all hold bit-exactly; the
exponential of a small constant generator agrees with the solved flow to
one guard digit below working precision.
"""

from fractions import Fraction

from padicsde import (
    BallSpec,
    ExpEvolution,
    GeneratorSpec,
    PAdicValue,
    generating_operator,
    mof_check,
    perturbation_check,
    solve_evolution,
    wiener_path,
)
from padicsde.evolution import mat_mul

p, n, depth, dim = 3, 6, 3, 3
ball = BallSpec.unit(p, n)
base = tuple(tuple(Fraction((1 + (i + 2 * j) % 3) * p**3)
                   for j in range(dim)) for i in range(dim))
gen = GeneratorSpec.constant(base)

print("== solved flow ==")
u = solve_evolution(gen, ball, depth)
print("U(t, t) = I everywhere:",
      all(all(u.exact(k, k)[i][j] == (1 if i == j else 0)
              for i in range(dim) for j in range(dim))
          for k in range(u.size)))
lhs = mat_mul(u.exact(20, 7), u.exact(7, 3))
print("semigroup U(t,s) U(s,v) == U(t,v):", lhs == u.exact(20, 3))

print("\n== exponential comparison ==")
e = ExpEvolution(base, ball, depth)
mu, me = u.matrix(14, 2), e.matrix(14, 2)
agree = all(x.agrees_abs(y, n - 1) for ru, re in zip(mu, me)
            for x, y in zip(ru, re))
print(f"solved vs EXP((t-s)A) to {n - 1} digits:", agree)

print("\n== perturbation ==")
pert = tuple(tuple(Fraction((1 + (2 * i + j) % 3) * p**4)
                   for j in range(dim)) for i in range(dim))
rep = perturbation_check(gen, GeneratorSpec.constant(pert), ball,
                         depth, pairs=[(4, 0), (17, 5), (26, 13)])
print(f"gap {rep.gap_norm:.2e} <= bound {rep.bound:.2e}: {rep.bound_holds}")
print("interchange identity residual:", rep.identity_residual)

print("\n== generating operator ==")
gmat = generating_operator(u, 0)
print("recovered A(0) entry (0,0):", gmat[0][0],
      " target:", PAdicValue.from_fraction(base[0][0], p, n))

print("\n== multiplicative functional of a linear scalar equation ==")
paths = [wiener_path("tree", ball, depth, 2.0, seed=s) for s in (1, 2, 3)]
alpha = PAdicValue.from_int(p**3, p, n)
beta = PAdicValue.from_int(2 * p**3, p, n)
inits = tuple(PAdicValue.from_int(c, p, n) for c in (1, 2, 7))
report = mof_check(alpha, beta, paths, q=1.0, initial_values=inits)
print("identity/chain/representation:",
      report.identity_ok, report.chain_ok, report.representation_ok)
print("smallest witnessed moment constant:", report.moment_constant)
