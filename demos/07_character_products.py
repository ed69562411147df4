"""Expected characters of stochastic antiderivatives.

For a deterministic integrand the chain sum is a sum of independent draws,
one per chain step for the tree sampler and one per coefficient for the
series sampler, so its expected character factors into the product of the
draws' characteristic functionals; for each sampler the Monte Carlo mean
lands within 4/sqrt(S) of its product.
"""

from padicsde import (
    BallSpec,
    GridFunction,
    PAdicValue,
    character_product_check,
)

p, n, depth = 3, 6, 5
ball = BallSpec.unit(p, n)
psi = GridFunction.constant(ball, depth, PAdicValue.one(p, n))
gamma = g = PAdicValue.one(p, n)
t_index = 1 + 2 * 3 + 9 + 2 * 81

for title, sampler in (("tree sampler", "tree"),
                       ("series sampler", "mahler")):
    rep = character_product_check(psi, gamma, g, t_index, samples=20000,
                                  seed=1, sampler=sampler)
    print(f"== {title} ==")
    print(f"empirical {rep.empirical:.4f}  analytic {rep.analytic:.4f}")
    print(f"defect {rep.defect:.4f} <= tolerance {rep.tolerance:.4f}: "
          f"{rep.passed}")
