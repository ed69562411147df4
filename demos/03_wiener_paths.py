"""Two constructions of an ultrametric Wiener path on Z_p.

The tree sampler hangs an independent q-Gaussian increment on every
nonzero-digit edge of the grid's digit tree, so increments over disjoint
subtrees are independent by construction.  The series sampler expands the
path over the binomial basis with independent coefficients whose spreads
decay geometrically.  Both vanish at the marked point.
"""

from padicsde import (
    BallSpec,
    PAdicValue,
    digit_prefix,
    standard_zetas,
    wiener_path,
)

p, n, depth = 3, 6, 4
ball = BallSpec.unit(p, n)

print("== tree sampler ==")
w = wiener_path("tree", ball, depth, q=1.0, seed=42)
print("w(0) is exactly zero:", w.values[0].is_zero)
t = PAdicValue.from_int(1 + 2 * 3 + 9, p, n)
print("a path value:  w(t) =", w[t])
print("increments along the chain of t:")
for j in range(1, depth + 1):
    dw = w[digit_prefix(t, j)] - w[digit_prefix(t, j - 1)]
    print(f"  level {j - 1}: dw = {dw}")

print("\nsame seed, same path:",
      wiener_path("tree", ball, depth, q=1.0, seed=42).values
      == w.values)

print("\n== series (binomial-basis) sampler ==")
zetas = standard_zetas(p, n, 8)
wm = wiener_path("mahler", ball, depth, q=1.0, seed=42, zetas=zetas)
print("w(0) is exactly zero:", wm.values[0].is_zero)
print("norms along one branch:")
for k in (1, 4, 13, 40):
    print(f"  |w(point {k})| = {wm.values[k].norm()}")
wshort = wiener_path("mahler", ball, depth, q=1.0, seed=42, zetas=zetas[:5])
gap = max((a - b).norm() for a, b in
          zip(wm.values, wshort.values))
print("truncating the coefficient tail moves the path by at most", gap)
