"""Monte Carlo checks that the expected character of a stochastic
antiderivative factors into a product of characteristic functionals.

For a deterministic integrand psi and a test point t with digit chain
(t_0, t_1, ...), the stochastic antiderivative against the path is the sum
of c_j = gamma g psi(t_j) times the path increments over the chain steps.
The estimator writes that sum as sum c X over terms (law, c), one draw X
of each law: for the tree sampler one term per chain step, for the series
sampler one per coefficient, with c = D_m, the chain's contraction
sum_j c_j (Q_m(t_{j+1}) - Q_m(t_j)) against the m-th Mahler polynomial.
Either way the draws are independent, so the expectation of the character
chi_gamma(g * sum) is the finite product over the terms of
exp(-beta |c|**q), the characteristic functional of each law evaluated at
its c; a zero c contributes the factor 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .antider import GridFunction
from .charfun import AngleTally
from .measure import MonteCarloEnsemble, path_laws
from .padic import PAdicValue, _vp, mahler_basis


@dataclass(frozen=True)
class CharExpectationReport:
    """One test point of the product identity: empirical versus analytic."""

    t_index: int
    samples: int
    empirical: complex
    stderr: float
    analytic: complex
    tolerance: float
    passed: bool

    @property
    def defect(self) -> float:
        return max(abs(self.empirical.real - self.analytic.real),
                   abs(self.empirical.imag - self.analytic.imag))


def character_product_check(psi: GridFunction, gamma: PAdicValue,
                            g: PAdicValue, t_index: int, samples: int,
                            seed: int, q: float = 1.0, *,
                            betas=None, sampler: str = "tree",
                            zetas=None) -> CharExpectationReport:
    """Compare the empirical expected character of the stochastic
    antiderivative of a deterministic integrand with the analytic product
    of its draws' characteristic functionals at one test point.

    Both samplers' reports are judged by one rule: each component of the
    empirical mean within 4 / sqrt(samples) of the analytic product.  The
    laws are those of ``wiener_path``, and ``path_laws`` checks their
    parameters and, for the series sampler, that the ball lies in Z_p; a
    test point outside the grid raises ValueError.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    ball, depth = psi.ball, psi.depth
    p, n = psi.p, psi.n
    laws = path_laws(sampler, ball, depth, q, betas=betas, zetas=zetas)
    consts = [(level, gamma * g * psi.values[j], j, jn)
              for level, j, jn, _step in psi.chain_steps(t_index)]

    if sampler == "tree":
        terms = [(laws[level], c) for level, c, _j, _jn in consts]
    else:   # the series sampler; path_laws has refused any other kind
        # one term (law, D_m) per coefficient, in coefficient order; a zero
        # d never enters D_m, so it never lowers D_m's precision
        sums = [PAdicValue.zero(p, n)] * len(laws)
        for _level, c, j, jn in consts:
            if c.is_zero:
                continue
            tj = ball.point(j, depth) - ball.center
            tn = ball.point(jn, depth) - ball.center
            for i, (qj, qn) in enumerate(zip(
                    mahler_basis(tj, len(laws))[1:],
                    mahler_basis(tn, len(laws))[1:])):
                d = c * (qn - qj)
                if not d.is_zero:
                    sums[i] = sums[i] + d
        terms = list(zip(laws, sums))
    # the draws are independent: the product of each law's functional at c
    analytic = math.prod(math.exp(-law.spec.beta * c.norm() ** q)
                         for law, c in terms)

    # Integer mirror of ``acc = acc + c * draw`` over the terms, in
    # PAdicValue arithmetic: the accumulator is the pair (v, m), the
    # product c * draw keeps min(c.n, n) digits and the sum keeps the
    # running minimum precision of its terms.  A zero c still draws, so the
    # stream layout is one draw per term.  The tally reads the sum below
    # valuation 0, and no carry or truncation moves a digit down, so a draw
    # is read below the cut -c.v (its digits from there on land at
    # valuations >= 0); a term of valuation >= 0 still moves the (v, m)
    # window.
    steps = []
    n_run = n
    for law, c in terms:
        if c.is_zero:
            steps.append((law.draw_raw, law.shell_only, 0, 0, 1, 1))
            continue
        n_c = min(c.n, n)
        n_run = min(n_run, n_c)
        steps.append((law.draw_raw, -c.v, c.v, c.m, p**n_c,
                      p**n_run))

    def chain_sum(stream, u1s):
        v = m = 0
        for draw_raw, cut, cv, cm, mod_c, mod_run in steps:
            dv, dm = draw_raw(stream, cut, u1s.pop())
            if not cm:
                continue
            tv, tm = cv + dv, cm * dm % mod_c
            if not m:   # the first term; n_run is still min(c.n, n)
                v, m = tv, tm
                continue
            # both mantissas are units, so only an equal-valuation sum
            # can carry factors of p to strip
            if v < tv:
                m = (m + tm * p ** (tv - v)) % mod_run
            elif v > tv:
                v, m = tv, (tm + m * p ** (v - tv)) % mod_run
            else:
                num = m + tm
                s = _vp(num, p)
                v, m = v + s, num // p ** s % mod_run
        return m, v

    # The ensemble's count loop keys each sample's sum by (m, v); tallied
    # in first-occurrence order, the counts leave the tally as
    # sample-by-sample adds would.
    tally = AngleTally(p)
    for (m, v), count in MonteCarloEnsemble(seed, samples)._counts(
            chain_sum, len(steps)).items():
        tally.add_raw(m, -v, count)

    empirical, stderr = tally.mean_stderr()
    tol = 4.0 / math.sqrt(samples)
    passed = (abs(empirical.real - analytic) <= tol
              and abs(empirical.imag) <= tol)
    return CharExpectationReport(
        t_index=t_index, samples=samples,
        empirical=empirical, stderr=stderr, analytic=complex(analytic),
        tolerance=tol, passed=passed)
