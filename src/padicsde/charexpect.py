"""Monte Carlo checks that the expected character of a stochastic
antiderivative factors into a product of increment characteristic
functionals.

For a deterministic integrand psi and a test point t with digit chain
(t_0, t_1, ...), the stochastic antiderivative against the path is the sum
of psi(t_j) times the path increments over the chain steps.  When those
increments are exactly independent (the tree sampler), the expectation of
the character chi_gamma(g * sum) is the finite product over chain levels of
exp(-beta_j |gamma g psi(t_j)|**q), the characteristic functional of each
increment evaluated at the scaled integrand; trivial (digit-zero) steps
contribute the factor 1.  The series sampler's chain increments are not
independent by construction, so for it the same report is emitted as a
diagnostic with the measured defect, not an assertion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .antider import GridFunction
from .charfun import AngleTally
from .measure import MonteCarloEnsemble, path_laws
from .padic import BallSpec, PAdicValue, _pow, _vp, mahler_basis


@dataclass(frozen=True)
class CharExpectationReport:
    """One test point of the product identity: empirical versus analytic."""

    t_index: int
    samples: int
    empirical: complex
    stderr: float
    analytic: complex
    tolerance: float
    asserted: bool
    passed: bool

    @property
    def defect(self) -> float:
        return max(abs(self.empirical.real - self.analytic.real),
                   abs(self.empirical.imag - self.analytic.imag))


def _chain_constants(psi: GridFunction, gamma: PAdicValue, g: PAdicValue,
                     t_index: int):
    """Per-level factors gamma * g * psi(t_j) along the chain of t, with
    the level's digit step; trivial steps are omitted."""
    out = []
    for level, j, jn, _step in psi.chain_steps(t_index):
        out.append((level, gamma * g * psi.values[j], j, jn))
    return out


def character_product_check(psi: GridFunction, gamma: PAdicValue,
                            g: PAdicValue, t_index: int, samples: int,
                            seed: int, q: float = 1.0,
                            betas=None, sampler: str = "tree",
                            zetas=None) -> CharExpectationReport:
    """Compare the empirical expected character of the stochastic
    antiderivative of a deterministic integrand with the analytic product
    of increment characteristic functionals at one test point.

    Only the tree sampler's result is asserted (its increments are
    independent by construction); the series sampler's report is marked
    diagnostic.  Tolerance is 4 / sqrt(samples) per component.  The
    default betas and zetas are those of ``wiener_path``, and
    ``path_laws`` checks both.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    ball, depth = psi.ball, psi.depth
    p, n = psi.p, psi.n
    _, laws = path_laws(sampler, ball, depth, q, betas, zetas)
    consts = _chain_constants(psi, gamma, g, t_index)
    analytic = (product_telescoping_moduli(psi, gamma, g, t_index, q, betas)
                or [1.0])[-1]

    # The ensemble's count loop keys each sample's sum by (m, v); tallied
    # in first-occurrence order, the counts leave the tally as
    # sample-by-sample adds would.
    if sampler == "tree":
        # Integer mirror of ``acc = acc + c * draw`` in PAdicValue arithmetic:
        # the accumulator is the pair (v, m), the product c * draw keeps
        # min(c.n, n) digits and the sum keeps the running minimum precision
        # of its terms.  A zero c still draws, so the stream layout is fixed.
        # The tally reads the sum below valuation 0, and no carry or
        # truncation moves a digit down, so a draw is read below the cut
        # -c.v (its digits from there on land at valuations >= 0); a term
        # of valuation >= 0 still moves the (v, m) window.
        steps = []
        n_run = n
        for level, c, _j, _jn in consts:
            law = laws[level]
            if c.is_zero:
                steps.append((law.draw_raw, law.shell_only, 0, 0, 1, 1))
                continue
            n_c = min(c.n, n)
            n_run = min(n_run, n_c)
            steps.append((law.draw_raw, -c.v, c.v, c.m, _pow(p, n_c),
                          _pow(p, n_run)))

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
        per_sample = len(steps)
        asserted = True
    else:   # the series sampler; path_laws has refused any other kind
        # increment of the series path over a chain step, as a coefficient
        # contraction: sum_m X_m (Q_m(t_{j+1}) - Q_m(t_j)).  A sample draws
        # every coefficient first, then adds the terms X_m * d in step
        # order under the tree loop's integer rule; a coefficient is read
        # below the largest -d.v of the terms it enters.
        zp = BallSpec.unit(p, n)        # the domain of the basis
        terms = []
        for level, c, j, jn in consts:
            if c.is_zero:
                continue
            tj = ball.point(j, depth) - ball.center
            tn = ball.point(jn, depth) - ball.center
            if not (zp.contains(tj) and zp.contains(tn)):
                raise ValueError("domain")
            terms += enumerate(c * (qn - qj) for qj, qn in zip(
                mahler_basis(tj, len(laws))[1:],
                mahler_basis(tn, len(laws))[1:]))
        cuts = [law.shell_only for law in laws]
        rows = []
        n_run = n
        for i, d in terms:
            if d.is_zero:
                continue
            cuts[i] = max(cuts[i], -d.v)
            n_d = min(d.n, n)
            n_run = min(n_run, n_d)
            rows.append((i, d.v, d.m, _pow(p, n_d), _pow(p, n_run)))
        draws = [(law.draw_raw, cut) for law, cut in zip(laws, cuts)]

        def chain_sum(stream, u1s):
            coeffs = [draw_raw(stream, cut, u1s.pop())
                      for draw_raw, cut in draws]
            v = m = 0
            for i, cv, cm, mod_c, mod_run in rows:
                dv, dm = coeffs[i]
                tv, tm = cv + dv, cm * dm % mod_c
                if not m:
                    v, m = tv, tm
                    continue
                if v < tv:
                    m = (m + tm * p ** (tv - v)) % mod_run
                elif v > tv:
                    v, m = tv, (tm + m * p ** (v - tv)) % mod_run
                else:
                    num = m + tm
                    s = _vp(num, p)
                    v, m = v + s, num // p ** s % mod_run
            return m, v
        per_sample = len(draws)
        asserted = False

    tally = AngleTally(p)
    for (m, v), count in MonteCarloEnsemble(seed, samples)._counts(
            chain_sum, per_sample).items():
        tally.add_raw(m, -v, count)

    empirical, stderr = tally.mean_stderr()
    tol = 4.0 / math.sqrt(samples)
    passed = (abs(empirical.real - analytic) <= tol
              and abs(empirical.imag) <= tol)
    return CharExpectationReport(
        t_index=t_index, samples=samples,
        empirical=empirical, stderr=stderr, analytic=complex(analytic),
        tolerance=tol, asserted=asserted, passed=passed)


def product_telescoping_moduli(psi: GridFunction, gamma: PAdicValue,
                               g: PAdicValue, t_index: int, q: float = 1.0,
                               betas=None) -> list[float]:
    """Partial products of the analytic side by increasing chain depth;
    each factor has modulus at most one, so the sequence is nonincreasing.
    The betas (default those of ``wiener_path``) are checked by
    ``path_laws``."""
    betas, _ = path_laws("tree", psi.ball, psi.depth, q, betas)
    out = []
    prod = 1.0
    for level, c, _j, _jn in _chain_constants(psi, gamma, g, t_index):
        prod *= math.exp(-betas[level] * c.norm() ** q)
        out.append(prod)
    return out
