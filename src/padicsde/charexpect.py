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
from .charfun import AngleTally, GaussianSpec
from .measure import (
    MonteCarloEnsemble,
    cached_sampler,
    level_betas,
    mahler_coefficient_draws,
    standard_zetas,
)
from .padic import BallSpec, PAdicValue, mahler_poly


@dataclass(frozen=True)
class CharExpectationReport:
    """One test point of the product identity: empirical versus analytic."""

    t_index: int
    gamma: PAdicValue
    g: PAdicValue
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
    diagnostic.  Tolerance is 4 / sqrt(samples) per component.
    """
    ball, depth = psi.ball, psi.depth
    p, n = psi.p, psi.n
    if betas is None:
        betas = level_betas(ball, depth, q)
    consts = _chain_constants(psi, gamma, g, t_index)
    analytic = (product_telescoping_moduli(psi, gamma, g, t_index, q, betas)
                or [1.0])[-1]

    tally = AngleTally(p)
    ens = MonteCarloEnsemble(seed, samples)
    if sampler == "tree":
        specs = [GaussianSpec.one_dimensional(p, n, beta=betas[level], q=q)
                 for level, *_ in consts]
        draws = [cached_sampler(spec) for spec in specs]
        zero = PAdicValue.zero(p, n)
        for stream in ens.streams():
            acc = zero
            for (level, c, _j, _jn), sampler_j in zip(consts, draws):
                if c.is_zero:
                    sampler_j.draw(stream)   # keep the stream layout fixed
                    continue
                acc = acc + c * sampler_j.draw(stream)
            tally.add_raw(acc.m, -acc.v)
        asserted = True
    elif sampler == "mahler":
        if zetas is None:
            zetas = standard_zetas(p, n, 2 * (ball.radius_exp + depth))
        # increment of the series path over a chain step, as a coefficient
        # contraction: sum_m X_m (Q_m(t_{j+1}) - Q_m(t_j))
        contract = []
        for level, c, j, jn in consts:
            if c.is_zero:
                contract.append(None)
                continue
            tj = ball.point(j, depth) - ball.center
            tn = ball.point(jn, depth) - ball.center
            diffs = tuple(c * (mahler_poly(m, tn) - mahler_poly(m, tj))
                          for m in range(1, len(zetas) + 1))
            contract.append(diffs)
        zero = PAdicValue.zero(p, n)
        for stream in ens.streams():
            coeffs = mahler_coefficient_draws(zetas, q, p, n, stream)
            acc = zero
            for diffs in contract:
                if diffs is None:
                    continue
                for coefficient, d in zip(coeffs, diffs):
                    if not d.is_zero and not coefficient.is_zero:
                        acc = acc + coefficient * d
            tally.add_raw(acc.m, -acc.v)
        asserted = False
    else:
        raise ValueError(f"unknown sampler kind: {sampler}")

    empirical, stderr = tally.mean_stderr()
    tol = 4.0 / math.sqrt(samples)
    passed = (abs(empirical.real - analytic) <= tol
              and abs(empirical.imag) <= tol)
    return CharExpectationReport(
        t_index=t_index, gamma=gamma, g=g, samples=samples,
        empirical=empirical, stderr=stderr, analytic=complex(analytic),
        tolerance=tol, asserted=asserted, passed=passed)


def product_telescoping_moduli(psi: GridFunction, gamma: PAdicValue,
                               g: PAdicValue, t_index: int, q: float = 1.0,
                               betas=None) -> list[float]:
    """Partial products of the analytic side by increasing chain depth;
    each factor has modulus at most one, so the sequence is nonincreasing."""
    if betas is None:
        betas = level_betas(psi.ball, psi.depth, q)
    out = []
    prod = 1.0
    for level, c, _j, _jn in _chain_constants(psi, gamma, g, t_index):
        prod *= math.exp(-betas[level] * c.norm() ** q)
        out.append(prod)
    return out
