"""Library refusals, one table: each call must raise its exception with its
message.  These are the refusals that the rest of the suite never reaches;
each row names the function and the input it refuses."""

import pytest

from padicsde.antider import GridFunction, antider_mixed
from padicsde.charexpect import character_product_check
from padicsde.charfun import GaussianSpec, gaussian_char
from padicsde.measure import MonteCarloEnsemble, path_laws
from padicsde.padic import BallSpec, PAdicValue
from padicsde.sde import SDEProblem, solve_picard, zero_program

N = 6
P = 3
ZERO = PAdicValue.zero(P, N)
ONE = PAdicValue.one(P, N)
UNIT = BallSpec.unit(P, N)
F = GridFunction.constant(UNIT, 2, ONE)


def _picard_on_another_grid():
    problem = SDEProblem(ball=UNIT, depth=2, x0=ZERO,
                         drift=zero_program(P, N),
                         diffusion=zero_program(P, N))
    solve_picard(problem, GridFunction.constant(UNIT, 1, ZERO))


def _series_check_off_the_unit_ball():
    # at radius_exp 1 the grid leaves Z_p, the domain of the binomial basis
    psi = GridFunction.constant(BallSpec(ZERO, 1), 2, ONE)
    character_product_check(psi, ONE, ONE, 1, samples=10, seed=1,
                            sampler="mahler")


REFUSALS = {
    "grid_deeper_than_precision": (
        lambda: GridFunction(BallSpec(ZERO, 2), N - 1, ()),
        ValueError, "grid deeper than working precision"),
    "grid_incomplete": (
        lambda: GridFunction(UNIT, 2, (ZERO,) * 8),
        ValueError, "grid incomplete"),
    "antider_mixed_negative_index": (
        lambda: antider_mixed(F, F, F, F, -1, 0, 0, 1),
        ValueError, "index"),
    "antider_mixed_no_a_grid": (
        lambda: antider_mixed(F, None, None, None, 0, 1, 0, 1),
        ValueError, "coefficient grid required for the a powers"),
    "antider_mixed_no_e_grid": (
        lambda: antider_mixed(F, None, None, F, 0, 1, 1, 1),
        ValueError, "diffusion grid and path required for the w powers"),
    "antider_mixed_no_path": (
        lambda: antider_mixed(F, None, F, None, 0, 1, 1, 1),
        ValueError, "diffusion grid and path required for the w powers"),
    "series_check_domain": (
        _series_check_off_the_unit_ball, ValueError,
        "radius_exp 1 leaves Z_p, the domain of the series sampler's "
        "binomial basis"),
    "gaussian_char_length": (
        lambda: gaussian_char((GaussianSpec(P, N, 1.0, 1),), (ONE, ONE), ONE),
        ValueError, "functional length does not match the coefficient family"),
    "stream_index_above": (
        lambda: MonteCarloEnsemble(1, 3).stream(3),
        ValueError, "sample index out of range"),
    "stream_index_below": (
        lambda: MonteCarloEnsemble(1, 3).stream(-1),
        ValueError, "sample index out of range"),
    "path_laws_unknown_kind": (
        lambda: path_laws("brownian", UNIT, 2, 1.0),
        ValueError, "unknown sampler kind: brownian"),
    "from_rational_zero_den": (
        lambda: PAdicValue.from_rational(1, 0, P, N),
        ZeroDivisionError, "zero inverse"),
    "parse_digit_out_of_range": (
        lambda: PAdicValue.parse("QP(p=3,v=0,d=1 3)"),
        ValueError, "digit out of range: 3"),
    "parse_zero_lowest_digit": (
        lambda: PAdicValue.parse("QP(p=3,v=0,d=0 1)"),
        ValueError, "leading digit must be nonzero"),
    "solve_picard_path_grid": (
        _picard_on_another_grid, ValueError, "grid mismatch"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_library_refusal(name):
    call, exc, message = REFUSALS[name]
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
