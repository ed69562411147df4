"""padicsde: fixed-precision p-adic numerics and ultrametric stochastic
calculus.

The package provides exact fixed-precision arithmetic in Q_p, additive
characters and q-Gaussian characteristic functionals with their norm-shell
laws, reproducible samplers for q-Gaussian variables and two ultrametric
Wiener-path constructions, digit-chain antiderivation operators with an
exact integration-by-parts calculus, Picard solvers for stochastic
antiderivational equations, evolution-operator families with semigroup and
perturbation checks, and Monte Carlo verification that expected characters
of stochastic antiderivatives factor into characteristic-functional
products.  A configuration-driven CLI (``padicsde``) exposes the samplers,
solvers and verification suites with byte-reproducible artifacts.
"""

from .padic import (
    BallSpec,
    PAdicValue,
    digit_prefix,
    frac_part,
    mahler_poly,
    padic_exp,
)
from .charfun import (
    AngleTally,
    GaussianSpec,
    ShellTable,
    ball_probability,
    character,
    gaussian_char,
    product_laws,
    shell_distribution,
    shell_nonnegativity_report,
)
from .measure import (
    Gaussian1DSampler,
    MonteCarloEnsemble,
    RandomStream,
    derive_seed,
    empirical_char,
    level_betas,
    mix64,
    norm_histogram,
    path_laws,
    sample_gaussian,
    sample_wiener_mahler,
    sample_wiener_tree,
    standard_zetas,
    wiener_path,
)
from .antider import (
    GridFunction,
    antider_mixed,
    antider_u,
    antider_u_grid,
    antider_w,
    antider_w_grid,
    by_parts_residual,
    covariation,
    square_decomposition_residual,
)
from .sde import (
    FamilyTerm,
    Program,
    SDEProblem,
    SDESolution,
    constant_program,
    ensemble_paths,
    functional_program,
    linear_state_program,
    locally_constant_program,
    moment_diagnostic,
    picard_as_family,
    polynomial_program,
    solve_picard,
    stability_diagnostic,
    zero_program,
)
from .evolution import (
    EvolutionOperator,
    ExpEvolution,
    GeneratorSpec,
    generating_operator,
    generator_series,
    mof_check,
    path_derivative,
    perturbation_check,
    scalar_flow,
    solve_evolution,
)
from .charexpect import CharExpectationReport, character_product_check

__version__ = "0.1.0"

# functions and classes only: the submodules stay importable by name but
# are not part of ``from padicsde import *``
__all__ = [
    # padic
    "BallSpec", "PAdicValue", "digit_prefix", "frac_part", "mahler_poly",
    "padic_exp",
    # charfun
    "AngleTally", "GaussianSpec", "ShellTable", "ball_probability",
    "character", "gaussian_char", "product_laws", "shell_distribution",
    "shell_nonnegativity_report",
    # measure
    "Gaussian1DSampler", "MonteCarloEnsemble", "RandomStream", "derive_seed",
    "empirical_char", "level_betas", "mix64", "norm_histogram", "path_laws",
    "sample_gaussian", "sample_wiener_mahler", "sample_wiener_tree",
    "standard_zetas", "wiener_path",
    # antider
    "GridFunction", "antider_mixed", "antider_u", "antider_u_grid",
    "antider_w", "antider_w_grid", "by_parts_residual", "covariation",
    "square_decomposition_residual",
    # sde
    "FamilyTerm", "Program", "SDEProblem", "SDESolution", "constant_program",
    "ensemble_paths", "functional_program", "linear_state_program",
    "locally_constant_program", "moment_diagnostic", "picard_as_family",
    "polynomial_program", "solve_picard", "stability_diagnostic",
    "zero_program",
    # evolution
    "EvolutionOperator", "ExpEvolution", "GeneratorSpec",
    "generating_operator", "generator_series", "mof_check", "path_derivative",
    "perturbation_check", "scalar_flow", "solve_evolution",
    # charexpect
    "CharExpectationReport", "character_product_check",
]
