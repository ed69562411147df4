"""The public surface of the package, pinned: a name added to or removed
from ``padicsde.__all__`` has to show up as an edit of this list."""

import inspect

import padicsde

PUBLIC = [
    "AngleTally", "BallSpec", "CharExpectationReport", "EvolutionOperator",
    "ExpEvolution", "FamilyTerm", "Gaussian1DSampler", "GaussianSpec",
    "GeneratorSpec", "GridFunction", "MonteCarloEnsemble", "PAdicValue",
    "Program", "RandomStream", "SDEProblem", "SDESolution", "ShellTable",
    "antider_mixed", "antider_u", "antider_u_grid", "antider_w",
    "antider_w_grid", "ball_probability", "by_parts_residual", "character",
    "character_product_check", "constant_program", "covariation",
    "derive_seed", "digit_prefix", "empirical_char", "ensemble_paths",
    "frac_part", "functional_program", "gaussian_char", "generating_operator",
    "generator_series", "level_betas", "linear_state_program",
    "locally_constant_program", "mahler_poly", "mix64", "mof_check",
    "moment_diagnostic", "norm_histogram", "padic_exp", "path_derivative",
    "path_laws", "perturbation_check", "picard_as_family",
    "polynomial_program", "product_laws", "product_telescoping_moduli",
    "sample_gaussian", "sample_wiener_mahler", "sample_wiener_tree",
    "scalar_flow", "shell_distribution", "shell_nonnegativity_report",
    "solve_evolution", "solve_picard", "square_decomposition_residual",
    "stability_diagnostic", "standard_zetas", "wiener_path", "zero_program",
]


def test_public_names_are_pinned():
    assert sorted(padicsde.__all__) == PUBLIC


def test_public_names_are_functions_and_classes():
    # the submodules stay importable by name but are not public names, so
    # ``from padicsde import *`` binds no module
    for name in padicsde.__all__:
        obj = getattr(padicsde, name)
        assert isinstance(obj, type) or inspect.isfunction(obj), name
