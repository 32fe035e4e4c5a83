"""Numerical laboratory for noncommutative Lp and Lorentz norms.

The package models finite tracial algebras (direct sums of matrix blocks
with weighted traces), computes their generalized singular values and
Lorentz norms in closed form, builds Fourier transforms for finite abelian
groups and finite group von Neumann algebras, estimates Lp -> Lq norms of
linear maps between weighted algebras, and runs reproducible verification
campaigns for a family of norm inequalities.
"""

from .algebra import AlgebraElement, TracialAlgebra, modulus, random_element, trace
from .campaign import (
    CampaignConfig,
    CheckSpec,
    emit_plot_data,
    list_instances,
    load_config,
    resolve_instance,
    run_campaign,
)
from .checks import (
    CheckReport,
    check_hausdorff_young,
    check_inversion_plancherel,
    check_lemma_constants,
    check_multiplier_bound,
    check_paley,
    check_real_interpolation,
    check_schur_bound,
    conjugate_exponent,
    difference_exponent,
    endpoint_experiment,
    free_group_ball_sizes,
    growth_symbol_check,
    loglog_slope,
    one_sided_exponent,
    sharpness_experiment,
    symmetric_exponent,
)
from .errors import (
    ConfigError,
    GroupDataError,
    NcfourierError,
    NumericsError,
    ParameterError,
    ShapeMismatchError,
)
from .estimator import (
    NormEstimate,
    brute_force_pq_norm,
    estimate_pq_norm,
    estimate_pq_norms,
    exact_l2_norm,
    schatten_gradient,
)
from .fourier import (
    QuantumGroupPair,
    build_finite_abelian,
    build_group_vna,
    fourier,
    inverse_fourier,
    multiplier_map,
    perturb_fourier_matrix,
)
from .groups import (
    DATA_DIR_ENV,
    FiniteGroupData,
    available_groups,
    cyclic_group_data,
    load_group_file,
    resolve_group,
    save_group_file,
    validate_group_data,
)
from .linmap import LinearMap, coordinate_weights, identity_map
from .lorentz import (
    SingularFunction,
    decreasing_step_function,
    distribution_function,
    lorentz_norm,
    lorentz_norm_of_step,
    lp_norm,
    singular_function,
)
from .schur import SchurSymbol, schatten_algebra, schur_map, symbol_sequence_norm
from .torus import cosine_profile, riemann_lp

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "CampaignConfig",
    "CheckReport",
    "CheckSpec",
    "ConfigError",
    "DATA_DIR_ENV",
    "FiniteGroupData",
    "GroupDataError",
    "LinearMap",
    "NcfourierError",
    "NormEstimate",
    "NumericsError",
    "ParameterError",
    "QuantumGroupPair",
    "SchurSymbol",
    "ShapeMismatchError",
    "SingularFunction",
    "TracialAlgebra",
    "available_groups",
    "brute_force_pq_norm",
    "build_finite_abelian",
    "build_group_vna",
    "check_hausdorff_young",
    "check_inversion_plancherel",
    "check_lemma_constants",
    "check_multiplier_bound",
    "check_paley",
    "check_real_interpolation",
    "check_schur_bound",
    "conjugate_exponent",
    "coordinate_weights",
    "cosine_profile",
    "cyclic_group_data",
    "decreasing_step_function",
    "difference_exponent",
    "distribution_function",
    "emit_plot_data",
    "endpoint_experiment",
    "estimate_pq_norm",
    "estimate_pq_norms",
    "free_group_ball_sizes",
    "exact_l2_norm",
    "fourier",
    "growth_symbol_check",
    "identity_map",
    "inverse_fourier",
    "list_instances",
    "load_config",
    "load_group_file",
    "loglog_slope",
    "lorentz_norm",
    "lorentz_norm_of_step",
    "lp_norm",
    "modulus",
    "multiplier_map",
    "one_sided_exponent",
    "perturb_fourier_matrix",
    "random_element",
    "resolve_group",
    "resolve_instance",
    "riemann_lp",
    "run_campaign",
    "save_group_file",
    "schatten_algebra",
    "schatten_gradient",
    "schur_map",
    "sharpness_experiment",
    "singular_function",
    "symbol_sequence_norm",
    "symmetric_exponent",
    "trace",
    "validate_group_data",
]
