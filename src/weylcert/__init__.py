"""Spectral interval certification on rotationally symmetric model manifolds.

Build explicit approximate eigenfunctions for the Laplacian on warped
products dr^2 + f(r)^2 g_{S^{n-1}}, bound how far they are from being true
eigenfunctions, turn those bounds into certified intervals around candidate
spectral values, and cross-check every interval against an independent
tridiagonal eigensolver.
"""

from .criterion import (
    CriterionReport,
    MatrixWeylReport,
    PowerSpec,
    boundary_criterion,
    certify_sup_l1,
    residual_l2,
    weyl_matrix_check,
)
from .errors import (
    CertificationImpossibleError,
    ConvergenceError,
    DomainError,
    EvaluationError,
    InapplicableError,
    InputError,
    ParameterError,
    ValidationFailure,
    WeylcertError,
)
from .manifold import (
    AsymptoticReport,
    ModelManifold,
    WarpingProfile,
    asymptotic_report,
    custom_profile,
    custom_profile_from_csv,
    delta_r,
    euclidean_profile,
    exp_cusp_profile,
    hyperbolic_profile,
    make_manifold,
    manifold_from_json,
    power_cusp_profile,
    soliton_flat_profile,
    sphere_area,
    volume_area,
)
from .mollifier import (
    MollifiedFunction,
    PiecewiseLinearFn,
    cylinder_demo,
    kernel,
    mollify,
    mollify_many,
    overlap_cutoffs,
    partition_blend,
)
from .oracle import (
    TridiagonalOperator,
    ValidationReport,
    cross_validate,
    discretize_radial,
    lowest_eigenvalues,
    resolvent_linf_check,
    sturm_count,
)
from .quadrature import QuadratureResult, integrate, integrate_relative
from .scenarios import (
    BUILTIN_SCENARIOS,
    ScenarioConfig,
    ScenarioResult,
    get_scenario,
    run_scenario,
    scenario_names,
)
from .testfunctions import (
    CutoffSpec,
    DefectNorms,
    ParameterSearchResult,
    RadialTestFunction,
    build_phase_testfn,
    build_soliton_testfn,
    build_tent_testfn,
    build_weighted_testfn,
    defect_norms,
    search_parameters,
)

__version__ = "0.1.0"
