"""Numerical verification toolkit for a q-difference starlike function class.

The package covers four layers: exact q-arithmetic (brackets, Ruscheweyh
kernel coefficients, criterion weights), truncated power series with the
q-difference derivative and the Ruscheweyh convolution operator, membership
machinery (sufficient coefficient test, extremal members, criterion
sampling), and the verification suite for integral-means and subordination
results together with their sharp constants.
"""

from .qcore import (
    ClassParams,
    basic_number,
    criterion_weight,
    criterion_weights,
    ruscheweyh_coeff,
)
from .series import (
    DEFAULT_RADII,
    DiscPoint,
    PowerSeries,
    SampleGrid,
    Sign,
    evaluate,
    hadamard,
    poly_eval,
    q_derivative,
    ruscheweyh,
    ruscheweyh_kernel,
    ruscheweyh_q_derivative,
)
from .classes import (
    DegenerateDenominatorError,
    MembershipReport,
    Verdict,
    analytic_criterion_margin,
    coefficient_test,
    criterion_min_margin,
    extremal_function,
    random_member,
)
from .analysis import (
    HALF_PLANE_COMPARISON,
    ConvexComparison,
    IntegralMeansComparison,
    QuadratureConfig,
    SubordinationEvidence,
    SubordinationReport,
    UnsupportedComparisonError,
    WILF_RADII,
    check_subordination,
    default_nodes,
    integral_means,
    min_real_part,
    realpart_bound,
    schwarz_witness,
    sharpness_minimum,
    subordination_constant,
    subordination_report,
    sweep_integral_means,
    sweep_to_csv,
    verify_integral_means,
    wilf_positivity,
    wilf_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "ClassParams",
    "basic_number",
    "criterion_weight",
    "criterion_weights",
    "ruscheweyh_coeff",
    "DEFAULT_RADII",
    "DiscPoint",
    "PowerSeries",
    "SampleGrid",
    "Sign",
    "evaluate",
    "hadamard",
    "poly_eval",
    "q_derivative",
    "ruscheweyh",
    "ruscheweyh_kernel",
    "ruscheweyh_q_derivative",
    "DegenerateDenominatorError",
    "MembershipReport",
    "Verdict",
    "analytic_criterion_margin",
    "coefficient_test",
    "criterion_min_margin",
    "extremal_function",
    "random_member",
    "HALF_PLANE_COMPARISON",
    "ConvexComparison",
    "IntegralMeansComparison",
    "QuadratureConfig",
    "SubordinationEvidence",
    "SubordinationReport",
    "UnsupportedComparisonError",
    "WILF_RADII",
    "check_subordination",
    "default_nodes",
    "integral_means",
    "min_real_part",
    "realpart_bound",
    "schwarz_witness",
    "sharpness_minimum",
    "subordination_constant",
    "subordination_report",
    "sweep_integral_means",
    "sweep_to_csv",
    "verify_integral_means",
    "wilf_positivity",
    "wilf_sequence",
    "__version__",
]
