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
    criterion_weights,
    ruscheweyh_coeff,
)
from .series import (
    PowerSeries,
    SampleGrid,
    Sign,
    poly_eval,
    q_derivative,
)
from .classes import (
    Verdict,
    coefficient_test,
    criterion_min_margin,
    extremal_function,
    random_member,
)
from .analysis import (
    QuadratureConfig,
    WILF_RADII,
    default_nodes,
    integral_means,
    min_real_part,
    realpart_bound,
    schwarz_witness,
    sharpness_minimum,
    subordination_constant,
    subordination_report,
    sweep_integral_means,
    verify_integral_means,
    wilf_positivity,
    wilf_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "ClassParams",
    "criterion_weights",
    "ruscheweyh_coeff",
    "PowerSeries",
    "SampleGrid",
    "Sign",
    "poly_eval",
    "q_derivative",
    "Verdict",
    "coefficient_test",
    "criterion_min_margin",
    "extremal_function",
    "random_member",
    "QuadratureConfig",
    "WILF_RADII",
    "default_nodes",
    "integral_means",
    "min_real_part",
    "realpart_bound",
    "schwarz_witness",
    "sharpness_minimum",
    "subordination_constant",
    "subordination_report",
    "sweep_integral_means",
    "verify_integral_means",
    "wilf_positivity",
    "wilf_sequence",
    "__version__",
]
