"""Circle-integral comparisons and subordination checks.

Two families of numerical verification live here.  Integral means: the
trapezoidal circle integral of |f|^eta against the order-2 extremal member,
which certified members must never exceed.  Subordination: the sharp factor
constant, the real-part lower bound it implies, Wilf positivity of the factor
sequence, and the -1/2 sharpness probe.

Circle values come from series.ring_values, one real FFT per radius over the
closed upper half ring; real coefficients make the lower half its conjugate
mirror, so the half carries every extremum and, with node weights
1, 2, ..., 2, 1, the trapezoid rule, which is spectrally accurate for these
smooth 2*pi-periodic integrands.  Sums are plain numpy pairwise sums with a
fixed order, so results are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .classes import Verdict, coefficient_test, extremal_function
from .qcore import ClassParams, criterion_weight
from .series import PowerSeries, SampleGrid, Sign, ring_values

# Multiplicative slack for lhs <= rhs comparisons between circle integrals.
INTEGRAL_MEANS_SLACK = 1.0e-9

# Default radii for Wilf positivity and real-part sweeps (the positivity
# margin degenerates only as r -> 1, so 0.99 keeps a robust gap).
WILF_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)


@dataclass(frozen=True)
class QuadratureConfig:
    """Circle-integral setup: node count, radius, and modulus exponent."""

    nodes: int = 256
    r: float = 0.5
    eta: float = 2.0

    def __post_init__(self) -> None:
        n = self.nodes
        if n < 16 or n & (n - 1):
            raise ValueError(f"nodes must be a power of two >= 16, got {n}")
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"r must lie in (0, 1), got {self.r}")
        if not self.eta > 0.0:
            raise ValueError(f"eta must be > 0, got {self.eta}")


def default_nodes(trunc: int) -> int:
    """Smallest power of two >= max(256, 4 * trunc)."""
    return 1 << (max(256, 4 * trunc) - 1).bit_length()


def _circle_integral(modulus: np.ndarray, eta: float):
    """Trapezoid integral of modulus**eta over a full turn from the closed upper
    half ring (last axis): node weights 1, 2, ..., 2, 1 times 2 pi / nodes."""
    powered = modulus**eta
    weighted = np.sum(powered, axis=-1) + np.sum(powered[..., 1:-1], axis=-1)
    return weighted * (np.pi / (powered.shape[-1] - 1))


def integral_means(f: PowerSeries, cfg: QuadratureConfig) -> float:
    """Trapezoidal value of the integral of |f(r e^{i theta})|^eta over a full
    turn of cfg.nodes uniform nodes; it converges spectrally in the node count."""
    return float(_circle_integral(np.abs(ring_values(f.full(), cfg.r, cfg.nodes)), cfg.eta))


@dataclass(frozen=True)
class IntegralMeansComparison:
    """Circle integral of f (lhs) against the order-2 extremal member (rhs).

    certified=False flags that f failed the coefficient test, so the
    comparison was computed outside the guaranteed hypothesis.
    """

    lhs: float
    rhs: float
    certified: bool
    holds: bool

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.rhs - self.lhs,
            "certified": self.certified,
            "holds": self.holds,
        }


def verify_integral_means(
    f: PowerSeries, params: ClassParams, cfg: QuadratureConfig
) -> IntegralMeansComparison:
    """Compare circle integrals of f and the order-2 extremal member."""
    certified = coefficient_test(f, params).verdict is Verdict.SUFFICIENT_PASS
    lhs = integral_means(f, cfg)
    rhs = integral_means(extremal_function(2, params), cfg)
    holds = lhs <= rhs * (1.0 + INTEGRAL_MEANS_SLACK)
    return IntegralMeansComparison(lhs, rhs, certified, holds)


class SweepRow(NamedTuple):
    r: float
    eta: float
    lhs: float
    rhs: float
    margin: float


def sweep_integral_means(
    f: PowerSeries,
    params: ClassParams,
    r_values: Sequence[float],
    eta_values: Sequence[float],
    nodes: int | None = None,
) -> list[SweepRow]:
    """Integral-means comparison over an (r, eta) grid; margin = rhs - lhs.
    |f| and |f_2| are evaluated once for all radii and shared by every eta."""
    if nodes is None:
        nodes = default_nodes(max(f.order, params.trunc))
    radii = [QuadratureConfig(nodes=nodes, r=float(r)).r for r in r_values]
    etas = [QuadratureConfig(nodes=nodes, eta=float(eta)).eta for eta in eta_values]
    mod = np.abs(ring_values(f.full(), radii, nodes))
    mod2 = np.abs(ring_values(extremal_function(2, params).full(), radii, nodes))
    lhs = [_circle_integral(mod, eta).tolist() for eta in etas]
    rhs = [_circle_integral(mod2, eta).tolist() for eta in etas]
    return [
        SweepRow(r, eta, lhs[j][i], rhs[j][i], rhs[j][i] - lhs[j][i])
        for i, r in enumerate(radii)
        for j, eta in enumerate(etas)
    ]


CSV_HEADER = "r,eta,lhs,rhs,margin"


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    """CSV serialization with shortest round-trip decimal floats."""
    lines = [CSV_HEADER]
    lines.extend(",".join(repr(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def schwarz_witness(f: PowerSeries, params: ClassParams) -> np.ndarray:
    """Ascending coefficients of the explicit Schwarz witness for f.

    w(z) = (weight_2 / (1 - alpha)) * sum |a_n| z^{n-1}; w(0) = 0 by
    construction, and |w(z)| <= |z| on the disc whenever f passes the
    coefficient test and the criterion weights are nondecreasing in n.
    """
    if f.sign is not Sign.MINUS:
        raise ValueError("the Schwarz witness is defined for MINUS-convention series")
    out = np.zeros(f.order)
    scale = criterion_weight(2, params) / (1.0 - params.alpha)
    out[1:] = scale * np.abs(f.tail())
    return out


def wilf_positivity(b: Sequence[float], grid: SampleGrid = SampleGrid()) -> float:
    """Grid minimum of Re(1 + 2 sum b_n z^n) for a sequence starting at n=1.

    Strict positivity on the whole disc is the factor-sequence criterion;
    the grid minimum is the numerical evidence on the truncation.
    """
    coeffs = np.concatenate(([0.0], np.asarray(b, dtype=float)))
    return float(np.min(1.0 + 2.0 * grid.values(coeffs).real))


def wilf_sequence(f: PowerSeries, params: ClassParams) -> np.ndarray:
    """Candidate factor sequence: the subordination constant times the
    signed coefficients of f, leading 1 included (entries for n = 1..N)."""
    return subordination_constant(params) * f.full()[1:]


def subordination_constant(params: ClassParams) -> float:
    """The sharp factor constant weight_2 / (2 (1 - alpha + weight_2)).

    Always lies in (0, 1/2) and approaches 1/2 as alpha -> 1.
    """
    w2 = criterion_weight(2, params)
    return w2 / (2.0 * (1.0 - params.alpha + w2))


def realpart_bound(params: ClassParams) -> float:
    """Lower bound -(1 - alpha + weight_2) / weight_2 for Re f on the disc,
    valid for certified members; always < -1."""
    w2 = criterion_weight(2, params)
    return -(1.0 - params.alpha + w2) / w2


def sharpness_minimum(params: ClassParams, r: float, n_angles: int = 4096) -> float:
    """Minimum over the radius-r circle of Re(c * f_2(z)), c the factor
    constant and f_2 the order-2 extremal member.

    Decreases monotonically in r, never falls below -1/2, and approaches
    -1/2 as r -> 1: the constant cannot be improved.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    c = subordination_constant(params)
    return c * float(np.min(ring_values(extremal_function(2, params).full(), r, n_angles).real))


def min_real_part(f: PowerSeries, grid: SampleGrid = SampleGrid()) -> float:
    """Minimum of Re f over the sampling grid."""
    return float(np.min(grid.values(f.full()).real))


@dataclass(frozen=True)
class SubordinationReport:
    """Headline subordination quantities for one member and parameter set."""

    constant: float
    realpart_bound: float
    wilf_min: float
    sharpness_min: float

    def __post_init__(self) -> None:
        if not 0.0 < self.constant < 0.5:
            raise ValueError(f"factor constant must lie in (0, 1/2), got {self.constant}")
        if not self.realpart_bound < -1.0:
            raise ValueError(f"real-part bound must be < -1, got {self.realpart_bound}")

    def to_dict(self) -> dict:
        return {
            "constant": self.constant,
            "realpart_bound": self.realpart_bound,
            "wilf_min": self.wilf_min,
            "sharpness_min": self.sharpness_min,
        }


def subordination_report(
    f: PowerSeries,
    params: ClassParams,
    grid: SampleGrid | None = None,
    sharpness_r: float = 0.9999,
) -> SubordinationReport:
    """Assemble the subordination evidence for one member."""
    if grid is None:
        grid = SampleGrid(WILF_RADII, 64)
    return SubordinationReport(
        constant=subordination_constant(params),
        realpart_bound=realpart_bound(params),
        wilf_min=wilf_positivity(wilf_sequence(f, params), grid),
        sharpness_min=sharpness_minimum(params, sharpness_r),
    )


@dataclass(frozen=True)
class ConvexComparison:
    """A comparison function in closed form, with an explicit inverse on its
    image when available.  Registered comparisons are normalized, g(0) = 0.
    invert must commute with conjugation (real Taylor coefficients), since
    check_subordination reads a PowerSeries only on the upper half ring."""

    name: str
    apply: Callable[[np.ndarray], np.ndarray]
    invert: Callable[[np.ndarray], np.ndarray] | None = None


# The half-plane map z / (1 - z): convex, univalent, inverse w / (1 + w).
HALF_PLANE_COMPARISON = ConvexComparison(
    name="z/(1-z)",
    apply=lambda z: z / (1.0 - z),
    invert=lambda w: w / (1.0 + w),
)


class UnsupportedComparisonError(ValueError):
    """The comparison has no registered inverse, so containment cannot be
    tested from samples."""


@dataclass(frozen=True)
class SubordinationEvidence:
    """Radius-by-radius containment evidence for candidate < comparison."""

    origin_ok: bool
    per_radius: tuple[tuple[float, float], ...]
    tol: float

    @property
    def passed(self) -> bool:
        return self.origin_ok and all(m <= r + self.tol for r, m in self.per_radius)

    def to_dict(self) -> dict:
        return {
            "origin_ok": self.origin_ok,
            "per_radius": [[r, m] for r, m in self.per_radius],
            "tol": self.tol,
            "passed": self.passed,
        }


def check_subordination(
    candidate,
    comparison: ConvexComparison = HALF_PLANE_COMPARISON,
    grid: SampleGrid = SampleGrid(),
    tol: float = 1.0e-9,
) -> SubordinationEvidence:
    """Test the checkable consequences of candidate being subordinate to
    the comparison function.

    Existence of a Schwarz function cannot be decided from samples, so the
    check pulls each circle image back through the comparison inverse and
    verifies it lands in the closed disc of the same radius, plus the value
    match at the origin.  candidate is a PowerSeries or a callable accepting
    a complex ndarray.
    """
    if comparison.invert is None:
        raise UnsupportedComparisonError(
            f"comparison {comparison.name!r} has no registered inverse"
        )
    if isinstance(candidate, PowerSeries):
        coeffs = candidate.full()
        ring_of = lambda r: ring_values(coeffs, r, grid.n_angles)  # noqa: E731
    else:
        theta = np.arange(grid.n_angles) * (2.0 * np.pi / grid.n_angles)
        ring = np.exp(1j * theta)
        ring_of = lambda r: candidate(r * ring)  # noqa: E731
    origin_ok = bool(abs(ring_of(0.0)[0]) <= tol)
    per_radius = tuple(
        (float(r), float(np.max(np.abs(comparison.invert(ring_of(r))))))
        for r in grid.radii
    )
    return SubordinationEvidence(origin_ok, per_radius, tol)
