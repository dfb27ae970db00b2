"""Circle-integral comparisons and subordination evidence.

Two families of numerical verification live here.  Integral means: the
trapezoidal circle integral of |f|^eta against the order-2 extremal member,
which certified members must never exceed, compared in sweep_integral_means.
Subordination: the sharp factor constant c, the real-part bound -1/(2c) it
implies, and the exact -1/2 sharpness minimum.  Re f is sampled once, and the
Wilf minimum of the factor sequence c a_n follows from it, since
Re(1 + 2 sum c a_n z^n) = 1 + 2c Re f.  SubordinationReport.holds, the
verdict, is the one inequality min Re f > -1/(2c); the rest is evidence.

Every circle integral is computed by _integrals, the one caller of
series._ring here: one real FFT per radius over the closed upper half ring;
real coefficients make the lower half its conjugate mirror, so the half
carries every extremum and, with node weights 1, 2, ..., 2, 1, the
trapezoid rule, which is spectrally accurate for these smooth 2*pi-periodic
integrands.  It works from the log-modulus: log|f| is taken once per ring,
and each eta integrates exp(eta log|f|) = |f|^eta, so a zero of f on the
ring, log 0 = -inf, is the exact 0.  Sums are plain numpy pairwise sums
along the ring, one per eta and row, so results are reproducible run to run
and a row of a batch is bit-identical to its own single call.  That is why
the sweep can ring f alone and keep the integrals of f_2 = z - a z^2, which
depend only on a and the grid, in a one-entry memo keyed on (a, radii,
etas, nodes): a member checked at the parameter set and grid of the last
sweep reuses them as they are.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .classes import _extremal_coeff, coefficient_test
from .qcore import _MAX_ORDER, ClassParams, _is_count, criterion_weight
from .series import PowerSeries, SampleGrid, Sign, _ring

# Multiplicative slack for lhs <= rhs comparisons between circle integrals.
INTEGRAL_MEANS_SLACK = 1.0e-9

# Default radii for Wilf positivity and real-part sweeps (the positivity
# margin degenerates only as r -> 1, so 0.99 keeps a robust gap).
WILF_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
_SUBORDINATION_GRID = SampleGrid(WILF_RADII + (0.999,), 512)


@dataclass(frozen=True)
class QuadratureConfig:
    """Circle-integral setup: node count, radius, and modulus exponent.
    nodes is an integer of at most default_nodes(_MAX_ORDER), 2**20, the
    default for a series of the largest order."""

    nodes: int = 256
    r: float = 0.5
    eta: float = 2.0

    def __post_init__(self) -> None:
        _check_nodes(self.nodes)
        _check_r(self.r)
        _check_eta(self.eta)


# The rules of a QuadratureConfig field, one each, for the config and for a
# sweep, which checks nodes once and each of its radii and etas.
def _check_nodes(nodes: int) -> None:
    top = default_nodes(_MAX_ORDER)
    if not (_is_count(nodes) and 16 <= nodes <= top) or nodes & (nodes - 1):
        raise ValueError(f"nodes must be a power of two in [16, {top}], got {nodes}")


def _check_r(r: float) -> float:
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    return r


def _check_eta(eta: float) -> float:
    if not eta > 0.0:
        raise ValueError(f"eta must be > 0, got {eta}")
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")
    return eta


def default_nodes(order: int) -> int:
    """Smallest power of two >= max(256, 4 * order), for a series of that order."""
    return 1 << (max(256, 4 * order) - 1).bit_length()


def _integrals(
    coeffs: np.ndarray, radii: tuple[float, ...], etas: Sequence[float], nodes: int
) -> np.ndarray:
    """Unchecked trapezoid integrals of |p|^eta over a full turn of the
    radius-r circle, for each eta, each coefficient row of coeffs and each
    r: shape (len(etas),) + coeffs.shape[:-1] + (len(radii),).  log|p| is
    taken once per ring, on its closed upper half, and each eta integrates
    exp(eta log|p|) with the node weights 1, 2, ..., 2, 1, as 2 sum - ends,
    times 2 pi / nodes; log 0 = -inf gives exactly 0.  Nothing is refused
    here: an integral beyond the double range comes back as inf or NaN,
    and _check_integrals refuses it."""
    log_modulus = np.abs(_ring(coeffs, radii, nodes))
    buf = np.empty_like(log_modulus)
    out = np.empty((len(etas),) + buf.shape[:-1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.log(log_modulus, out=log_modulus)
        for j, eta in enumerate(etas):
            np.multiply(log_modulus, eta, out=buf)
            np.exp(buf, out=buf)
            out[j] = 2.0 * buf.sum(axis=-1) - buf[..., 0] - buf[..., -1]
    out *= np.pi / (buf.shape[-1] - 1)
    return out


def _check_integrals(
    integrals: np.ndarray, etas: Sequence[float], radii: Sequence[float]
) -> np.ndarray:
    """integrals, shape (len(etas),) + rows + (len(radii),), once each lies
    in the normal float range.  An integral beyond the double range
    overflows and one below its normal range underflows, a ValueError
    naming the first such circle in C order, overflow before underflow."""
    overflow, underflow = ~np.isfinite(integrals), integrals < np.finfo(float).tiny
    for failed, word in ((overflow, "overflows"), (underflow, "underflows")):
        if failed.any():
            j, *_, i = np.argwhere(failed)[0]
            raise ValueError(f"the circle integral {word} at r = {radii[i]}, eta = {etas[j]}")
    return integrals


def integral_means(f: PowerSeries, cfg: QuadratureConfig) -> float:
    """Trapezoidal value of the integral of |f(r e^{i theta})|^eta over a full
    turn of cfg.nodes uniform nodes, as exp(eta log|f|) from the ring's
    log-modulus; it converges spectrally in the node count.  An integral
    outside the normal float range is a ValueError naming r and eta."""
    radii, etas = (float(cfg.r),), (float(cfg.eta),)
    return float(_check_integrals(_integrals(f.full(), radii, etas, cfg.nodes), etas, radii)[0, 0])


class SweepRow(NamedTuple):
    r: float
    eta: float
    lhs: float
    rhs: float
    margin: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + INTEGRAL_MEANS_SLACK)


def sweep_integral_means(
    f: PowerSeries,
    params: ClassParams,
    r_values: Sequence[float],
    eta_values: Sequence[float],
    nodes: int,
) -> list[SweepRow]:
    """Integral-means comparison over an (r, eta) grid; nodes is required and
    margin = rhs - lhs.  The lhs is one _integrals call for every radius and
    eta.  The rhs is _extremal_integrals of the coefficient a of
    extremal_function(2), the same numbers for every member at one
    (a, radii, etas, nodes).  Both sides are checked as one (eta, side, r)
    stack, so a refusal names the first failing circle of either.  Inputs
    follow the QuadratureConfig rules: nodes is checked once, at the first
    value, then each radius and eta in turn, and an empty r_values or
    eta_values is a ValueError naming it, r_values first: no rows would
    make every verdict vacuously true."""
    radii, etas = [], []
    for kept, values, check in ((radii, r_values, _check_r), (etas, eta_values, _check_eta)):
        for value in map(float, values):
            if not (radii or etas):
                _check_nodes(nodes)
            kept.append(check(value))
    for name, values in (("r_values", radii), ("eta_values", etas)):
        if not values:
            raise ValueError(f"{name} must not be empty")
    radii, etas = tuple(radii), tuple(etas)
    extremal = _extremal_integrals(_extremal_coeff(2, params), radii, etas, nodes)
    stacked = np.stack((_integrals(f.full(), radii, etas, nodes), extremal), axis=1)
    sides = _check_integrals(stacked, etas, radii).tolist()
    return [
        SweepRow(r, eta, lhs[i], rhs[i], rhs[i] - lhs[i])
        for i, r in enumerate(radii)
        for (lhs, rhs), eta in zip(sides, etas)
    ]


@functools.lru_cache(maxsize=1)
def _extremal_integrals(
    a: float, radii: tuple[float, ...], etas: tuple[float, ...], nodes: int
) -> np.ndarray:
    """Unchecked circle integrals of f_2 = z - a z^2, shape (len(etas),
    len(radii)), read-only.  They depend on these arguments alone, and a
    ring row is bit-identical to its own call, so the one entry kept serves
    every member swept at one parameter set and grid."""
    integrals = _integrals(np.array((0.0, 1.0, -a)), radii, etas, nodes)
    integrals.flags.writeable = False
    return integrals


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


def verify_integral_means(
    f: PowerSeries, params: ClassParams, cfg: QuadratureConfig
) -> IntegralMeansComparison:
    """The single (cfg.r, cfg.eta) cell of sweep_integral_means."""
    certified = coefficient_test(f, params).holds
    (row,) = sweep_integral_means(f, params, (cfg.r,), (cfg.eta,), cfg.nodes)
    return IntegralMeansComparison(row.lhs, row.rhs, certified, row.holds)


CSV_HEADER = ",".join(SweepRow._fields)


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

    Lies in (0, 1/2) and approaches 1/2 as alpha -> 1 or weight_2 grows; in
    float it rounds to 1/2 once weight_2 exceeds about 2**53 (1 - alpha).
    """
    return _constant(criterion_weight(2, params), params.alpha)


def realpart_bound(params: ClassParams) -> float:
    """Lower bound -(1 - alpha + weight_2) / weight_2 = -1 / (2 c) for Re f on
    the disc, valid for certified members; < -1, but in float it rounds to -1
    once weight_2 exceeds about 2**53 (1 - alpha)."""
    return _realpart_bound(criterion_weight(2, params), params.alpha)


def sharpness_minimum(params: ClassParams, r: float) -> float:
    """Minimum over the radius-r circle of Re(c * f_2(z)), c the factor
    constant and f_2(z) = z - a z^2, a = (1 - alpha) / weight_2.

    Re f_2(r e^{it}) = r cos t - a r^2 cos 2t is concave in cos t, so it is
    least at cos t = -1, and the minimum is c f_2(-r) = -r (weight_2 +
    (1 - alpha) r) / (2 (1 - alpha + weight_2)).  It decreases in r, stays
    above -1/2 and tends to -1/2 as r -> 1: the constant cannot be improved.
    """
    return _sharpness_minimum(criterion_weight(2, params), params.alpha, _check_r(r))


# The three closed forms above, of w2 = weight_2 and alpha, for a caller
# that has read weight_2 once.
def _constant(w2: float, alpha: float) -> float:
    return w2 / (2.0 * (1.0 - alpha + w2))


def _realpart_bound(w2: float, alpha: float) -> float:
    return -(1.0 - alpha + w2) / w2


def _sharpness_minimum(w2: float, alpha: float, r: float) -> float:
    return -r * (w2 + (1.0 - alpha) * r) / (2.0 * (1.0 - alpha + w2))


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
    min_real_part: float

    @property
    def holds(self) -> bool:
        return self.min_real_part > self.realpart_bound


def subordination_report(f: PowerSeries, params: ClassParams) -> SubordinationReport:
    """Subordination evidence for one member, from one sampling of Re f and
    one read of weight_2."""
    w2, alpha = criterion_weight(2, params), params.alpha
    c = _constant(w2, alpha)
    min_re = min_real_part(f, _SUBORDINATION_GRID)
    return SubordinationReport(
        constant=c,
        realpart_bound=_realpart_bound(w2, alpha),
        wilf_min=1.0 + 2.0 * c * min_re,
        sharpness_min=_sharpness_minimum(w2, alpha, 0.9999),
        min_real_part=min_re,
    )
