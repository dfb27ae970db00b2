"""Membership machinery for the q-starlike class: the sufficient coefficient
test, extremal members, the minimum of the analytic criterion over a disc
grid, and a seeded random-member generator for property sweeps.

The coefficient test is *sufficient*: a PASS certifies membership, a FAIL
proves nothing about the full class, so verdicts are deliberately named
SUFFICIENT_PASS / SUFFICIENT_FAIL rather than member / non-member.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .qcore import (_TINY, ClassParams, _check_count, _is_count, _tables, criterion_weight,
                    criterion_weights)
from .series import PowerSeries, SampleGrid, Sign

# |R f(z)| below this is no longer trusted in double precision; the ratio
# defining the criterion is reported as degenerate instead of evaluated.
DEGENERATE_TOL = 1.0e-14


class Verdict(enum.Enum):
    SUFFICIENT_PASS = "SUFFICIENT_PASS"
    SUFFICIENT_FAIL = "SUFFICIENT_FAIL"


class DegenerateDenominatorError(ArithmeticError):
    """The Ruscheweyh transform vanishes at the sample point."""


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the sufficient coefficient test.

    coefficient_sum is sum of weight_n * |a_n|, budget is 1 - alpha, and
    margin = budget - coefficient_sum; the verdict passes iff margin >= 0,
    and holds is whether it passed.  The report keeps the weight and
    contribution arrays, outside equality and hashing, and per_term lists
    (n, weight_n, contribution_n) from them on first read, for inspection.
    """

    coefficient_sum: float
    budget: float
    margin: float
    verdict: Verdict
    _weights: np.ndarray = field(repr=False, compare=False)
    _contributions: np.ndarray = field(repr=False, compare=False)

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.SUFFICIENT_PASS

    @cached_property
    def per_term(self) -> tuple[tuple[int, float, float], ...]:
        n = range(2, self._weights.size + 2)
        return tuple(zip(n, self._weights.tolist(), self._contributions.tolist()))

    def to_dict(self) -> dict:
        return {
            "coefficient_sum": self.coefficient_sum,
            "budget": self.budget,
            "margin": self.margin,
            "per_term": [list(t) for t in self.per_term],
            "verdict": self.verdict.value,
        }


def coefficient_test(f: PowerSeries, params: ClassParams) -> MembershipReport:
    """Run the sufficient membership test on f.

    A PASS certifies that f belongs to the class; a FAIL leaves membership
    undecided (the condition is only sufficient in general).
    """
    weights = criterion_weights(params, order=f.order)
    with np.errstate(over="ignore"):
        contributions = weights * np.abs(f.tail())
        total = float(contributions.sum())
    if not math.isfinite(total):
        raise ValueError("the weighted coefficient sum overflows; coefficients are too large")
    budget = 1.0 - params.alpha
    margin = budget - total
    verdict = Verdict.SUFFICIENT_PASS if margin >= 0.0 else Verdict.SUFFICIENT_FAIL
    return MembershipReport(total, budget, margin, verdict, weights, contributions)


def _extremal_coeff(n: int, params: ClassParams) -> float:
    """(1 - alpha) / weight_n, nudged down by at most a few ulps so the
    recomputed margin never rounds negative."""
    budget = 1.0 - params.alpha
    weight = criterion_weight(n, params)
    a = budget / weight
    while weight * a > budget:
        a = math.nextafter(a, 0.0)
    return a


def extremal_function(n: int, params: ClassParams) -> PowerSeries:
    """The member z - (1 - alpha) / weight_n * z^n saturating the test, of
    order trunc.

    Its coefficient test margin is zero (to an ulp), which is what makes the
    coefficient bound sharp; the nudged coefficient of _extremal_coeff keeps
    the member a PASS.
    """
    _check_count("n", n, 2, params.trunc)
    coeffs = np.zeros(params.trunc - 1)
    coeffs[n - 2] = _extremal_coeff(n, params)
    return PowerSeries(coeffs, Sign.MINUS)


def criterion_min_margin(
    f: PowerSeries, params: ClassParams, grid: SampleGrid = SampleGrid()
) -> float:
    """Minimum over a deterministic disc grid of the criterion margin
    Re(W - alpha) - k |W - 1|, W = z D_q(R f)(z) / R f(z).

    A positive minimum means the defining inequality of the class holds at
    every grid point.  Raises DegenerateDenominatorError when |R f(z)| < 1e-14
    at some grid point.  The reduction over points is a plain minimum, so the
    result does not depend on evaluation order.

    R f, the Ruscheweyh transform, scales each tail coefficient by the
    kernel coefficient [lam+1]_{n-1} / [n-1]! from the params' table.  W - 1
    is d = Dn / R f, where Dn = z D_q R f - R f has the coefficients
    ([n] - 1) r_n = q [n-1] r_n of its own, so nothing cancels, and the
    margin is 1 + Re d - alpha - k |d|: at a large k, where |d| is about
    1 / k, a subtraction W - 1 would leave k eps of rounding.  The shift
    factors q [n-1] depend on q alone and are read from the params' table
    beside the kernel.  R f and Dn are the two rows of one array.  A kernel
    or R f coefficient beyond the double range is a ValueError.
    """
    kernel, _, shift = _tables(params, f.order)
    rows = np.zeros((2, f.order + 1))
    rows[0, 1] = 1.0
    with np.errstate(over="ignore"):
        np.multiply(f.tail(), kernel, out=rows[0, 2:])
    if not np.isfinite(rows[0]).all():
        raise ValueError("series coefficients must be finite")
    np.multiply(shift, rows[0, 2:], out=rows[1, 2:])
    den, dn = grid.values(rows)
    if np.abs(den).min() < DEGENERATE_TOL:
        raise DegenerateDenominatorError(
            "Ruscheweyh transform vanishes at a sample point"
        )
    d = dn / den
    return float((1.0 + d.real - params.alpha - params.k * np.abs(d)).min())


def _generator(seed: int) -> np.random.Generator:
    """numpy's generator for seed; a seed that is not a non-negative integer,
    a bool included, is a ValueError naming it."""
    if not (_is_count(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def random_member(params: ClassParams, seed: int, density: float = 0.8) -> PowerSeries:
    """Seeded random series guaranteed to pass the coefficient test.

    Coefficient slots are switched on by a Bernoulli(density) mask, magnitudes
    drawn uniform on (0, 1), then the whole tail is rescaled so the weighted
    coefficient sum equals density * (1 - alpha).  density = 1 lands exactly
    on the budget (margin 0); the same seed always returns the same series.
    A density so small that density * (1 - alpha) falls below the normal
    float range is a ValueError naming the density; weights so large that
    the scale falls below that range, where it loses precision, are one
    naming the parameters, and so is a seed that is not a non-negative
    integer.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    target = density * (1.0 - params.alpha)
    if target < _TINY:
        raise ValueError(f"density = {density} is too small: density * (1 - alpha) = "
                         f"{target} is below the normal float range")
    rng = _generator(seed)
    m = params.trunc - 1
    weights = criterion_weights(params)
    mags = np.zeros(m)
    while not mags.any():
        mask = rng.random(m) < density
        if not mask.any():
            mask[int(rng.integers(m))] = True
        mags = np.where(mask, rng.random(m), 0.0)
    with np.errstate(over="ignore"):
        scale = target / float((weights * mags).sum())
    # back off by ulps until the recomputed sum cannot exceed the target,
    # so a density-1 draw still certifies as a PASS
    while scale >= _TINY and float((weights * (mags * scale)).sum()) > target:
        scale *= 1.0 - 2.0**-52
    if scale < _TINY:
        raise ValueError(
            f"random member coefficients underflow at k = {params.k}, "
            f"lambda = {params.lam}, q = {params.q}: the criterion weights are too large"
        )
    return PowerSeries(mags * scale, Sign.MINUS)
