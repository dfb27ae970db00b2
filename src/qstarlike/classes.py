"""Membership machinery for the q-starlike class: the sufficient coefficient
test, extremal members, pointwise sampling of the analytic criterion, and a
seeded random-member generator for property sweeps.

The coefficient test is *sufficient*: a PASS certifies membership, a FAIL
proves nothing about the full class, so verdicts are deliberately named
SUFFICIENT_PASS / SUFFICIENT_FAIL rather than member / non-member.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .qcore import ClassParams, criterion_weight, criterion_weights
from .series import (
    DiscPoint,
    PowerSeries,
    SampleGrid,
    Sign,
    poly_eval,
    q_derivative,
    ruscheweyh,
)

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
    margin = budget - coefficient_sum; the verdict passes iff margin >= 0.
    per_term lists (n, weight_n, contribution_n) for inspection.
    """

    coefficient_sum: float
    budget: float
    margin: float
    per_term: tuple[tuple[int, float, float], ...]
    verdict: Verdict

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
        total = float(np.sum(contributions))
    if not math.isfinite(total):
        raise ValueError("the weighted coefficient sum overflows; coefficients are too large")
    budget = 1.0 - params.alpha
    margin = budget - total
    per_term = tuple(zip(range(2, f.order + 1), weights.tolist(), contributions.tolist()))
    verdict = Verdict.SUFFICIENT_PASS if margin >= 0.0 else Verdict.SUFFICIENT_FAIL
    return MembershipReport(total, budget, margin, per_term, verdict)


def extremal_function(n: int, params: ClassParams) -> PowerSeries:
    """The member z - (1 - alpha) / weight_n * z^n saturating the test.

    Its coefficient test margin is zero (to an ulp), which is what makes the
    coefficient bound sharp.  The coefficient is nudged down by at most a few
    ulps so the recomputed margin never rounds negative and the member always
    tests as a PASS.
    """
    if not 2 <= n <= params.trunc:
        raise ValueError(f"n must lie in [2, trunc={params.trunc}], got {n}")
    budget = 1.0 - params.alpha
    weight = criterion_weight(n, params)
    a = budget / weight
    while weight * a > budget:
        a = math.nextafter(a, 0.0)
    coeffs = [0.0] * (params.trunc - 1)
    coeffs[n - 2] = a
    return PowerSeries(tuple(coeffs), Sign.MINUS)


def _criterion_margins(f: PowerSeries, params: ClassParams, values):
    """Margins of the analytic criterion at the disc points where
    values(coeffs) evaluates an ascending coefficient sequence."""
    g = ruscheweyh(f, params)
    den = values(g.full())
    if np.min(np.abs(den)) < DEGENERATE_TOL:
        raise DegenerateDenominatorError(
            "Ruscheweyh transform vanishes at a sample point"
        )
    w = values(np.concatenate(([0.0], q_derivative(g, params.q)))) / den
    return w.real - params.alpha - params.k * np.abs(w - 1.0)


def analytic_criterion_margin(
    f: PowerSeries, params: ClassParams, point: DiscPoint
) -> float:
    """Re(W - alpha) - k |W - 1| at one point, W the criterion ratio.

    W = z D_q(R f)(z) / R f(z).  A positive margin means the defining
    inequality of the class holds at that point; raises
    DegenerateDenominatorError when |R f(z)| < 1e-14 (in particular at z=0).
    """
    z = point.z()
    return float(_criterion_margins(f, params, lambda coeffs: poly_eval(coeffs, z)))


def criterion_min_margin(
    f: PowerSeries, params: ClassParams, grid: SampleGrid = SampleGrid()
) -> float:
    """Minimum criterion margin over a deterministic disc grid.

    The reduction over points is a plain minimum, so the result does not
    depend on evaluation order.
    """
    return float(np.min(_criterion_margins(f, params, grid.values)))


def random_member(params: ClassParams, seed: int, density: float = 0.8) -> PowerSeries:
    """Seeded random series guaranteed to pass the coefficient test.

    Coefficient slots are switched on by a Bernoulli(density) mask, magnitudes
    drawn uniform on (0, 1), then the whole tail is rescaled so the weighted
    coefficient sum equals density * (1 - alpha).  density = 1 lands exactly
    on the budget (margin 0); the same seed always returns the same series.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    m = params.trunc - 1
    weights = criterion_weights(params)
    mags = np.zeros(m)
    while not mags.any():
        mask = rng.random(m) < density
        if not mask.any():
            mask[int(rng.integers(m))] = True
        mags = np.where(mask, rng.random(m), 0.0)
    target = density * (1.0 - params.alpha)
    scale = target / float(np.sum(weights * mags))
    # back off by ulps until the recomputed sum cannot exceed the target,
    # so a density-1 draw still certifies as a PASS
    while float(np.sum(weights * (mags * scale))) > target:
        scale *= 1.0 - 2.0**-52
    return PowerSeries(tuple(mags * scale), Sign.MINUS)
