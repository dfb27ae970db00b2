import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qstarlike import (
    ClassParams,
    PowerSeries,
    SampleGrid,
    Sign,
    Verdict,
    coefficient_test,
    criterion_min_margin,
    extremal_function,
    random_member,
)
from qstarlike.analysis import WILF_RADII
from qstarlike.classes import DEGENERATE_TOL, DegenerateDenominatorError
from qstarlike.qcore import Q_MAX, Q_MIN, basic_number, criterion_weight
from reference import ruscheweyh

NEAR_ONE = 1.0 - 1.0e-6

PARAM_GRID = [
    ClassParams(q=q, lam=lam, alpha=alpha, k=k, trunc=16)
    for q in (0.3, 0.6, 0.9)
    for lam in (0.0, 0.5, 2.0)
    for alpha in (0.0, 0.25, 0.5)
    for k in (0.0, 1.0, 3.0)
]


def test_coefficient_test_identity_passes():
    p = ClassParams(q=0.5, alpha=0.3, trunc=8)
    report = coefficient_test(PowerSeries((0.0,) * 7), p)
    assert report.coefficient_sum == 0.0
    assert report.budget == pytest.approx(0.7)
    assert report.margin == report.budget
    assert report.verdict is Verdict.SUFFICIENT_PASS


def test_coefficient_test_margin_is_budget_minus_sum():
    p = ClassParams(q=0.5, alpha=0.25, trunc=6)
    f = random_member(p, seed=1, density=0.6)
    report = coefficient_test(f, p)
    assert report.margin == report.budget - report.coefficient_sum


def test_coefficient_test_per_term():
    p = ClassParams(q=0.5, trunc=4)
    f = PowerSeries((0.1, 0.0, 0.2), Sign.MINUS)
    report = coefficient_test(f, p)
    assert [t[0] for t in report.per_term] == [2, 3, 4]
    for n, weight, contribution in report.per_term:
        assert weight == pytest.approx(criterion_weight(n, p), rel=1e-15)
        assert contribution == pytest.approx(weight * abs(f.tail()[n - 2]), rel=1e-15)


@pytest.mark.parametrize("coeffs", [(1e308, 1e308), (1.7e308,)])
def test_coefficient_test_rejects_overflowing_sum(coeffs):
    # the weights exceed 1, so the weighted sum overflows although every
    # coefficient is finite
    with pytest.raises(ValueError, match="overflows"):
        coefficient_test(PowerSeries(coeffs), ClassParams(q=0.5, trunc=4))


def test_coefficient_test_rejects_oversized_series():
    # classical starlike budget: z - 2 z^2 doubles the allowance
    p = ClassParams(q=NEAR_ONE, trunc=2)
    report = coefficient_test(PowerSeries((2.0,), Sign.MINUS), p)
    assert report.coefficient_sum == pytest.approx(4.0, rel=1e-5)
    assert report.verdict is Verdict.SUFFICIENT_FAIL
    assert report.margin < 0.0


@pytest.mark.parametrize("n", [2, 5, 12])
def test_extremal_function_saturates_budget(n):
    for p in PARAM_GRID:
        report = coefficient_test(extremal_function(n, p), p)
        assert abs(report.margin) < 1e-12
        assert report.verdict is Verdict.SUFFICIENT_PASS


def test_extremal_function_values():
    p = ClassParams(q=NEAR_ONE, trunc=8)
    assert extremal_function(2, p).coeffs[0] == pytest.approx(0.5, abs=1e-5)
    p = ClassParams(q=NEAR_ONE, alpha=0.5, trunc=8)
    assert extremal_function(2, p).coeffs[0] == pytest.approx(1.0 / 3.0, abs=1e-5)
    p = ClassParams(q=0.5, trunc=8)
    assert extremal_function(3, p).coeffs[1] == pytest.approx(4.0 / 7.0, rel=1e-14)


def test_extremal_function_rejects_bad_order():
    p = ClassParams(q=0.5, trunc=8)
    with pytest.raises(ValueError):
        extremal_function(1, p)
    with pytest.raises(ValueError):
        extremal_function(9, p)


def test_criterion_margin_identity_function():
    # f(z) = z gives ratio exactly 1, so margin is 1 - alpha everywhere; a
    # one-angle grid samples the single point z = r
    f = PowerSeries((0.0,) * 5)
    for alpha in (0.0, 0.25, 0.75):
        p = ClassParams(q=0.4, lam=1.0, alpha=alpha, k=2.0, trunc=6)
        assert criterion_min_margin(f, p, SampleGrid((0.7,), 1)) == 1.0 - alpha
        assert criterion_min_margin(f, p) == pytest.approx(1.0 - alpha, abs=1e-14)


def test_criterion_margin_extremal_members_nonnegative():
    for p in PARAM_GRID[::5]:
        f = extremal_function(2, p)
        assert criterion_min_margin(f, p) >= -1e-9


def test_criterion_margin_detects_failure():
    # z - 2 z^2 violates starlikeness inside the disc; the failure shows on
    # the positive real axis between the zero of f' and the zero of f
    p = ClassParams(q=NEAR_ONE, trunc=2)
    f = PowerSeries((2.0,), Sign.MINUS)
    # at z = 0.4 the ratio is (1 - 0.8 [2]) / 0.2, about -3
    at_04 = criterion_min_margin(f, p, SampleGrid((0.4,), 1))
    assert at_04 == pytest.approx((1.0 - 0.8 * (1.0 + NEAR_ONE)) / 0.2, rel=1e-12)
    assert at_04 < 0.0
    # f vanishes at z = 0.5, which sits on the default grid and is reported
    with pytest.raises(DegenerateDenominatorError):
        criterion_min_margin(f, p)
    assert criterion_min_margin(f, p, SampleGrid((0.3, 0.4, 0.45), 64)) < 0.0


def test_criterion_margin_degenerate_denominator():
    # R f vanishes at z = 0.8 for f = z - 1.25 z^2
    p = ClassParams(q=0.5, trunc=2)
    f = PowerSeries((1.25,), Sign.MINUS)
    with pytest.raises(DegenerateDenominatorError):
        criterion_min_margin(f, p, SampleGrid((0.8,), 1))


def log_uniform(low: float, high: float):
    """10**e for e uniform in [low, high]."""
    return st.floats(low, high).map(lambda e: 10.0**e)


# the documented domain with both edges of each parameter: q toward 0, near
# 1 or uniform; lam just above -1, in (-1, 0) or up to 50; alpha 0, uniform
# or within 1e-12 of 1; k 0, up to 5 or up to 1e300
DOMAIN_Q = st.one_of(log_uniform(-6.0, -1.0), log_uniform(-6.0, -1.0).map(lambda t: 1.0 - t),
                     st.floats(Q_MIN, Q_MAX)).map(lambda q: min(max(q, Q_MIN), Q_MAX))
DOMAIN_LAM = st.one_of(st.floats(-1.0, 0.0, exclude_min=True), st.floats(0.0, 50.0),
                       log_uniform(-9.0, -1.0).map(lambda t: -1.0 + t))
DOMAIN_ALPHA = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True),
                         log_uniform(-12.0, -1.0).map(lambda t: 1.0 - t))
DOMAIN_K = st.one_of(st.just(0.0), st.floats(0.0, 5.0), log_uniform(0.0, 300.0))


@settings(max_examples=150, deadline=None)
@given(
    q=DOMAIN_Q,
    lam=DOMAIN_LAM,
    alpha=DOMAIN_ALPHA,
    k=DOMAIN_K,
    trunc=st.sampled_from([2, 3, 4, 16, 64, 256, 1024]),
    density=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    seed=st.integers(0, 2**31 - 1),
)
# a budget 1 - alpha of 6.6e-10 at k = 1.3e8: |W - 1| is about 1 / k, so a
# margin that formed W - 1 by subtraction read -1.4e-8 here
@example(q=0.1, lam=-0.5, alpha=1.0 - 6.6e-10, k=1.3e8, trunc=4, density=1.0, seed=0)
def test_criterion_margin_of_random_members_is_nonnegative_over_the_domain(
    q, lam, alpha, k, trunc, density, seed
):
    # every certified member satisfies the criterion, so its grid minimum
    # may miss 0 only by rounding; a member the weights cannot scale (an
    # overflow or an underflow, each a ValueError) is no member
    p = ClassParams(q=q, lam=lam, alpha=alpha, k=k, trunc=trunc)
    try:
        f = random_member(p, seed, density)
    except ValueError:
        return
    assert criterion_min_margin(f, p) >= -1e-9


def test_criterion_margin_at_k_1e200_matches_mpmath():
    # at k = 1e200 the member's coefficients are about 1e-200, so W = 1 + d
    # rounds to 1 and only d itself carries the margin; mpmath evaluates
    # 1 + Re d - alpha - k |d| at 50 digits from the same float coefficients
    p = ClassParams(q=0.5, lam=1.0, alpha=0.3, k=1e200, trunc=16)
    f = random_member(p, seed=10, density=1.0)
    grid = SampleGrid((0.6,), 4)
    ctx = mpmath.MPContext()
    ctx.dps = 50
    q = ctx.mpf(p.q)

    def bracket(n):
        return (1 - q**n) / (1 - q)

    kernel = [ctx.mpf(1)]
    for n in range(2, f.order + 1):
        kernel.append(kernel[-1] * bracket(p.lam + n - 1) / bracket(n - 1))
    r = [ctx.mpf(c) * kernel[n - 1] for n, c in enumerate(f.full()[1:], start=1)]
    margins = []
    for j in range(grid.n_angles // 2 + 1):
        z = ctx.mpf(grid.radii[0]) * ctx.expjpi(ctx.mpf(2 * j) / grid.n_angles)
        den = sum(rn * z**n for n, rn in enumerate(r, start=1))
        dn = sum(q * bracket(n - 1) * rn * z**n for n, rn in enumerate(r, start=1))
        d = dn / den
        margins.append(1 + ctx.re(d) - ctx.mpf(p.alpha) - ctx.mpf(p.k) * abs(d))
    exact = min(margins)
    assert 0.1 < exact < 1.0 - p.alpha
    assert criterion_min_margin(f, p, grid) == pytest.approx(float(exact), rel=1e-13, abs=0.0)


def test_criterion_min_margin_custom_grid():
    p = ClassParams(q=0.5, trunc=4)
    f = extremal_function(2, p)
    wide = criterion_min_margin(f, p, SampleGrid((0.2, 0.5), 16))
    assert wide > 0.0


def test_random_member_deterministic():
    p = ClassParams(q=0.6, lam=1.0, alpha=0.25, k=0.5, trunc=20)
    assert random_member(p, seed=9) == random_member(p, seed=9)
    assert random_member(p, seed=9) != random_member(p, seed=10)


def test_random_member_hits_requested_density():
    p = ClassParams(q=0.6, lam=1.0, alpha=0.25, trunc=20)
    for density in (0.25, 0.5, 1.0):
        f = random_member(p, seed=4, density=density)
        assert f.sign is Sign.MINUS
        report = coefficient_test(f, p)
        assert report.coefficient_sum == pytest.approx(
            density * report.budget, abs=1e-12
        )
        assert report.verdict is Verdict.SUFFICIENT_PASS


def test_random_member_rejects_bad_density():
    p = ClassParams(q=0.5)
    with pytest.raises(ValueError):
        random_member(p, seed=1, density=0.0)
    with pytest.raises(ValueError):
        random_member(p, seed=1, density=1.5)


def test_random_members_satisfy_criterion_on_grid():
    # smaller cousin of the acceptance sweep, negative lam included: the
    # sufficiency direction does not need weight monotonicity
    cases = [
        ClassParams(q=0.4, lam=-0.5, alpha=0.0, k=0.0, trunc=16),
        ClassParams(q=0.7, lam=-0.9, alpha=0.3, k=1.0, trunc=16),
        ClassParams(q=0.9, lam=1.5, alpha=0.1, k=0.5, trunc=16),
    ]
    for i, p in enumerate(cases):
        for seed in range(5):
            f = random_member(p, seed=100 * i + seed, density=1.0)
            assert criterion_min_margin(f, p) >= -1e-9


def test_per_term_is_built_on_first_read():
    p = ClassParams(q=0.5, lam=1.0, trunc=8)
    report = coefficient_test(random_member(p, seed=2), p)
    assert "per_term" not in vars(report)
    assert [t[0] for t in report.per_term] == list(range(2, 9))
    assert report.per_term is report.per_term
    assert report.to_dict()["per_term"] == [list(t) for t in report.per_term]


def test_random_member_refuses_a_negative_seed():
    # and a seed that is not an integer: numpy would refuse 1.5 in its own
    # words and take True as seed 1
    for seed in (-1, 1.5, True):
        with pytest.raises(ValueError, match=rf"^seed must be a non-negative integer, got {seed}$"):
            random_member(ClassParams(q=0.5), seed=seed)


def stacked_min_margin(f, params, grid=SampleGrid()):
    """criterion_min_margin built from separate parts rather than rows
    written in place: R f as a PowerSeries, the series Dn = z D_q R f - R f
    from its coefficients q [n-1] r_n, np.stack of the two, one checked
    SampleGrid.values call, and the margin 1 + Re d - alpha - k |d| of d = Dn / R f."""
    g = ruscheweyh(f, params)
    dn = params.q * basic_number(np.arange(1.0, g.order), params.q) * g.tail()
    den, num = grid.values(np.stack((g.full(), np.concatenate(([0.0, 0.0], dn)))))
    if np.min(np.abs(den)) < DEGENERATE_TOL:
        raise DegenerateDenominatorError("Ruscheweyh transform vanishes at a sample point")
    d = num / den
    return float(np.min(1.0 + d.real - params.alpha - params.k * np.abs(d)))


def margin_outcome(margin, f, params, grid):
    """The exact bits of a margin, or the type and message of its error;
    numpy's overflow warning is silenced, so the reference's transform that
    overflows reaches the series' own finiteness check."""
    try:
        with np.errstate(over="ignore"):
            return margin(f, params, grid).hex()
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def test_criterion_rows_are_bit_identical_to_the_stacked_build():
    rng = np.random.default_rng(1414)
    grids = (SampleGrid(), SampleGrid((0.3, 0.9), 7), SampleGrid(WILF_RADII + (0.999,), 512))
    cases = []
    for p in PARAM_GRID[::4] + [ClassParams(q=0.5, lam=1.0, alpha=0.3, k=2.0, trunc=256)]:
        cases.append((random_member(p, seed=int(rng.integers(2**31))), p))
        n = np.arange(2.0, p.trunc + 1.0)
        cases.append((PowerSeries(rng.uniform(-1.0, 1.0, n.size) / n**3), p))
    # a given series of order at most trunc / 2, whose kernel is built fresh
    cases.append((PowerSeries((0.3, 0.0, 0.1), Sign.MINUS), ClassParams(q=0.6, lam=2.0, trunc=64)))
    # errors: a transformed tail beyond the double range, a kernel that
    # overflows, and a transform that vanishes at a grid point
    cases.append((PowerSeries((1e308, 1e308)), ClassParams(q=0.5, lam=3.0, trunc=3)))
    cases.append((PowerSeries((1e-3,) * 1999, Sign.MINUS),
                  ClassParams(q=0.999999, lam=1000.0, trunc=2000)))
    cases.append((PowerSeries((1.25,), Sign.MINUS), ClassParams(q=0.5, trunc=2)))
    seen = set()
    for f, p in cases:
        for grid in grids + (SampleGrid((0.8,), 1),):
            want = margin_outcome(stacked_min_margin, f, p, grid)
            assert margin_outcome(criterion_min_margin, f, p, grid) == want, (f.sign, p, grid)
            seen.add(want[1].split(" at ")[0] if isinstance(want, tuple) else "margin")
    assert seen == {
        "margin",
        "series coefficients must be finite",
        "kernel coefficient overflows",
        "Ruscheweyh transform vanishes",
    }
