import pytest

from qstarlike import (
    ClassParams,
    DegenerateDenominatorError,
    DiscPoint,
    PowerSeries,
    SampleGrid,
    Sign,
    Verdict,
    analytic_criterion_margin,
    coefficient_test,
    criterion_min_margin,
    criterion_weight,
    extremal_function,
    random_member,
)

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
    report = coefficient_test(PowerSeries.identity(8), p)
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
    # f(z) = z gives ratio exactly 1, so margin is 1 - alpha everywhere
    f = PowerSeries.identity(6)
    for alpha in (0.0, 0.25, 0.75):
        p = ClassParams(q=0.4, lam=1.0, alpha=alpha, k=2.0, trunc=6)
        m = analytic_criterion_margin(f, p, DiscPoint(0.7, 1.2))
        assert m == pytest.approx(1.0 - alpha, abs=1e-14)


def test_criterion_margin_extremal_members_nonnegative():
    for p in PARAM_GRID[::5]:
        f = extremal_function(2, p)
        assert criterion_min_margin(f, p) >= -1e-9


def test_criterion_margin_detects_failure():
    # z - 2 z^2 violates starlikeness inside the disc; the failure shows on
    # the positive real axis between the zero of f' and the zero of f
    p = ClassParams(q=NEAR_ONE, trunc=2)
    f = PowerSeries((2.0,), Sign.MINUS)
    assert analytic_criterion_margin(f, p, DiscPoint(0.4, 0.0)) < 0.0
    # f vanishes at z = 0.5, which sits on the default grid and is reported
    with pytest.raises(DegenerateDenominatorError):
        criterion_min_margin(f, p)
    assert criterion_min_margin(f, p, SampleGrid((0.3, 0.4, 0.45), 64)) < 0.0


def test_criterion_margin_degenerate_denominator():
    # R f vanishes at z = 0.8 for f = z - 1.25 z^2
    p = ClassParams(q=0.5, trunc=2)
    f = PowerSeries((1.25,), Sign.MINUS)
    with pytest.raises(DegenerateDenominatorError):
        analytic_criterion_margin(f, p, DiscPoint(0.8, 0.0))
    with pytest.raises(DegenerateDenominatorError):
        analytic_criterion_margin(f, p, DiscPoint(0.0, 0.0))


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
