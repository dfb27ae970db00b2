import numpy as np
import pytest

from qstarlike import (
    ClassParams,
    ConvexComparison,
    HALF_PLANE_COMPARISON,
    PowerSeries,
    QuadratureConfig,
    SampleGrid,
    Sign,
    UnsupportedComparisonError,
    WILF_RADII,
    check_subordination,
    coefficient_test,
    criterion_weight,
    default_nodes,
    evaluate,
    extremal_function,
    integral_means,
    min_real_part,
    random_member,
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

NEAR_ONE = 1.0 - 1.0e-6

MEMBER_PARAMS = [
    ClassParams(q=q, lam=lam, alpha=alpha, k=k, trunc=16)
    for q in (0.3, 0.6, 0.9)
    for lam in (0.0, 1.0, 2.5)
    for alpha in (0.0, 0.3)
    for k in (0.0, 2.0)
]


def parseval_value(f: PowerSeries, r: float) -> float:
    coeffs = f.full()
    powers = np.arange(len(coeffs))
    return float(2.0 * np.pi * np.sum(coeffs**2 * r ** (2 * powers)))


def circle_mean(fn, r: float, eta: float, nodes: int) -> float:
    # test-local quadrature oracle, independent of the module under test
    theta = np.arange(nodes) * (2.0 * np.pi / nodes)
    return float(np.sum(np.abs(fn(r * np.exp(1j * theta))) ** eta) * 2.0 * np.pi / nodes)


def test_quadrature_config_validation():
    QuadratureConfig(nodes=16, r=0.5, eta=1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(nodes=100)
    with pytest.raises(ValueError):
        QuadratureConfig(nodes=8)
    with pytest.raises(ValueError):
        QuadratureConfig(r=1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(eta=0.0)


def test_default_nodes():
    assert default_nodes(16) == 256
    assert default_nodes(64) == 256
    assert default_nodes(100) == 512
    assert default_nodes(256) == 1024


def test_integral_means_identity():
    cfg = QuadratureConfig(nodes=256, r=0.5, eta=2.0)
    value = integral_means(PowerSeries.identity(4), cfg)
    assert value == pytest.approx(2.0 * np.pi * 0.25, rel=1e-12)


def test_integral_means_matches_parseval():
    f = PowerSeries((0.5,), Sign.MINUS)
    cfg = QuadratureConfig(nodes=256, r=0.5, eta=2.0)
    assert integral_means(f, cfg) == pytest.approx(1.6689710972195777, rel=1e-8)
    rng = np.random.default_rng(21)
    for _ in range(10):
        g = PowerSeries(tuple(rng.uniform(-1, 1, 15)))
        for r in (0.25, 0.6, 0.9):
            approx = integral_means(g, QuadratureConfig(nodes=256, r=r, eta=2.0))
            assert approx == pytest.approx(parseval_value(g, r), rel=1e-8)


def test_integral_means_exact_parseval_at_sixteen_nodes():
    # degree 15 < 16 nodes: the trapezoid rule is exact for |f|^2, so only
    # the half-ring weights 1, 2, ..., 2, 1 separate the sum from Parseval
    rng = np.random.default_rng(16)
    for sign in (Sign.PLUS, Sign.MINUS):
        g = PowerSeries(tuple(rng.uniform(0.0, 1.0, 14)), sign)
        for r in (0.3, 0.9, 0.999):
            approx = integral_means(g, QuadratureConfig(nodes=16, r=r, eta=2.0))
            assert approx == pytest.approx(parseval_value(g, r), rel=1e-13)


def test_integral_means_self_convergence():
    f = PowerSeries((0.5,), Sign.MINUS)
    coarse = integral_means(f, QuadratureConfig(nodes=2048, r=0.9, eta=1.0))
    fine = integral_means(f, QuadratureConfig(nodes=4096, r=0.9, eta=1.0))
    assert abs(coarse - fine) / fine < 1e-10


def test_verify_integral_means_reflexive_case():
    p = ClassParams(q=0.5, trunc=8)
    f2 = extremal_function(2, p)
    cmp = verify_integral_means(f2, p, QuadratureConfig(nodes=256, r=0.7, eta=1.5))
    assert cmp.lhs == cmp.rhs
    assert cmp.certified and cmp.holds


def test_verify_integral_means_identity_below_extremal():
    p = ClassParams(q=0.5, trunc=8)
    cmp = verify_integral_means(
        PowerSeries.identity(8), p, QuadratureConfig(nodes=256, r=0.5, eta=2.0)
    )
    assert cmp.certified and cmp.holds
    assert cmp.lhs == pytest.approx(2.0 * np.pi * 0.25, rel=1e-12)
    assert cmp.lhs < cmp.rhs


def test_verify_integral_means_flags_uncertified_and_violations():
    p = ClassParams(q=NEAR_ONE, trunc=2)
    f = PowerSeries((2.0,), Sign.MINUS)  # fails the coefficient test
    cmp = verify_integral_means(f, p, QuadratureConfig(nodes=256, r=0.9, eta=2.0))
    assert not cmp.certified
    assert not cmp.holds


def test_integral_means_ordering_for_members():
    for i, p in enumerate(MEMBER_PARAMS[::6]):
        f = random_member(p, seed=50 + i, density=1.0)
        for r in (0.3, 0.75, 0.95):
            for eta in (0.5, 2.0):
                cmp = verify_integral_means(f, p, QuadratureConfig(256, r, eta))
                assert cmp.certified and cmp.holds


def test_littlewood_ordering_for_composed_pairs():
    # g(w(z)) with a polynomial Schwarz factor never beats g in circle means
    rng = np.random.default_rng(17)
    coeffs = rng.uniform(-0.5, 0.5, 6)
    g = PowerSeries(tuple(coeffs))
    witnesses = [lambda z: z**2, lambda z: z**3, lambda z: 0.5 * (z + z**2)]
    for w in witnesses:
        for r in (0.3, 0.6, 0.9):
            for eta in (0.5, 1.0, 2.0, 3.0):
                nodes = 1024
                lhs = circle_mean(lambda z: evaluate(g, w(z)), r, eta, nodes)
                rhs = integral_means(g, QuadratureConfig(nodes, r, eta))
                assert lhs <= rhs * (1.0 + 1e-9)


def test_schwarz_witness_identity_series():
    p = ClassParams(q=0.5, trunc=6)
    w = schwarz_witness(PowerSeries((0.0,) * 5, Sign.MINUS), p)
    assert not w.any()


def test_schwarz_witness_extremal_cancellation():
    for p in (ClassParams(q=0.5, trunc=8), ClassParams(q=0.8, lam=1.0, alpha=0.4, k=1.0, trunc=8)):
        w = schwarz_witness(extremal_function(2, p), p)
        assert w[0] == 0.0
        assert w[1] == pytest.approx(1.0, rel=1e-14)
        assert not w[2:].any()


def test_schwarz_witness_requires_minus_convention():
    p = ClassParams(q=0.5, trunc=4)
    with pytest.raises(ValueError):
        schwarz_witness(PowerSeries((0.1, 0.1, 0.1)), p)


def test_schwarz_witness_bounded_by_modulus():
    from qstarlike import poly_eval

    rng = np.random.default_rng(23)
    for i, p in enumerate(MEMBER_PARAMS[::4]):
        f = random_member(p, seed=300 + i, density=1.0)
        w = schwarz_witness(f, p)
        assert poly_eval(w, 0j) == 0.0
        z = rng.uniform(0.05, 0.99, 100) * np.exp(2j * np.pi * rng.random(100))
        assert np.all(np.abs(poly_eval(w, z)) <= np.abs(z) + 1e-12)


def test_wilf_positivity_trivial_sequences():
    assert wilf_positivity(np.zeros(5)) == 1.0
    grid = SampleGrid(WILF_RADII, 64)
    assert wilf_positivity(np.array([1.0]), grid) == pytest.approx(-0.98, abs=1e-12)


def test_wilf_positivity_for_members():
    grid = SampleGrid(WILF_RADII, 64)
    for i, p in enumerate(MEMBER_PARAMS[::5]):
        f = random_member(p, seed=400 + i, density=1.0)
        assert wilf_positivity(wilf_sequence(f, p), grid) > 0.0


def test_subordination_constant_values():
    assert subordination_constant(ClassParams(q=NEAR_ONE)) == pytest.approx(
        1.0 / 3.0, abs=1e-5
    )
    assert subordination_constant(ClassParams(q=0.5, k=1.0)) == pytest.approx(
        1.0 / 3.0, rel=1e-14
    )
    near_half = subordination_constant(ClassParams(q=0.5, alpha=0.999))
    assert 0.49 < near_half < 0.5


def test_realpart_bound_values():
    assert realpart_bound(ClassParams(q=NEAR_ONE)) == pytest.approx(-1.5, abs=1e-5)
    assert min_real_part(PowerSeries.identity(4)) > realpart_bound(ClassParams(q=0.5))


@pytest.mark.parametrize("n_angles", [1, 7])
def test_min_real_part_odd_grid_matches_full_horner_grid(n_angles):
    # an odd ring has no node at theta = pi; the half ring must still carry
    # the whole grid's minimum
    radii = (0.3, 0.7, 0.95)
    grid = SampleGrid(radii, n_angles)
    theta = 2.0 * np.pi * np.arange(n_angles) / n_angles
    points = np.outer(radii, np.exp(1j * theta))
    for seed in range(5):
        f = PowerSeries(tuple(np.random.default_rng(seed).uniform(-1.0, 1.0, 9)))
        want = float(np.min(evaluate(f, points).real))
        assert min_real_part(f, grid) == pytest.approx(want, rel=1e-14, abs=1e-15)


def test_realpart_bound_respected_by_members():
    grid = SampleGrid(WILF_RADII + (0.999,), 512)
    for i, p in enumerate(MEMBER_PARAMS[::7]):
        f = random_member(p, seed=500 + i, density=1.0)
        assert min_real_part(f, grid) > realpart_bound(p)


def test_sharpness_minimum_profile():
    p = ClassParams(q=NEAR_ONE, trunc=8)
    assert sharpness_minimum(p, 0.1) > -0.1
    assert sharpness_minimum(p, 0.9999) == pytest.approx(-0.5, abs=5e-3)
    values = [sharpness_minimum(p, r) for r in (0.9, 0.99, 0.999)]
    assert values[0] > values[1] > values[2] > -0.5
    for r in (0.1, 0.5, 0.9, 0.999, 0.9999):
        assert sharpness_minimum(p, r) >= -0.5 - 1e-9


def test_sharpness_minimum_matches_closed_form():
    # the circle minimum is attained at theta = pi:
    # min = -c (r + beta r^2), beta the extremal coefficient
    for p in (ClassParams(q=0.5, trunc=8), ClassParams(q=0.7, lam=1.5, alpha=0.2, k=0.5, trunc=8)):
        c = subordination_constant(p)
        beta = (1.0 - p.alpha) / criterion_weight(2, p)
        for r in (0.3, 0.8, 0.99):
            assert sharpness_minimum(p, r) == pytest.approx(
                -c * (r + beta * r * r), rel=1e-12
            )


def test_sharpness_minimum_rejects_bad_radius():
    with pytest.raises(ValueError):
        sharpness_minimum(ClassParams(q=0.5), 1.0)


def test_subordination_report_fields():
    p = ClassParams(q=0.5, lam=1.0, alpha=0.25, k=0.5, trunc=16)
    f = random_member(p, seed=8, density=1.0)
    report = subordination_report(f, p)
    assert 0.0 < report.constant < 0.5
    assert report.realpart_bound < -1.0
    assert report.wilf_min > 0.0
    assert report.sharpness_min == pytest.approx(-0.5, abs=2e-2)
    doc = report.to_dict()
    assert set(doc) == {"constant", "realpart_bound", "wilf_min", "sharpness_min"}


def test_check_subordination_reflexive():
    evidence = check_subordination(HALF_PLANE_COMPARISON.apply)
    assert evidence.origin_ok
    assert evidence.passed


def test_check_subordination_square_witness():
    evidence = check_subordination(lambda z: HALF_PLANE_COMPARISON.apply(z**2))
    assert evidence.passed


def test_check_subordination_sharp_member():
    grid = SampleGrid(WILF_RADII, 64)
    for p in (ClassParams(q=0.5, trunc=8), ClassParams(q=0.9, lam=1.0, alpha=0.3, k=1.0, trunc=8)):
        c = subordination_constant(p)
        f2 = extremal_function(2, p)
        evidence = check_subordination(lambda z: c * evaluate(f2, z), grid=grid)
        assert evidence.passed


def test_check_subordination_detects_violation():
    evidence = check_subordination(lambda z: 2.0 * HALF_PLANE_COMPARISON.apply(z))
    assert not evidence.passed


def test_check_subordination_accepts_power_series():
    f = PowerSeries((1.0,) * 12)  # truncated z/(1-z)
    grid = SampleGrid((0.2, 0.5), 32)
    via_series = check_subordination(f, grid=grid)
    via_callable = check_subordination(lambda z: evaluate(f, z), grid=grid)
    assert via_series == via_callable
    # the truncation tail is visible to the check: inside tolerance at the
    # small radius, an honest excess at the fat one
    assert via_series.per_radius[0][1] <= 0.2 + 1e-9
    assert via_series.per_radius[1][1] > 0.5


@pytest.mark.parametrize("n_angles", [1, 7, 32, 33])
def test_check_subordination_series_branch_matches_full_ring(n_angles):
    grid = SampleGrid((0.2, 0.5, 0.9), n_angles)
    for seed in range(4):
        f = PowerSeries(tuple(np.random.default_rng(seed).uniform(-0.5, 0.5, 10)))
        via_series = check_subordination(f, grid=grid)
        via_callable = check_subordination(lambda z: evaluate(f, z), grid=grid)
        assert via_series.origin_ok == via_callable.origin_ok
        assert via_series.passed == via_callable.passed
        for (r, got), (r_full, want) in zip(via_series.per_radius, via_callable.per_radius):
            assert r == r_full
            assert got == pytest.approx(want, rel=1e-14)


def test_check_subordination_requires_inverse():
    bare = ConvexComparison("mystery", apply=lambda z: z)
    with pytest.raises(UnsupportedComparisonError):
        check_subordination(lambda z: z, comparison=bare)


def test_sweep_rows_and_csv():
    p = ClassParams(q=0.5, trunc=8)
    f = random_member(p, seed=2, density=0.5)
    rows = sweep_integral_means(f, p, (0.25, 0.5), (1.0, 2.0), nodes=256)
    assert len(rows) == 4
    assert all(row.margin == row.rhs - row.lhs for row in rows)
    assert all(row.lhs <= row.rhs * (1.0 + 1e-9) for row in rows)
    text = sweep_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "r,eta,lhs,rhs,margin"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.25 and float(first[1]) == 1.0


def test_sweep_rows_match_integral_means():
    # one batched evaluation for all radii gives each row exactly the value
    # of the single-circle integral at its (r, eta)
    p = ClassParams(q=0.5, lam=1.0, trunc=64)
    f = random_member(p, seed=3)
    f2 = extremal_function(2, p)
    r_values, eta_values = (0.25, 0.5, 0.95), (0.5, 1.0, 2.0, 3.0)
    rows = sweep_integral_means(f, p, r_values, eta_values, nodes=256)
    assert [(row.r, row.eta) for row in rows] == [(r, e) for r in r_values for e in eta_values]
    for row in rows:
        cfg = QuadratureConfig(nodes=256, r=row.r, eta=row.eta)
        assert row.lhs == integral_means(f, cfg)
        assert row.rhs == integral_means(f2, cfg)
        assert row.margin == row.rhs - row.lhs


@pytest.mark.parametrize(
    "r_values, eta_values, nodes",
    [((0.5, 1.0), (2.0,), 256), ((0.5,), (2.0, 0.0), 256), ((0.5,), (2.0,), 100)],
)
def test_sweep_validates_radii_etas_and_nodes(r_values, eta_values, nodes):
    p = ClassParams(q=0.5, trunc=8)
    with pytest.raises(ValueError):
        sweep_integral_means(PowerSeries.identity(8), p, r_values, eta_values, nodes=nodes)
