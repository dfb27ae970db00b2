import re
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qstarlike import (
    ClassParams,
    PowerSeries,
    QuadratureConfig,
    SampleGrid,
    Sign,
    WILF_RADII,
    coefficient_test,
    criterion_min_margin,
    default_nodes,
    extremal_function,
    integral_means,
    min_real_part,
    poly_eval,
    random_member,
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
from qstarlike import analysis, series
from qstarlike.analysis import _integrals, sweep_to_csv
from qstarlike.qcore import criterion_weight
from reference import circle_integral
from reference import sweep_integral_means as stacked_sweep

NEAR_ONE = 1.0 - 1.0e-6

MEMBER_PARAMS = [
    ClassParams(q=q, lam=lam, alpha=alpha, k=k, trunc=16)
    for q in (0.3, 0.6, 0.9)
    for lam in (0.0, 1.0, 2.5)
    for alpha in (0.0, 0.3)
    for k in (0.0, 2.0)
]


@pytest.fixture(autouse=True)
def cold_memos():
    # the sweep keeps the integrals of f_2 from its last call and the ring
    # its r^n tables; every test starts without them, so no test depends on
    # the ones run before it
    analysis._extremal_integrals.cache_clear()
    series._powers.cache_clear()


def parseval_value(f: PowerSeries, r: float) -> float:
    coeffs = f.full()
    powers = np.arange(len(coeffs))
    return float(2.0 * np.pi * np.sum(coeffs**2 * r ** (2 * powers)))


def integral_tolerance(eta: float, modulus: np.ndarray) -> np.ndarray:
    """Relative distance allowed, per ring of moduli m, between an integral
    from the log-modulus and the pow reference: 8 eps (2 + eta max|log m| +
    log2 nodes).  exp turns the rounding of eta log m, relative eps, into a
    relative error of eta |log m| eps; log, exp and pow add a few ulps; and
    each pairwise sum adds about log2 nodes roundings.  An m of 0 is a node
    of value exactly 0 in both and adds no error."""
    with np.errstate(divide="ignore"):
        log_modulus = np.log(modulus)
    finite = np.where(np.isfinite(log_modulus), np.abs(log_modulus), 0.0)
    nodes = 2 * (modulus.shape[-1] - 1)
    return 8.0 * np.finfo(float).eps * (2.0 + eta * np.max(finite, axis=-1) + np.log2(nodes))


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
    with pytest.raises(ValueError, match="^eta must be finite"):
        QuadratureConfig(eta=np.inf)
    QuadratureConfig(nodes=2**20)
    for nodes in (2**21, 256.0, True):
        with pytest.raises(ValueError, match=rf"^nodes must be a power of two in \[16, 1048576\], got {nodes}$"):
            QuadratureConfig(nodes=nodes)


def test_default_nodes():
    assert default_nodes(16) == 256
    assert default_nodes(64) == 256
    assert default_nodes(100) == 512
    assert default_nodes(256) == 1024


def test_integral_means_identity():
    cfg = QuadratureConfig(nodes=256, r=0.5, eta=2.0)
    value = integral_means(PowerSeries((0.0,) * 3), cfg)
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


def test_circle_integral_overflow_is_a_value_error():
    # |f|^2 overflows at 1e200; at 1e308 and eta = 1 the power is finite and
    # the node sum overflows; neither may leak a warning or return inf
    cfg = QuadratureConfig(nodes=256, r=0.5, eta=2.0)
    with pytest.raises(ValueError, match="overflows"):
        integral_means(PowerSeries((1e200,)), cfg)
    p = ClassParams(q=0.5, trunc=8)
    with pytest.raises(ValueError, match="overflows"):
        sweep_integral_means(PowerSeries((1e308,)), p, (0.5,), (1.0,), nodes=256)


def test_circle_integral_underflow_is_a_value_error():
    # |f|**eta underflows to 0 at every node, so an integral of 0 would make
    # the comparison vacuous; 0.5**1100 is below the smallest normal float
    cfg = QuadratureConfig(nodes=256, r=0.5, eta=1e308)
    with pytest.raises(ValueError, match="underflows"):
        integral_means(PowerSeries((0.5,), Sign.MINUS), cfg)
    p = ClassParams(q=0.5, trunc=8)
    with pytest.raises(ValueError, match="underflows"):
        sweep_integral_means(PowerSeries((0.0,) * 7), p, (0.5,), (2.0, 1100.0), nodes=256)


def test_integral_means_self_convergence():
    f = PowerSeries((0.5,), Sign.MINUS)
    coarse = integral_means(f, QuadratureConfig(nodes=2048, r=0.9, eta=1.0))
    fine = integral_means(f, QuadratureConfig(nodes=4096, r=0.9, eta=1.0))
    assert abs(coarse - fine) / fine < 1e-10


def test_circle_integral_matches_the_pow_reference():
    # members and random series, radii up to 0.999 and eta up to 40, at the
    # smallest, the benchmark's and a larger node count
    rng = np.random.default_rng(2121)
    radii = (0.1, 0.5, 0.9, 0.999)
    etas = (0.01, 0.5, 1.0, 2.0, 3.7, 12.0, 40.0)
    checked = 0
    for p in MEMBER_PARAMS[::6] + [ClassParams(q=0.5, lam=1.0, alpha=0.3, k=2.0, trunc=64)]:
        n = np.arange(2.0, p.trunc + 1.0)
        stack = np.stack((random_member(p, seed=int(rng.integers(2**31))).full(),
                          PowerSeries(rng.uniform(-1.0, 1.0, n.size) / n**2).full()))
        for nodes in (16, 4096, 2**14):
            modulus = np.abs(SampleGrid(radii, nodes).values(stack))
            got = _integrals(stack, radii, etas, nodes)
            assert got.shape == (len(etas), 2, len(radii))
            for eta, integral in zip(etas, got):
                want = circle_integral(modulus, eta)
                assert np.all(np.abs(integral - want) <= integral_tolerance(eta, modulus) * want)
                checked += want.size
    assert checked == 7 * 3 * len(etas) * 2 * len(radii)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    nodes=st.sampled_from([2**e for e in range(4, 13)]),
    radii=st.lists(st.floats(0.01, 0.999), min_size=1, max_size=4),
    etas=st.lists(st.floats(0.01, 40.0), min_size=1, max_size=4),
)
def test_batched_integrals_equal_single_calls_bit_for_bit(seed, nodes, radii, etas):
    # the sweep integrates every radius and eta of f and f_2 from one stack;
    # each row must be the single-circle value exactly, whatever the batch
    # shape, so f = f_2 gives lhs == rhs in every row
    p = ClassParams(q=0.5, lam=1.0, trunc=64)
    f, f2 = random_member(p, seed), extremal_function(2, p)
    for row in sweep_integral_means(f, p, radii, etas, nodes):
        cfg = QuadratureConfig(nodes=nodes, r=row.r, eta=row.eta)
        assert (row.lhs, row.rhs) == (integral_means(f, cfg), integral_means(f2, cfg))
    assert all(row.lhs == row.rhs for row in sweep_integral_means(f2, p, radii, etas, nodes))


def test_a_zero_on_the_ring_integrates_without_a_warning():
    # f(z) = z - 2 z^2 vanishes at z = 0.5, the first node of the r = 0.5
    # ring: log 0 = -inf, and exp(-inf) = 0 is the exact 0**eta
    f = PowerSeries((-2.0,))
    (ring,) = SampleGrid((0.5,), 256).values(f.full())
    assert ring[0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eta in (0.5, 2.0):
            got = integral_means(f, QuadratureConfig(nodes=256, r=0.5, eta=eta))
            want = circle_integral(np.abs(ring), eta)
            assert abs(got - want) <= integral_tolerance(eta, np.abs(ring)) * want


def test_verify_integral_means_reflexive_case():
    p = ClassParams(q=0.5, trunc=8)
    f2 = extremal_function(2, p)
    cmp = verify_integral_means(f2, p, QuadratureConfig(nodes=256, r=0.7, eta=1.5))
    assert cmp.lhs == cmp.rhs
    assert cmp.certified and cmp.holds


def test_verify_integral_means_identity_below_extremal():
    p = ClassParams(q=0.5, trunc=8)
    cmp = verify_integral_means(
        PowerSeries((0.0,) * 7), p, QuadratureConfig(nodes=256, r=0.5, eta=2.0)
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
                lhs = circle_mean(lambda z: poly_eval(g.full(), w(z)), r, eta, nodes)
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
    assert min_real_part(PowerSeries((0.0,) * 3)) > realpart_bound(ClassParams(q=0.5))


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
        want = float(np.min(poly_eval(f.full(), points).real))
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
    # the sampled minimum over a 4096-node ring of the full-length f_2; node
    # 2048 is theta = pi, so the ring's minimum is the same point
    for q in (1e-6, 0.5, 0.99, NEAR_ONE):
        for lam in (-0.99, 0.0, 50.0):
            for alpha, k in ((0.0, 0.0), (0.3, 1.0), (0.9, 5.0)):
                p = ClassParams(q=q, lam=lam, alpha=alpha, k=k)
                c = subordination_constant(p)
                f2 = extremal_function(2, p).full()
                for r in (0.1, 0.5, 0.9, 0.99, 0.9999):
                    sampled = c * float(np.min(SampleGrid((r,), 4096).values(f2).real))
                    assert sharpness_minimum(p, r) == pytest.approx(sampled, rel=1e-15)


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
    doc = asdict(report)
    assert set(doc) == {"constant", "realpart_bound", "wilf_min", "sharpness_min", "min_real_part"}
    # one sampling of Re f; Re(1 + 2 sum c a_n z^n) = 1 + 2c Re f gives the Wilf minimum
    grid = SampleGrid(WILF_RADII + (0.999,), 512)
    assert report.min_real_part == min_real_part(f, grid)
    assert report.wilf_min == pytest.approx(wilf_positivity(wilf_sequence(f, p), grid), abs=1e-14)
    assert report.holds


def test_subordination_verdict_is_the_real_part_bound():
    # wilf_min = 1 + 2c min_real_part and realpart_bound = -1/(2c) with c > 0,
    # so wilf_min > 0 is the inequality holds states, and the closed-form
    # sharpness minimum stays above -1/2 for every r < 1
    rng = np.random.default_rng(2024)
    outcomes, reports = set(), 0
    for i in range(400):
        p = ClassParams(
            q=float(rng.uniform(1e-6, 1.0 - 1e-6)),
            lam=float(rng.uniform(-0.999, 49.0)),
            alpha=float(rng.uniform(0.0, 0.999)),
            k=float((0.0, rng.uniform(0.0, 5.0), 1e17, 1e300)[i % 4]),
            trunc=int(rng.integers(4, 65)),
        )
        try:
            if i % 3 == 0:
                f = random_member(p, seed=i, density=float(rng.uniform(0.05, 1.0)))
            elif i % 3 == 1:
                f = extremal_function(int(rng.integers(2, p.trunc + 1)), p)
            else:  # forced uncertified series, mostly far over budget
                scale = 10.0 ** rng.uniform(-1.0, 1.0)
                f = PowerSeries(tuple(scale * rng.random(p.trunc - 1)), Sign.MINUS)
            report = subordination_report(f, p)
        except ValueError:  # weights beyond the float range at k = 1e300
            continue
        assert report.holds == (report.min_real_part > report.realpart_bound)
        assert report.holds == (report.wilf_min > 0.0)
        assert -0.5 < report.sharpness_min
        outcomes.add(report.holds)
        reports += 1
    assert reports >= 300
    assert outcomes == {True, False}


def test_one_params_object_builds_its_kernel_once(monkeypatch):
    # every step of a certification slices the tables of its ClassParams
    from qstarlike import qcore

    calls = []
    kernel_coeffs = qcore.kernel_coeffs

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel_coeffs(*args, **kwargs)

    monkeypatch.setattr(qcore, "kernel_coeffs", counted)
    p = ClassParams(q=0.5, lam=1.0, alpha=0.3, k=2.0, trunc=256)
    f = random_member(p, seed=3)
    assert coefficient_test(f, p).verdict.value == "SUFFICIENT_PASS"
    criterion_min_margin(f, p)
    assert verify_integral_means(f, p, QuadratureConfig(nodes=default_nodes(f.order))).holds
    assert subordination_report(f, p).holds
    assert calls == [(1.0, 0.5, 256)]


def test_a_second_member_builds_no_power_table():
    # one certification and its consequences at one parameter set, as a
    # certify_shared op runs them, build each r^n table they ring with; a
    # second member at those parameters finds every one kept
    p = ClassParams(q=0.5, lam=1.0, trunc=256)

    def certify(seed):
        f = random_member(p, seed)
        coefficient_test(f, p)
        criterion_min_margin(f, p)
        verify_integral_means(f, p, QuadratureConfig(nodes=default_nodes(p.trunc)))
        subordination_report(f, p)
        min_real_part(f)

    certify(1)
    # f's order on the default grid (the criterion and min_real_part), on
    # the subordination grid and at the one-cell sweep's radius, where
    # f_2's order is rung once
    assert series._powers.cache_info().misses == 4
    certify(2)
    assert series._powers.cache_info().misses == 4


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
        cmp = verify_integral_means(f, p, cfg)
        assert (cmp.lhs, cmp.rhs, cmp.holds) == (row.lhs, row.rhs, row.holds)


def sweep_outcome(sweep, f, params, grid):
    """The rows of one sweep as bytes, or the message of its refusal."""
    try:
        return np.array(sweep(f, params, *grid)).tobytes()
    except ValueError as err:
        return str(err)


SWEEP_PARAMS = st.builds(
    ClassParams,
    q=st.floats(0.05, 0.95),
    lam=st.floats(0.0, 3.0),
    alpha=st.floats(0.0, 0.9),
    k=st.floats(0.0, 3.0),
    trunc=st.integers(2, 1024),
)
SWEEP_GRID = st.tuples(
    st.lists(st.floats(0.01, 0.999), min_size=1, max_size=5),
    st.lists(st.floats(0.01, 40.0), min_size=1, max_size=4),
    st.sampled_from([2**e for e in range(4, 13)]),
)


@settings(max_examples=150, deadline=None)
@example(  # both sides underflow at r = 0.01, eta = 200 on the first grid
    p1=ClassParams(q=0.5, lam=1.0, trunc=64),
    p2=ClassParams(q=0.9, lam=0.0, alpha=0.5, trunc=2),
    grids=[((0.01, 0.5), (2.0, 200.0), 16), ((0.5,), (2.0,), 4096)],
    member="plus",
    seed=0,
)
@given(
    p1=SWEEP_PARAMS,
    p2=SWEEP_PARAMS,
    grids=st.lists(SWEEP_GRID, min_size=2, max_size=2),
    member=st.sampled_from(["random", "extremal", "plus"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_sweep_rows_equal_the_stacked_reference_bit_for_bit(p1, p2, grids, member, seed):
    # f_2's integrals are kept between calls; rows and refusals must be the
    # ones of ringing f and f_2 together, on every grid, after a sweep at
    # other parameters (p1, p2, p1) and after one on another grid.  A trunc
    # above the node count takes the folded ring.
    for grid in grids:
        for p in (p1, p2, p1):
            f = random_member(p, seed)
            if member == "extremal":
                f = extremal_function(2, p)
            elif member == "plus":
                f = PowerSeries(f.coeffs, Sign.PLUS)
            got = sweep_outcome(sweep_integral_means, f, p, grid)
            assert got == sweep_outcome(stacked_sweep, f, p, grid)


def test_the_extremal_side_is_ringed_once_per_params_and_grid(monkeypatch):
    # a sweep rings f_2 only when (a, radii, etas, nodes) differs from the
    # last sweep's; a trunc that leaves a unchanged shares its integrals
    calls = []
    ring = analysis._ring

    def counted(*args):
        calls.append(args)
        return ring(*args)

    monkeypatch.setattr(analysis, "_ring", counted)

    def ring_calls(p, radii, etas, nodes, seed=1):
        calls.clear()
        sweep_integral_means(random_member(p, seed), p, radii, etas, nodes)
        return len(calls)

    p, grid = ClassParams(q=0.5, lam=1.0, trunc=64), ((0.25, 0.5), (1.0, 2.0), 256)
    assert ring_calls(p, *grid) == 2
    assert ring_calls(p, *grid, seed=2) == 1
    assert ring_calls(ClassParams(q=0.5, lam=1.0, trunc=32), *grid) == 1
    for changed in [
        (ClassParams(q=0.5, lam=2.0, trunc=64), *grid),
        (p, (0.25, 0.75), (1.0, 2.0), 256),
        (p, (0.25, 0.5), (1.0, 3.0), 256),
        (p, (0.25, 0.5), (1.0, 2.0), 512),
    ]:
        assert ring_calls(*changed) == 2
        assert ring_calls(p, *grid) == 2


def test_the_kept_extremal_integrals_are_read_only():
    p = ClassParams(q=0.5, lam=1.0, trunc=64)
    sweep_integral_means(random_member(p, 1), p, (0.5,), (2.0,), 256)
    kept = analysis._extremal_integrals(analysis._extremal_coeff(2, p), (0.5,), (2.0,), 256)
    assert analysis._extremal_integrals.cache_info().hits == 1
    with pytest.raises(ValueError):
        kept[0, 0] = 0.0


@pytest.mark.parametrize(
    "r_values, eta_values, nodes",
    [((0.5, 1.0), (2.0,), 256), ((0.5,), (2.0, 0.0), 256), ((0.5,), (2.0,), 100)],
)
def test_sweep_validates_radii_etas_and_nodes(r_values, eta_values, nodes):
    p = ClassParams(q=0.5, trunc=8)
    with pytest.raises(ValueError):
        sweep_integral_means(PowerSeries((0.0,) * 7), p, r_values, eta_values, nodes=nodes)


@pytest.mark.parametrize(
    "r_values, eta_values, nodes, message",
    [
        ([], [], 100, "r_values must not be empty"),
        ([], [-1.0], 100, "nodes must be a power of two in [16, 1048576], got 100"),
        ([2.0], [-1.0], 100, "nodes must be a power of two in [16, 1048576], got 100"),
        ([0.5], [], 100, "nodes must be a power of two in [16, 1048576], got 100"),
        ([], [-1.0], 256, "eta must be > 0, got -1.0"),
        ([0.5], [], 256, "eta_values must not be empty"),
        ([2.0], [-1.0], 256, "r must lie in (0, 1), got 2.0"),
        ([0.5, 2.0, -1.0], [np.inf], 256, "r must lie in (0, 1), got 2.0"),
        ([0.5], [2.0, np.inf, -1.0], 256, "eta must be finite, got inf"),
        ([0.5], [np.nan], 256, "eta must be > 0, got nan"),
        ([np.float32(0.5), 1], [2], 256, "r must lie in (0, 1), got 1.0"),
    ],
)
def test_sweep_names_its_first_bad_input(r_values, eta_values, nodes, message):
    # nodes is checked once, at the first radius or eta, then each value
    # in turn by the QuadratureConfig rules, and an empty list last
    p, f = ClassParams(q=0.5, trunc=8), PowerSeries((0.0,) * 7)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sweep_integral_means(f, p, r_values, eta_values, nodes=nodes)


def test_sweep_refuses_an_empty_grid():
    # no rows would make all(row.holds) vacuously true; the refusal names
    # the empty argument, r_values first
    p, f = ClassParams(q=0.5, trunc=8), PowerSeries((0.0,) * 7)
    for r_values, eta_values, name in [
        ([], [1.0], "r_values"), ((0.5,), (), "eta_values"), ([], [], "r_values"),
    ]:
        with pytest.raises(ValueError, match=rf"^{name} must not be empty$"):
            sweep_integral_means(f, p, r_values, eta_values, nodes=256)
