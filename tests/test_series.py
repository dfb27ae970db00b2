import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstarlike import (
    ClassParams,
    DiscPoint,
    PowerSeries,
    SampleGrid,
    Sign,
    basic_number,
    evaluate,
    hadamard,
    poly_eval,
    q_derivative,
    ruscheweyh,
    ruscheweyh_kernel,
    ruscheweyh_q_derivative,
)
from qstarlike.series import ring_values

NEAR_ONE = 1.0 - 1.0e-6
EPS = np.finfo(float).eps


def test_identity_series():
    f = PowerSeries.identity(8)
    assert f.order == 8
    assert evaluate(f, 0.5j) == 0.5j


def test_evaluate_direct_substitution():
    f = PowerSeries((0.5,), Sign.MINUS)
    assert evaluate(f, 0.5) == pytest.approx(0.375, abs=1e-15)
    g = PowerSeries((1.0, 1.0))
    assert evaluate(g, 0.1) == pytest.approx(0.111, abs=1e-15)


def test_evaluate_matches_term_sum():
    rng = np.random.default_rng(7)
    coeffs = rng.uniform(-1.0, 1.0, 12)
    f = PowerSeries(tuple(coeffs))
    for _ in range(20):
        z = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.random())
        expected = z + sum(c * z**n for n, c in enumerate(coeffs, start=2))
        assert evaluate(f, z) == pytest.approx(expected, rel=1e-13)


def test_evaluate_rejects_outside_disc():
    f = PowerSeries.identity(4)
    with pytest.raises(ValueError):
        evaluate(f, 1.0)
    with pytest.raises(ValueError):
        evaluate(f, np.array([0.5, 1.2j]))


def test_evaluate_vectorized_matches_scalar():
    f = PowerSeries((0.3, -0.2, 0.1))
    z = np.array([0.1, 0.5j, -0.3 + 0.4j])
    vals = evaluate(f, z)
    assert vals.shape == (3,)
    for zi, vi in zip(z, vals):
        assert vi == evaluate(f, complex(zi))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_series_rejects_non_finite_coefficients(bad):
    for sign in (Sign.PLUS, Sign.MINUS):
        with pytest.raises(ValueError, match="finite"):
            PowerSeries((0.25, bad), sign)


def test_series_stores_python_floats():
    f = PowerSeries(np.array([0.25, 1, -3]))
    assert f.coeffs == (0.25, 1.0, -3.0)
    assert all(type(c) is float for c in f.coeffs)


def test_series_rejects_nested_coefficients():
    with pytest.raises(TypeError, match="flat"):
        PowerSeries(((0.5,), (0.25,)))


def test_minus_convention_requires_nonnegative():
    with pytest.raises(ValueError):
        PowerSeries((0.5, -0.1), Sign.MINUS)


def test_series_json_round_trip():
    f = PowerSeries((0.5, 0.0, 0.25), Sign.MINUS)
    assert PowerSeries.from_dict(f.to_dict()) == f
    assert f.to_dict() == {"sign": "minus", "coeffs": [0.5, 0.0, 0.25]}


def test_q_derivative_monomial_rule():
    # a single coefficient at z^m turns into [m] at z^(m-1)
    q = 0.5
    for m in range(2, 7):
        coeffs = [0.0] * 9
        coeffs[m - 2] = 1.0
        d = q_derivative(PowerSeries(tuple(coeffs)), q)
        assert d[0] == 1.0
        assert d[m - 1] == pytest.approx(basic_number(m, q), rel=1e-15)
        others = [d[j] for j in range(1, len(d)) if j != m - 1]
        assert all(v == 0.0 for v in others)


def test_q_derivative_of_identity_is_one():
    d = q_derivative(PowerSeries.identity(10), 0.3)
    assert d[0] == 1.0
    assert not d[1:].any()


def test_q_derivative_classical_limit():
    f = PowerSeries((0.5,), Sign.MINUS)
    val = poly_eval(q_derivative(f, NEAR_ONE), 0.3)
    assert val.real == pytest.approx(0.7, abs=1e-5)


def test_q_derivative_difference_quotient_identity():
    rng = np.random.default_rng(11)
    n_index = np.arange(2.0, 34.0)
    for q in (0.2, 0.5, 0.8, 0.95):
        coeffs = rng.uniform(-1.0, 1.0, n_index.size) / n_index
        f = PowerSeries(tuple(coeffs))
        d = q_derivative(f, q)
        z = rng.uniform(0.05, 0.9, 50) * np.exp(2j * np.pi * rng.random(50))
        lhs = poly_eval(d, z)
        rhs = (evaluate(f, z) - evaluate(f, q * z)) / ((1.0 - q) * z)
        assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 1e-12


def test_hadamard_definition():
    f = PowerSeries((3.0,))
    g = PowerSeries((2.0,))
    assert hadamard(f, g).coeffs == (6.0,)


def test_hadamard_geometric_identity():
    rng = np.random.default_rng(3)
    f = PowerSeries(tuple(rng.uniform(-1, 1, 10)))
    ones = PowerSeries((1.0,) * 10)
    assert hadamard(f, ones) == f


def test_hadamard_pads_shorter_series():
    f = PowerSeries((1.0, 2.0, 3.0))
    g = PowerSeries((5.0,))
    assert hadamard(f, g).coeffs == (5.0, 0.0, 0.0)


def test_hadamard_minus_with_nonnegative_kernel_stays_minus():
    f = PowerSeries((0.5, 0.25), Sign.MINUS)
    g = PowerSeries((2.0, 4.0))
    out = hadamard(f, g)
    assert out.sign is Sign.MINUS
    assert out.coeffs == (1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hadamard_commutative_associative(data):
    size = data.draw(st.integers(min_value=1, max_value=8))
    box = st.floats(min_value=-2.0, max_value=2.0)
    a = PowerSeries(tuple(data.draw(st.lists(box, min_size=size, max_size=size))))
    b = PowerSeries(tuple(data.draw(st.lists(box, min_size=size, max_size=size))))
    c = PowerSeries(tuple(data.draw(st.lists(box, min_size=size, max_size=size))))
    np.testing.assert_array_equal(hadamard(a, b).tail(), hadamard(b, a).tail())
    np.testing.assert_allclose(
        hadamard(hadamard(a, b), c).tail(),
        hadamard(a, hadamard(b, c)).tail(),
        rtol=1e-15,
        atol=1e-290,
    )


def test_kernel_lambda_zero_is_geometric():
    kernel = ruscheweyh_kernel(ClassParams(q=0.4, trunc=12))
    assert kernel.coeffs == (1.0,) * 11


def test_kernel_lambda_one_is_brackets():
    kernel = ruscheweyh_kernel(ClassParams(q=0.5, lam=1.0, trunc=6))
    assert kernel.coeffs[0] == pytest.approx(1.5, rel=1e-15)
    assert kernel.coeffs[1] == pytest.approx(1.75, rel=1e-14)


def test_kernel_classical_limit_binomials():
    import math

    for lam in (0, 1, 2, 3):
        kernel = ruscheweyh_kernel(ClassParams(q=NEAR_ONE, lam=float(lam), trunc=12))
        for n in range(2, 13):
            expected = math.comb(n + lam - 1, n - 1)
            assert kernel.coeffs[n - 2] == pytest.approx(expected, rel=1e-3)
    # lam = 2 tightens to the n(n+1)/2 profile of z/(1-z)^3
    kernel = ruscheweyh_kernel(ClassParams(q=NEAR_ONE, lam=2.0, trunc=12))
    for n in range(2, 13):
        assert kernel.coeffs[n - 2] == pytest.approx(n * (n + 1) / 2, rel=1e-4)


def test_ruscheweyh_lambda_zero_identity():
    f = PowerSeries((0.5, 0.125, 0.0625), Sign.MINUS)
    assert ruscheweyh(f, ClassParams(q=0.7)) == f


def test_ruscheweyh_lambda_one_matches_q_derivative():
    # for lam = 1 the transform agrees with z * D_q f coefficient-wise
    q = 0.5
    f = PowerSeries((0.4, -0.3, 0.2, -0.1))
    transformed = ruscheweyh(f, ClassParams(q=q, lam=1.0))
    z_dq = q_derivative(f, q)  # coefficient at z^(n-1) is [n] c_n
    np.testing.assert_allclose(transformed.full()[1:], z_dq, rtol=1e-15)


def test_ruscheweyh_fractional_lambda():
    f = PowerSeries((1.0,))
    out = ruscheweyh(f, ClassParams(q=0.5, lam=1.5))
    expected = (1.0 - 0.5**2.5) / 0.5  # [2.5]
    assert out.coeffs[0] == pytest.approx(expected, rel=1e-14)
    assert out.coeffs[0] == pytest.approx(1.6464466094067263, rel=1e-12)


def test_ruscheweyh_matches_kernel_hadamard():
    rng = np.random.default_rng(5)
    params = ClassParams(q=0.6, lam=2.5, trunc=10)
    f = PowerSeries(tuple(rng.uniform(0, 1, 9)), Sign.MINUS)
    direct = ruscheweyh(f, params)
    via_kernel = hadamard(f, ruscheweyh_kernel(params))
    np.testing.assert_array_equal(direct.tail(), via_kernel.tail())


def test_ruscheweyh_q_derivative():
    params = ClassParams(q=0.5, lam=1.0, trunc=4)
    d = ruscheweyh_q_derivative(PowerSeries.identity(4), params)
    assert d[0] == 1.0 and not d[1:].any()
    d = ruscheweyh_q_derivative(PowerSeries((1.0, 0.0)), params)
    assert d[1] == pytest.approx(2.25, rel=1e-14)  # [2]^2 * 1
    # lam = 0 reduces to the plain q-derivative
    f = PowerSeries((0.3, 0.2, 0.1))
    np.testing.assert_array_equal(
        ruscheweyh_q_derivative(f, ClassParams(q=0.5)), q_derivative(f, 0.5)
    )


def test_disc_point():
    p = DiscPoint(0.5, np.pi)
    assert p.z() == pytest.approx(-0.5, abs=1e-15)
    with pytest.raises(ValueError):
        DiscPoint(1.0, 0.0)


def test_sample_grid():
    grid = SampleGrid((0.25, 0.5), 8)
    assert grid.radii == (0.25, 0.5) and grid.n_angles == 8
    with pytest.raises(ValueError):
        SampleGrid((1.0,), 8)
    with pytest.raises(ValueError):
        SampleGrid((0.0,), 8)
    with pytest.raises(ValueError):
        SampleGrid((0.5,), 0)


def ring(r: float, nodes: int) -> np.ndarray:
    return r * np.exp(2j * np.pi * np.arange(nodes) / nodes)


def upper_half(values: np.ndarray) -> np.ndarray:
    # ring_values returns the closed upper half ring, j = 0..nodes//2
    return values[..., : values.shape[-1] // 2 + 1]


def full_ring(half: np.ndarray, nodes: int) -> np.ndarray:
    # the lower half ring j = nodes - i holds the conjugate of entry i
    return np.concatenate((half, np.conj(half[1 : nodes - half.size + 1][::-1])))


def horner_tol(coeffs, r: float, nodes: int) -> float:
    # Horner's rounding, and that of the rounded ring points, grows with the
    # order and the FFT's with log(nodes): 8 eps * (order + log2 nodes)
    # times sum |c_n| r^n, plus the subnormal spacing for tiny values
    size = len(coeffs)
    scale = float(np.sum(np.abs(coeffs) * r ** np.arange(size)))
    return 8.0 * EPS * (size + nodes.bit_length()) * scale + np.finfo(float).tiny


@pytest.mark.parametrize("r", [0.0, 0.5, 0.9999])
@pytest.mark.parametrize("size, nodes", [(12, 64), (64, 64), (65, 64), (300, 64), (40, 7)])
def test_ring_values_match_horner(r, size, nodes):
    # size <= nodes is a plain transform; size > nodes folds high orders
    # onto the roots of unity
    rng = np.random.default_rng(size * nodes)
    coeffs = rng.uniform(-1.0, 1.0, size)
    got = ring_values(coeffs, r, nodes)
    want = upper_half(poly_eval(coeffs, ring(r, nodes)))
    assert got.shape == (nodes // 2 + 1,)
    assert np.max(np.abs(got - want)) <= horner_tol(coeffs, r, nodes)


@pytest.mark.parametrize("size, nodes, r", [(300, 64, 0.9999), (64, 4096, 0.95), (1025, 4096, 0.95)])
def test_ring_values_match_mpmath(size, nodes, r):
    # measured worst error 7.6e-17 * sum |c_n| r^n over these cases
    ctx = mpmath.MPContext()
    ctx.dps = 40
    rng = np.random.default_rng(size + nodes)
    coeffs = rng.uniform(-1.0, 1.0, size)
    got = ring_values(coeffs, r, nodes)
    scale = float(np.sum(np.abs(coeffs) * r ** np.arange(size)))
    exact_coeffs = [ctx.mpf(c) for c in coeffs[::-1]]
    assert got.shape == (nodes // 2 + 1,)
    for j in range(0, nodes // 2 + 1, max(1, nodes // 64)):
        z = ctx.mpf(r) * ctx.expjpi(ctx.mpf(2 * j) / nodes)
        assert float(abs(got[j] - ctx.polyval(exact_coeffs, z))) <= 1e-15 * scale


def test_ring_values_at_zero_radius_is_the_constant_term():
    np.testing.assert_array_equal(ring_values([0.5, 2.0, -3.0], 0.0, 4), np.full(3, 0.5))


@pytest.mark.parametrize("size, nodes", [(12, 64), (300, 64), (40, 7), (5, 1), (1025, 4096)])
def test_ring_values_batched_rows_equal_scalar_calls(size, nodes):
    rng = np.random.default_rng(size + 7 * nodes)
    coeffs = rng.uniform(-1.0, 1.0, size)
    radii = [0.0, 0.3, 0.9, 0.9999]
    batch = ring_values(coeffs, radii, nodes)
    assert batch.shape == (len(radii), nodes // 2 + 1)
    for row, r in zip(batch, radii):
        np.testing.assert_array_equal(row, ring_values(coeffs, r, nodes))
    assert ring_values(coeffs, [], nodes).shape == (0, nodes // 2 + 1)


@pytest.mark.parametrize("nodes", [1, 2, 7, 8, 64])
def test_ring_values_mirror_gives_the_full_ring(nodes):
    # odd and even node counts: the half ring plus its conjugate mirror is
    # every node of the ring
    coeffs = np.random.default_rng(nodes).uniform(-1.0, 1.0, 20)
    full = full_ring(ring_values(coeffs, 0.8, nodes), nodes)
    want = poly_eval(coeffs, ring(0.8, nodes))
    assert full.shape == (nodes,)
    assert np.max(np.abs(full - want)) <= horner_tol(coeffs, 0.8, nodes)


@pytest.mark.parametrize(
    "r",
    [1.0, 1.5, -0.1, -1e-300, float("nan"), [0.5, 1.0], [float("nan"), 0.5], [[0.5], [0.25]]],
)
def test_ring_values_rejects_radius_outside_disc(r):
    # a sequence of radii is rejected if any radius is, and so is a 2-D one
    with pytest.raises(ValueError, match="ring"):
        ring_values([0.0, 1.0], r, 16)


def test_ring_values_rejects_empty_ring():
    with pytest.raises(ValueError, match="nodes"):
        ring_values([0.0, 1.0], 0.5, 0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=70),
    st.floats(min_value=0.0, max_value=0.999),
    st.integers(min_value=1, max_value=80),
)
def test_ring_values_property_against_horner(coeffs, r, nodes):
    got = ring_values(coeffs, r, nodes)
    want = upper_half(poly_eval(coeffs, ring(r, nodes)))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= horner_tol(coeffs, r, nodes)


def test_ring_values_parseval_is_exact_without_folding():
    # with more nodes than coefficients the discrete Parseval identity is the
    # continuous one, so the eta = 2 circle mean is exact up to rounding
    rng = np.random.default_rng(31)
    coeffs = rng.uniform(-1.0, 1.0, 200)
    for r, nodes in ((0.5, 256), (0.99, 256), (0.9999, 512)):
        exact = 2.0 * np.pi * np.sum((coeffs * r ** np.arange(coeffs.size)) ** 2)
        vals = full_ring(ring_values(coeffs, r, nodes), nodes)
        approx = 2.0 * np.pi * np.sum(np.abs(vals) ** 2) / nodes
        assert approx == pytest.approx(exact, rel=1e-13)
