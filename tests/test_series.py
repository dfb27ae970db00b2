import copy
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from qstarlike import (
    ClassParams,
    PowerSeries,
    SampleGrid,
    Sign,
    poly_eval,
    q_derivative,
)
from qstarlike.qcore import basic_number
from qstarlike.series import _powers, _ring
from reference import ruscheweyh

NEAR_ONE = 1.0 - 1.0e-6
EPS = np.finfo(float).eps


def test_identity_series():
    f = PowerSeries((0.0,) * 7)
    assert f.order == 8
    assert poly_eval(f.full(), 0.5j) == 0.5j


def test_evaluate_direct_substitution():
    f = PowerSeries((0.5,), Sign.MINUS)
    assert poly_eval(f.full(), 0.5) == pytest.approx(0.375, abs=1e-15)
    g = PowerSeries((1.0, 1.0))
    assert poly_eval(g.full(), 0.1) == pytest.approx(0.111, abs=1e-15)


def test_evaluate_matches_term_sum():
    rng = np.random.default_rng(7)
    coeffs = rng.uniform(-1.0, 1.0, 12)
    f = PowerSeries(tuple(coeffs))
    for _ in range(20):
        z = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.random())
        expected = z + sum(c * z**n for n, c in enumerate(coeffs, start=2))
        assert poly_eval(f.full(), z) == pytest.approx(expected, rel=1e-13)


def test_evaluate_vectorized_matches_scalar():
    f = PowerSeries((0.3, -0.2, 0.1))
    z = np.array([0.1, 0.5j, -0.3 + 0.4j])
    vals = poly_eval(f.full(), z)
    assert vals.shape == (3,)
    for zi, vi in zip(z, vals):
        assert vi == poly_eval(f.full(), complex(zi))


def test_poly_eval_is_bit_identical_to_numpy_polynomial():
    # numpy.polynomial's polyval, kept here as the reference, runs the same
    # Horner recurrence in the same order as numpy core's polyval; a scalar z
    # goes in as a 0-d array, as poly_eval passes it
    rng = np.random.default_rng(3)
    z = rng.uniform(0.0, 1.2, 64) * np.exp(2j * np.pi * rng.random(64))
    for order in range(1, 301):
        coeffs = rng.uniform(-1.0, 1.0, order)
        assert np.array_equal(poly_eval(coeffs, z), npoly.polyval(z, coeffs))
        zi = complex(z[order % 64])
        assert poly_eval(coeffs, zi) == complex(npoly.polyval(np.asarray(zi), coeffs))


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
    # the sign is a Sign: a string "minus" would be read as PLUS and let a
    # negative coefficient through
    for coeffs in ((0.1,), (-0.1,)):
        for sign in ("minus", "plus", None):
            with pytest.raises(TypeError, match=rf"^sign must be a Sign, got {sign!r}$"):
                PowerSeries(coeffs, sign)


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
    d = q_derivative(PowerSeries((0.0,) * 9), 0.3)
    assert d[0] == 1.0
    assert not d[1:].any()


def test_q_derivative_classical_limit():
    f = PowerSeries((0.5,), Sign.MINUS)
    val = poly_eval(q_derivative(f, NEAR_ONE), 0.3)
    assert val.real == pytest.approx(0.7, abs=1e-5)


@pytest.mark.parametrize("q", [0.0, 1.0, 2.0, float("nan")])
def test_q_derivative_checks_q_as_class_params_does(q):
    # unchecked, q = 1 divides 0 by 0, q = 2 returns a derivative with no
    # meaning, and q = 0 fails in math.log
    with pytest.raises(ValueError, match="q must lie in"):
        q_derivative(PowerSeries((0.5,), Sign.MINUS), q)


def test_q_derivative_difference_quotient_identity():
    rng = np.random.default_rng(11)
    n_index = np.arange(2.0, 34.0)
    for q in (0.2, 0.5, 0.8, 0.95):
        coeffs = rng.uniform(-1.0, 1.0, n_index.size) / n_index
        f = PowerSeries(tuple(coeffs))
        d = q_derivative(f, q)
        z = rng.uniform(0.05, 0.9, 50) * np.exp(2j * np.pi * rng.random(50))
        lhs = poly_eval(d, z)
        rhs = (poly_eval(f.full(), z) - poly_eval(f.full(), q * z)) / ((1.0 - q) * z)
        assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 1e-12


def kernel(params: ClassParams) -> tuple[float, ...]:
    """Kernel coefficients [lam+1]_{n-1} / [n-1]!, n = 2..trunc: the
    Ruscheweyh transform of the all-ones series z/(1-z)."""
    return ruscheweyh(PowerSeries((1.0,) * (params.trunc - 1)), params).coeffs


def test_kernel_lambda_zero_is_geometric():
    assert kernel(ClassParams(q=0.4, trunc=12)) == (1.0,) * 11


def test_kernel_lambda_one_is_brackets():
    coeffs = kernel(ClassParams(q=0.5, lam=1.0, trunc=6))
    assert coeffs[0] == pytest.approx(1.5, rel=1e-15)
    assert coeffs[1] == pytest.approx(1.75, rel=1e-14)


def test_kernel_classical_limit_binomials():
    import math

    for lam in (0, 1, 2, 3):
        coeffs = kernel(ClassParams(q=NEAR_ONE, lam=float(lam), trunc=12))
        for n in range(2, 13):
            expected = math.comb(n + lam - 1, n - 1)
            assert coeffs[n - 2] == pytest.approx(expected, rel=1e-3)
    # lam = 2 tightens to the n(n+1)/2 profile of z/(1-z)^3
    coeffs = kernel(ClassParams(q=NEAR_ONE, lam=2.0, trunc=12))
    for n in range(2, 13):
        assert coeffs[n - 2] == pytest.approx(n * (n + 1) / 2, rel=1e-4)


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
    # the transform is the coefficient-wise product with the kernel, sign kept
    direct = ruscheweyh(f, params)
    np.testing.assert_array_equal(direct.tail(), f.tail() * np.array(kernel(params)))


def test_ruscheweyh_q_derivative():
    params = ClassParams(q=0.5, lam=1.0, trunc=4)
    d = q_derivative(ruscheweyh(PowerSeries((0.0,) * 3), params), params.q)
    assert d[0] == 1.0 and not d[1:].any()
    d = q_derivative(ruscheweyh(PowerSeries((1.0, 0.0)), params), params.q)
    assert d[1] == pytest.approx(2.25, rel=1e-14)  # [2]^2 * 1
    # lam = 0 reduces to the plain q-derivative
    f = PowerSeries((0.3, 0.2, 0.1))
    np.testing.assert_array_equal(
        q_derivative(ruscheweyh(f, ClassParams(q=0.5)), 0.5), q_derivative(f, 0.5)
    )


def test_sample_grid():
    grid = SampleGrid((0.25, 0.5), 8)
    assert grid.radii == (0.25, 0.5) and grid.n_angles == 8
    with pytest.raises(ValueError):
        SampleGrid((1.0,), 8)
    with pytest.raises(ValueError):
        SampleGrid((0.0,), 8)
    for n_angles in (0, 2.5, True):
        with pytest.raises(ValueError, match=rf"^n_angles must be a positive integer, got {n_angles}$"):
            SampleGrid((0.5,), n_angles)


def ring(r: float, nodes: int) -> np.ndarray:
    return r * np.exp(2j * np.pi * np.arange(nodes) / nodes)


def on_ring(coeffs, r, nodes: int) -> np.ndarray:
    # _ring on a float array and a tuple of radii, as SampleGrid.values
    # calls it; a scalar r is the one-radius tuple, read at row 0, and
    # r = 0, which a grid refuses, is the ring's own contract
    values = _ring(np.asarray(coeffs, dtype=float), tuple(np.atleast_1d(r).tolist()), nodes)
    return values if np.ndim(r) else values[..., 0, :]


def upper_half(values: np.ndarray) -> np.ndarray:
    # the ring holds the closed upper half ring, j = 0..nodes//2
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
    got = on_ring(coeffs, r, nodes)
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
    got = on_ring(coeffs, r, nodes)
    scale = float(np.sum(np.abs(coeffs) * r ** np.arange(size)))
    exact_coeffs = [ctx.mpf(c) for c in coeffs[::-1]]
    assert got.shape == (nodes // 2 + 1,)
    for j in range(0, nodes // 2 + 1, max(1, nodes // 64)):
        z = ctx.mpf(r) * ctx.expjpi(ctx.mpf(2 * j) / nodes)
        assert float(abs(got[j] - ctx.polyval(exact_coeffs, z))) <= 1e-15 * scale


def test_ring_values_at_zero_radius_is_the_constant_term():
    np.testing.assert_array_equal(on_ring([0.5, 2.0, -3.0], 0.0, 4), np.full(3, 0.5))


@pytest.mark.parametrize("size, nodes", [(12, 64), (300, 64), (40, 7), (5, 1), (1025, 4096)])
def test_ring_values_batched_rows_equal_scalar_calls(size, nodes):
    rng = np.random.default_rng(size + 7 * nodes)
    coeffs = rng.uniform(-1.0, 1.0, size)
    radii = [0.0, 0.3, 0.9, 0.9999]
    batch = on_ring(coeffs, radii, nodes)
    assert batch.shape == (len(radii), nodes // 2 + 1)
    for row, r in zip(batch, radii):
        np.testing.assert_array_equal(row, on_ring(coeffs, r, nodes))
    assert on_ring(coeffs, [], nodes).shape == (0, nodes // 2 + 1)


@pytest.mark.parametrize("nodes", [1, 2, 7, 8, 64])
def test_ring_values_mirror_gives_the_full_ring(nodes):
    # odd and even node counts: the half ring plus its conjugate mirror is
    # every node of the ring
    coeffs = np.random.default_rng(nodes).uniform(-1.0, 1.0, 20)
    full = full_ring(on_ring(coeffs, 0.8, nodes), nodes)
    want = poly_eval(coeffs, ring(0.8, nodes))
    assert full.shape == (nodes,)
    assert np.max(np.abs(full - want)) <= horner_tol(coeffs, 0.8, nodes)


@pytest.mark.parametrize(
    "r",
    [1.0, 1.5, -0.1, -1e-300, float("nan"), [0.5, 1.0], [float("nan"), 0.5], [[0.5], [0.25]]],
)
def test_ring_values_rejects_radius_outside_disc(r):
    # SampleGrid is the checked entry to the ring: a set of radii is
    # rejected if any radius is, and so is a 2-D one
    with pytest.raises(ValueError, match=r"^grid radii must lie in \(0, 1\)$"):
        SampleGrid(np.atleast_1d(r), 16)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=70),
    st.floats(min_value=0.0, max_value=0.999),
    st.integers(min_value=1, max_value=80),
)
def test_ring_values_property_against_horner(coeffs, r, nodes):
    got = on_ring(coeffs, r, nodes)
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
        vals = full_ring(on_ring(coeffs, r, nodes), nodes)
        approx = 2.0 * np.pi * np.sum(np.abs(vals) ** 2) / nodes
        assert approx == pytest.approx(exact, rel=1e-13)


def test_series_keeps_its_own_read_only_array():
    # the series copies its input: mutating the source afterwards changes
    # neither the tuple nor the kept array, and equality and hashing still
    # read the tuple and the sign alone
    source = np.array([0.5, 0.25, 0.0])
    f = PowerSeries(source, Sign.MINUS)
    source[:] = 9.0
    assert f.coeffs == (0.5, 0.25, 0.0)
    np.testing.assert_array_equal(f.tail(), [-0.5, -0.25, -0.0])
    np.testing.assert_array_equal(f.full(), [0.0, 1.0, -0.5, -0.25, -0.0])
    g = PowerSeries((0.5, 0.25, 0.0), Sign.MINUS)
    assert f == g and hash(f) == hash(g)
    # the tail is the kept signed array itself for either sign: no call
    # allocates a copy, and writing into it raises
    plus = PowerSeries((0.5, -0.25))
    for series in (plus, f):
        assert series.tail() is series.tail()
        with pytest.raises(ValueError, match="read-only"):
            series.tail()[0] = 7.0
    assert f.coeffs[0] == 0.5 and f.full()[2] == -0.5
    assert plus.tail().tolist() == [0.5, -0.25]
    # a pickled or deep-copied series is an equal value with its own
    # read-only array
    for copied in (pickle.loads(pickle.dumps(plus)), copy.deepcopy(plus)):
        assert copied == plus
        with pytest.raises(ValueError, match="read-only"):
            copied.tail()[0] = 1.0


def test_series_order_is_capped_at_the_trunc_ceiling():
    assert PowerSeries((0.0,) * (2**18 - 1)).order == 2**18
    with pytest.raises(ValueError, match=r"^series order must be at most 262144, got 262145$"):
        PowerSeries((0.0,) * 2**18, Sign.MINUS)


@pytest.mark.parametrize(
    "entry", ["0.25", False, True, None, [0.5], {"a": 1}], ids=repr
)
def test_series_from_dict_takes_only_json_numbers(entry):
    assert PowerSeries.from_dict({"sign": "minus", "coeffs": [1, 0.5]}).coeffs == (1.0, 0.5)
    with pytest.raises(TypeError, match=r"^coeffs\[1\] must be a number, got "):
        PowerSeries.from_dict({"sign": "minus", "coeffs": [0.25, entry]})


@pytest.mark.parametrize("size, nodes", [(12, 64), (300, 64), (40, 7), (1025, 256)])
def test_ring_values_stacked_rows_equal_single_row_calls(size, nodes):
    # a (2, order) stack gives, row by row, exactly the single-series call,
    # for a scalar radius and for a list of radii; 300 and 1025 are orders
    # above the node count, which fold
    rng = np.random.default_rng(size + nodes)
    stack = rng.uniform(-1.0, 1.0, (2, size))
    for r in (0.9, [0.0, 0.3, 0.9999]):
        batch = on_ring(stack, r, nodes)
        assert batch.shape == (2, *np.shape(r), nodes // 2 + 1)
        for row, coeffs in zip(batch, stack):
            np.testing.assert_array_equal(row, on_ring(coeffs, r, nodes))


def scaled_terms(c: np.ndarray, radii: tuple[float, ...]) -> np.ndarray:
    # c_n r^n for each row of c and each radius, built afresh
    return c[..., None, :] * np.array(radii)[:, None] ** np.arange(c.shape[-1])


def loop_fold_ring(c: np.ndarray, radii: tuple[float, ...], nodes: int) -> np.ndarray:
    """The ring as it was folded before the one reshape-sum: a Python loop
    adds each block of nodes scaled terms into the bins in turn."""
    order = c.shape[-1]
    scaled = scaled_terms(c, radii)
    for start in range(nodes, order, nodes):
        scaled[..., : min(nodes, order - start)] += scaled[..., start : start + nodes]
    values = np.fft.rfft(scaled, n=nodes)
    return np.conj(values, out=values)


@pytest.mark.parametrize("nodes", [1, 2, 7, 64])
def test_ring_fold_is_bit_identical_to_the_loop_fold(nodes):
    # orders below, equal to and above nodes, a (2, order) stack and a single
    # row, three radii and one; half the entries of one row are -0.0, as a
    # MINUS tail has them, so a bin of them only keeps its sign if the last
    # block is padded with -0.0
    rng = np.random.default_rng(nodes)
    radii = (0.0, 0.3, 0.9999)
    for order in sorted({max(nodes - 1, 1), nodes, nodes + 1, 3 * nodes + 2, 5 * nodes, 300}):
        stack = rng.uniform(-1.0, 1.0, (2, order))
        stack[1, rng.random(order) < 0.5] = -0.0
        for c in (stack, stack[1]):
            for r in (radii, radii[2:]):
                got = _ring(c, r, nodes)
                want = loop_fold_ring(c, r, nodes)
                if nodes > 1:
                    assert got.tobytes() == want.tobytes(), (order, c.shape, r)
                    continue
                # at one node the value at z = r is numpy's pairwise sum of
                # the scaled terms, where the loop added them left to right
                pairwise = np.sum(scaled_terms(c, r), axis=-1, keepdims=True, initial=-0.0)
                assert got.real.tobytes() == pairwise.tobytes()
                assert not got.imag.any()
                np.testing.assert_allclose(got, want, rtol=4 * order * EPS, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=0.9999), max_size=6).map(tuple),
    st.integers(min_value=0, max_value=300),
)
def test_the_kept_power_table_is_the_fresh_one_and_read_only(radii, order):
    # two orders at one set of radii: each is its own table, kept
    for n in (order, order + 1):
        kept = _powers(radii, n)
        fresh = np.array(radii)[:, None] ** np.arange(n)
        assert kept.shape == fresh.shape and kept.tobytes() == fresh.tobytes()
        assert _powers(radii, n) is kept and not kept.flags.writeable
        if kept.size:
            with pytest.raises(ValueError, match="read-only"):
                kept[0, 0] = 2.0


def test_sample_grid_checks_its_radii_once_and_keeps_them_read_only():
    grid = SampleGrid((0.25, 0.5), 8)
    coeffs = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 30))
    assert grid.values(coeffs).tobytes() == _ring(coeffs, grid.radii, 8).tobytes()
    # a copy is an equal grid with equal values
    for copied in (pickle.loads(pickle.dumps(grid)), copy.deepcopy(grid), copy.copy(grid)):
        assert copied == grid and hash(copied) == hash(grid)
        assert copied.values(coeffs).tobytes() == grid.values(coeffs).tobytes()
    # any sequence of radii is kept as a tuple of floats, which is
    # immutable, so the grid hashes and its radii cannot be written into
    listed = SampleGrid([0.25, np.float64(0.5)], 8)
    assert listed == grid and hash(listed) == hash(grid)
    assert type(listed.radii) is tuple and all(type(r) is float for r in listed.radii)
    assert vars(listed) == {"radii": (0.25, 0.5), "n_angles": 8}
    for radii in ((0.5, 1.0), (float("nan"),), ((0.25, 0.5),), 0.5, (), []):
        with pytest.raises(ValueError, match="grid radii"):
            SampleGrid(radii, 8)
