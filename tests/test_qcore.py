import copy
import dataclasses
import math
import pickle
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstarlike.classes import criterion_min_margin
from qstarlike.qcore import (
    ClassParams,
    basic_number,
    criterion_weight,
    criterion_weights,
    kernel_coeffs,
    ruscheweyh_coeff,
)
from qstarlike.series import PowerSeries, Sign
from reference import ruscheweyh

NEAR_ONE = 1.0 - 1.0e-6


# Scalar reference oracles: the direct products the vectorized kernel
# replaces.


def q_factorial(n: int, q: float) -> float:
    """[n]! = [1][2]...[n]; empty product 1 for n = 0."""
    out = 1.0
    for j in range(1, n + 1):
        out *= basic_number(j, q)
    return out


def q_pochhammer(t: float, n: int, q: float) -> float:
    """Rising product [t][t+1]...[t+n-1] of q-brackets; [t]_0 = 1."""
    out = 1.0
    for j in range(n):
        out *= basic_number(t + j, q)
    return out


def test_basic_number_small_cases():
    assert basic_number(0, 0.5) == 0.0
    assert basic_number(1, 0.3) == 1.0
    assert basic_number(2, 0.5) == pytest.approx(1.5, abs=1e-15)
    # geometric-sum oracle 1 + q + ... + q^(n-1)
    q = 0.7
    for n in range(1, 12):
        assert basic_number(n, q) == pytest.approx(sum(q**j for j in range(n)), rel=1e-14)


def test_basic_number_classical_limit():
    assert basic_number(3, NEAR_ONE) == pytest.approx(3.0, abs=1e-5)
    for n in range(1, 21):
        assert basic_number(n, NEAR_ONE) == pytest.approx(n, rel=1e-4)


@pytest.mark.parametrize("q", [0.2, 0.5, 0.9, NEAR_ONE])
def test_basic_number_increasing_in_n(q):
    values = [basic_number(n, q) for n in range(21)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_q_factorial():
    assert q_factorial(0, 0.9) == 1.0
    assert q_factorial(2, 0.5) == pytest.approx(1.5, abs=1e-15)
    # [1][2][3] = 1 * 1.5 * 1.75
    assert q_factorial(3, 0.5) == pytest.approx(2.625, abs=1e-15)


def test_q_pochhammer():
    assert q_pochhammer(5.0, 0, 0.7) == 1.0
    assert q_pochhammer(1.0, 3, 0.5) == pytest.approx(q_factorial(3, 0.5), rel=1e-15)
    # [2][3] = 1.5 * 1.75
    assert q_pochhammer(2.0, 2, 0.5) == pytest.approx(2.625, abs=1e-15)


@settings(max_examples=80, deadline=None)
@given(
    t=st.floats(min_value=0.1, max_value=6.0),
    n=st.integers(min_value=0, max_value=8),
    m=st.integers(min_value=0, max_value=8),
    q=st.floats(min_value=0.05, max_value=0.95),
)
def test_q_pochhammer_composition(t, n, m, q):
    lhs = q_pochhammer(t, n, q) * q_pochhammer(t + n, m, q)
    rhs = q_pochhammer(t, n + m, q)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_ruscheweyh_coeff_lambda_zero_is_one():
    for q in (0.2, 0.5, 0.8):
        for n in range(2, 11):
            assert ruscheweyh_coeff(n, 0.0, q) == pytest.approx(1.0, rel=1e-12)


def test_ruscheweyh_coeff_low_orders():
    assert ruscheweyh_coeff(2, 1.0, 0.5) == pytest.approx(1.5, rel=1e-15)
    # for lam = 1 the coefficient collapses to [n]
    assert ruscheweyh_coeff(3, 1.0, 0.5) == pytest.approx(1.75, rel=1e-14)
    assert ruscheweyh_coeff(3, 1.0, NEAR_ONE) == pytest.approx(3.0, rel=1e-4)


def test_ruscheweyh_coeff_matches_qgamma_recursion():
    # for integer lam the q-gamma recursion gives [n+lam-1]! / ([n-1]! [lam]!)
    for q in (0.3, 0.6, 0.9):
        for lam in (0, 1, 2, 3):
            for n in range(2, 13):
                recursion_form = q_factorial(n + lam - 1, q) / (
                    q_factorial(n - 1, q) * q_factorial(lam, q)
                )
                assert ruscheweyh_coeff(n, float(lam), q) == pytest.approx(
                    recursion_form, rel=1e-12
                )


def test_ruscheweyh_coeff_classical_limit_binomial():
    for lam in (0, 1, 2, 3):
        for n in range(2, 13):
            expected = math.comb(n + lam - 1, n - 1)
            assert ruscheweyh_coeff(n, float(lam), NEAR_ONE) == pytest.approx(
                expected, rel=1e-3
            )


@pytest.mark.parametrize(
    "n, lam, q", [(3, 1.0, 2.0), (3, -1.5, 0.5), (3, math.nan, 0.5), (3, 0.0, 1.0)]
)
def test_ruscheweyh_coeff_checks_q_and_lambda_as_class_params_does(n, lam, q):
    # the kernel outside the domain is a number with no meaning: 7.0 at
    # q = 2, -0.32 at lambda = -1.5; at q = 1 every bracket is 0 / 0
    with pytest.raises(ValueError, match=r"^(q must lie in|lambda must be)"):
        ruscheweyh_coeff(n, lam, q)


def test_criterion_weight_values():
    near_classical = ClassParams(q=NEAR_ONE)
    assert criterion_weight(2, near_classical) == pytest.approx(2.0, abs=1e-5)
    assert criterion_weight(2, ClassParams(q=0.5, alpha=0.5, k=1.0)) == pytest.approx(
        1.5, abs=1e-14
    )
    assert criterion_weight(2, ClassParams(q=0.5, lam=1.0)) == pytest.approx(
        2.25, abs=1e-14
    )


def test_criterion_weight_positive():
    for q in (0.3, 0.7, NEAR_ONE):
        for lam in (-0.9, -0.5, 0.0, 2.0):
            for alpha in (0.0, 0.5, 0.99):
                for k in (0.0, 1.0, 10.0):
                    p = ClassParams(q=q, lam=lam, alpha=alpha, k=k)
                    assert criterion_weight(2, p) > 0.0
                    assert criterion_weight(7, p) > 0.0


def test_criterion_weight_increasing_for_nonnegative_lambda():
    # strict growth needs q not too small so consecutive brackets stay
    # resolvable in double precision over the tested range of n
    for q in (0.3, 0.5, 0.8, NEAR_ONE):
        for lam in (0.0, 0.5, 1.0, 2.5):
            for alpha in (0.0, 0.25, 0.5):
                for k in (0.0, 1.0, 3.0):
                    p = ClassParams(q=q, lam=lam, alpha=alpha, k=k, trunc=16)
                    w = criterion_weights(p)
                    assert all(b > a for a, b in zip(w, w[1:]))


def test_criterion_weight_not_monotone_near_lambda_floor():
    # growth in n breaks down close to lam = -1: here weight_3 < weight_2,
    # which is why the integral-means and factor-sequence sweeps stay at
    # lam >= 0, where weight_n >= weight_2 actually holds
    p = ClassParams(q=0.5, lam=-0.99)
    assert criterion_weight(3, p) < criterion_weight(2, p)


def test_scalar_coefficients_reject_order_below_two():
    with pytest.raises(ValueError):
        ruscheweyh_coeff(1, 0.0, 0.5)
    with pytest.raises(ValueError):
        criterion_weight(1, ClassParams(q=0.5))


def test_criterion_weights_overflow_is_a_value_error():
    # [n] (1 + k) overflows for k near the float maximum once [n] > 1.8
    p = ClassParams(q=0.5, k=1e308, trunc=8)
    with pytest.raises(ValueError, match=r"overflow at k = 1e\+308"):
        criterion_weights(p)
    assert criterion_weight(2, p) == pytest.approx(0.5e308, rel=1e-15)
    # an overflow reached through the kernel names lambda and q, not k
    message = r"^kernel coefficient overflows at lambda = 1000\.0, q = 0\.999999$"
    with pytest.raises(ValueError, match=message):
        criterion_weights(ClassParams(q=0.999999, lam=1000.0, trunc=2000))


def test_kernel_overflow_fallback_is_quiet_inf():
    # both running products and the ratio product overflow near order 2000;
    # the RuntimeWarning filter in pyproject.toml fails any leaked warning
    kernel = kernel_coeffs(1000.0, 0.999999, 2000)
    assert np.isfinite(kernel[0]) and np.isposinf(kernel[-1])
    with pytest.raises(ValueError, match=r"lambda = 1000\.0, q = 0\.999999"):
        ruscheweyh_coeff(2000, 1000.0, 0.999999)
    # the Ruscheweyh transform inside the criterion refuses the same kernel
    f = PowerSeries((0.0,) * 1999, Sign.MINUS)
    with pytest.raises(ValueError, match=r"lambda = 1000\.0, q = 0\.999999"):
        criterion_min_margin(f, ClassParams(q=0.999999, lam=1000.0, trunc=2000))


def test_criterion_weights_matches_scalar():
    p = ClassParams(q=0.6, lam=1.5, alpha=0.25, k=2.0, trunc=10)
    w = criterion_weights(p)
    assert len(w) == 9
    for i, n in enumerate(range(2, 11)):
        assert w[i] == criterion_weight(n, p)


def test_basic_number_accepts_arrays():
    t = np.array([0.0, 1.0, 2.5, 7.0])
    for q in (1.0e-6, 0.5, NEAR_ONE):
        out = basic_number(t, q)
        assert out.shape == t.shape
        assert list(out) == [basic_number(float(x), q) for x in t]


def test_basic_number_near_one_matches_mpmath():
    # (1 - q**t) / (1 - q) loses ~1e-11 to cancellation here
    ctx = mpmath.MPContext()
    ctx.dps = 30
    q = ctx.mpf(NEAR_ONE)
    for t in (2.0, 3.5, 17.0, 1000.0):
        exact = (1 - ctx.power(q, t)) / (1 - q)
        assert float(abs((basic_number(t, NEAR_ONE) - exact) / exact)) < 1.0e-15


def test_kernel_matches_pochhammer_ratio():
    for q in (0.3, 0.6, 0.9):
        for lam in (-0.5, 0.0, 1.5, 4.0):
            kernel = kernel_coeffs(lam, q, 16)
            assert kernel.shape == (15,)
            for n in range(2, 17):
                ratio = q_pochhammer(lam + 1.0, n - 1, q) / q_factorial(n - 1, q)
                assert kernel[n - 2] == pytest.approx(ratio, rel=1e-13)
                assert ruscheweyh_coeff(n, lam, q) == kernel[n - 2]


# Worst relative error of criterion_weights against the oracle below over
# the grid of test_weights_match_mpmath_oracle was 1.36e-13 (at q = 1 - 1e-6,
# lam = -0.99, n near 4096, where rounding in ~4000 running-product factors
# accumulates).  Brackets by pow instead of expm1 measure 1.5e-9 there.
ORACLE_RTOL = 5.0e-13
ORACLE_TRUNC = 4096


def _oracle_weights(ctx, q: float, lams, alpha: float, k: float, top: int):
    """Criterion weights for n = 2..top at each lam, exact in ctx precision
    and rounded once to float64 for comparison."""
    mq = ctx.mpf(q)
    powers = [ctx.mpf(1)]
    for _ in range(top):
        powers.append(powers[-1] * mq)
    gaps = [1 - x for x in powers]  # (1 - q) [m]
    factors = [g * (1 + ctx.mpf(k)) / gaps[1] - ctx.mpf(k) - ctx.mpf(alpha) for g in gaps]
    out = {}
    for lam in lams:
        up = ctx.power(mq, ctx.mpf(lam) + 1)  # q**(lam + 1 + j)
        num = den = ctx.mpf(1)
        w = np.empty(top - 1)
        for n in range(2, top + 1):
            num *= 1 - up
            den *= gaps[n - 1]
            up *= mq
            w[n - 2] = factors[n] * num / den
        out[lam] = w
    return out


@pytest.mark.parametrize("q", [1.0e-6, 0.5, 0.99, NEAR_ONE])
def test_weights_match_mpmath_oracle(q):
    lams = (-0.99, 0.0, 3.0, 50.0)
    ctx = mpmath.MPContext()
    ctx.dps = 30
    exact = _oracle_weights(ctx, q, lams, 0.3, 2.0, ORACLE_TRUNC)
    for lam in lams:
        got = criterion_weights(ClassParams(q=q, lam=lam, alpha=0.3, k=2.0, trunc=ORACLE_TRUNC))
        assert np.all(np.isfinite(got)) and np.all(got > 0.0)
        rel = np.max(np.abs(got - exact[lam]) / exact[lam])
        assert rel < ORACLE_RTOL, (lam, rel)


@pytest.mark.parametrize("q, lam, trunc", [(0.99, 3.0, 2000), (0.999, 5.0, 4000)])
def test_weights_finite_where_kernel_products_overflow(q, lam, trunc):
    # [lam+1]_{n-1} and [n-1]! each pass 1.8e308 well before n = trunc
    w = criterion_weights(ClassParams(q=q, lam=lam, trunc=trunc))
    assert w.shape == (trunc - 1,)
    assert np.all(np.isfinite(w)) and np.all(w > 0.0)
    assert np.all(np.diff(w) > 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"q": 0.0},
        {"q": 1.0},
        {"q": 1.5},
        {"q": -0.2},
        {"q": 0.5, "lam": -1.0},
        {"q": 0.5, "lam": -2.0},
        {"q": 0.5, "alpha": 1.0},
        {"q": 0.5, "alpha": -0.1},
        {"q": 0.5, "k": -0.5},
        {"q": 0.5, "trunc": 1},
        {"q": 0.5, "lam": math.inf},
        {"q": 0.5, "lam": math.nan},
        {"q": 0.5, "k": math.inf},
        {"q": 0.5, "k": math.nan},
        {"q": 0.5, "trunc": 2**18 + 1},
        {"q": 0.5, "trunc": 64.0},
        {"q": 0.5, "trunc": True},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ClassParams(**kwargs)
    if type(kwargs.get("trunc", 0)) is not int:
        with pytest.raises(ValueError, match=rf"^trunc must be an integer, got {kwargs['trunc']}$"):
            ClassParams(**kwargs)


def test_params_accepts_limit_q():
    # the validation endpoints of q and the trunc ceiling are usable
    ClassParams(q=1.0e-6)
    ClassParams(q=NEAR_ONE)
    ClassParams(q=0.5, trunc=2**18)


def test_order_two_weight_is_bit_identical_to_the_table():
    # w_2 is the table's first entry; it must equal ([2](1+k) - k - alpha)
    # [lam+1], both brackets from one basic_number call, exactly, over the
    # documented domain: q log-uniform near 0, uniform, or log-uniform near
    # 1, lam + 1 log-spaced from 1e-3 to 1001, alpha up to 0.999 and k zero
    # or log-uniform up to 1e300
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        edge = int(rng.integers(3))
        if edge == 0:
            q = 10.0 ** rng.uniform(-6.0, -1.0)
        elif edge == 1:
            q = rng.uniform(1.0e-6, NEAR_ONE)
        else:
            q = 1.0 - 10.0 ** rng.uniform(-6.0, -1.0)
        k = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-3.0, 300.0)
        p = ClassParams(
            q=float(q),
            lam=float(-1.0 + 10.0 ** rng.uniform(-3.0, math.log10(1001.0))),
            alpha=float(rng.uniform(0.0, 0.999)),
            k=float(k),
        )
        two, bracket = basic_number(np.array([2.0, p.lam + 1.0]), p.q).tolist()
        assert criterion_weights(p, order=2)[0] == (two * (1.0 + p.k) - p.k - p.alpha) * bracket, p
    # an order-2 weight that overflows is the table's ValueError, word for word
    p = ClassParams(q=0.9, k=1e308)
    two, bracket = basic_number(np.array([2.0, p.lam + 1.0]), p.q).tolist()
    assert (two * (1.0 + p.k) - p.k - p.alpha) * bracket == math.inf
    with pytest.raises(ValueError) as single:
        criterion_weight(2, p)
    with pytest.raises(ValueError) as table:
        criterion_weights(p, order=2)
    assert str(single.value) == str(table.value) == "criterion weights overflow at k = 1e+308, lambda = 0.0"


def fresh_weights(p: ClassParams, n: int) -> np.ndarray:
    """Table-free reference: the weights for 2..n built at length n, with the
    overflow messages of criterion_weights, the kernel's first."""
    kernel = kernel_coeffs(p.lam, p.q, n)
    if not np.isfinite(kernel).all():
        raise ValueError(f"kernel coefficient overflows at lambda = {p.lam}, q = {p.q}")
    bracket = basic_number(np.arange(2.0, n + 1.0), p.q)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = (bracket * (1.0 + p.k) - p.k - p.alpha) * kernel
    if not np.isfinite(weights).all():
        raise ValueError(f"criterion weights overflow at k = {p.k}, lambda = {p.lam}")
    return weights


def outcome(build):
    """The bytes of a float result or array, or the message of its
    ValueError."""
    try:
        return np.asarray(build(), dtype=float).tobytes()
    except ValueError as exc:
        return str(exc)


def test_table_slices_are_bit_identical_to_a_fresh_build():
    # every reader slices the params' tables; each slice must equal a build
    # of its own length bit for bit, over the documented domain: q
    # log-uniform near 0, uniform, or log-uniform near 1, lam in (-1, 50],
    # alpha up to 0.999, k zero or log-uniform up to 1e300, trunc 2 to 4096,
    # plus a weight and a kernel overflow, an order above trunc and a short
    # order of the largest trunc
    rng = np.random.default_rng(1313)
    cases = [
        (ClassParams(q=0.5, k=1e308, trunc=64), (2, 3, 64)),
        (ClassParams(q=0.999999, lam=1000.0, trunc=2000), (2, 50, 2000)),
        (ClassParams(q=0.5, lam=1.0, alpha=0.3, k=2.0, trunc=16), (2, 8, 9, 16, 40)),
        (ClassParams(q=0.5, lam=1.0, alpha=0.3, k=2.0, trunc=2**18), (8,)),
    ]
    for _ in range(300):
        edge = int(rng.integers(3))
        if edge == 0:
            q = 10.0 ** rng.uniform(-6.0, -1.0)
        elif edge == 1:
            q = rng.uniform(1.0e-6, NEAR_ONE)
        else:
            q = 1.0 - 10.0 ** rng.uniform(-6.0, -1.0)
        k = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-3.0, 300.0)
        trunc = int(np.exp(rng.uniform(math.log(2.0), math.log(4096.0))))
        p = ClassParams(
            q=float(q),
            lam=float(min(-1.0 + 10.0 ** rng.uniform(-2.0, math.log10(51.0)), 50.0)),
            alpha=float(rng.uniform(0.0, 0.999)),
            k=float(k),
            trunc=trunc,
        )
        cases.append((p, (2, int(rng.integers(2, trunc + 1)), trunc)))
    messages = set()
    for p, orders in cases:
        for n in orders:
            want = outcome(lambda: fresh_weights(p, n))
            assert outcome(lambda: criterion_weights(p, order=n)) == want, (p, n)
            if isinstance(want, str):
                messages.add(want.split(" overflow")[0])
            else:
                assert outcome(lambda: criterion_weight(n, p)) == want[-8:], (p, n)
            f = PowerSeries(rng.uniform(0.0, 1.0, n - 1), Sign.MINUS)
            kernel = kernel_coeffs(p.lam, p.q, n)
            if np.isfinite(kernel).all():
                expected = PowerSeries(np.asarray(f.coeffs) * kernel, Sign.MINUS)
                assert ruscheweyh(f, p) == expected, (p, n)
            else:
                with pytest.raises(ValueError, match="^kernel coefficient overflows"):
                    ruscheweyh(f, p)
    assert messages == {"kernel coefficient", "criterion weights"}


def test_params_builds_each_table_once_and_copies_carry_none():
    p = ClassParams(q=0.5, lam=1.0, alpha=0.3, k=2.0, trunc=32)
    weights = criterion_weights(p)
    for order in (2, 8, 17):
        assert criterion_weights(p, order=order).base is weights.base
    w2 = criterion_weight(2, p)
    for copied in (
        pickle.loads(pickle.dumps(p)),
        copy.deepcopy(p),
        copy.copy(p),
        dataclasses.replace(p),
    ):
        assert copied == p and hash(copied) == hash(p)
        assert "_table" not in vars(copied)
        assert criterion_weight(2, copied) == w2
        rebuilt = criterion_weights(copied)
        assert rebuilt.tobytes() == weights.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            rebuilt[0] = 1.0


@pytest.mark.parametrize("order", [0, -1, 2**18 + 1, 2.5, True])
def test_an_order_outside_the_table_ceiling_is_refused_before_any_build(order):
    # a slice [: order - 1] at order 0 would read 62 weights at trunc 64,
    # an order far above the ceiling would allocate its whole table, and a
    # float order would reach the slice as a numpy TypeError
    p = ClassParams(q=0.5)
    with pytest.raises(ValueError, match=rf"^order must lie in \[1, 262144\], got {order}$"):
        criterion_weights(p, order=order)
    assert "_table" not in vars(p)
    assert criterion_weights(p, order=1).size == 0


def test_returned_weight_slices_are_read_only():
    p = ClassParams(q=0.5, lam=1.0, trunc=16)
    for order in (None, 2, 9):
        weights = criterion_weights(p, order=order)
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 1.0
    assert criterion_weights(p, order=2)[0] == criterion_weight(2, p)
    # an order above trunc is built fresh and stays out of the table
    longer = criterion_weights(p, order=20)
    assert longer.size == 19 and longer.tobytes() == fresh_weights(p, 20).tobytes()
    assert criterion_weights(p).size == 15


def test_threads_sharing_one_params_object_read_equal_tables():
    # the lazy tables have no lock: two threads may both build one, and
    # every reader must still get equal, read-only weights
    want = fresh_weights(ClassParams(q=0.9, lam=2.0, k=1.0, trunc=4096), 4096).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            p = ClassParams(q=0.9, lam=2.0, k=1.0, trunc=4096)
            got = []
            workers = [
                threading.Thread(target=lambda: got.append(criterion_weights(p))) for _ in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
            assert len(got) == 8
            assert all(w.tobytes() == want and not w.flags.writeable for w in got)
    finally:
        sys.setswitchinterval(interval)
