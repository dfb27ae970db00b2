"""q-arithmetic primitives: brackets, the Ruscheweyh kernel coefficients,
and the coefficient weights of the starlike membership criterion.

Brackets use expm1, which stays accurate as q -> 1.  The kernel for
n = 2..top is one O(top) vectorized pass of running products, so q-gamma
ratios are always reduced to finite products and the gamma function is
never evaluated at a non-integer argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# q is kept strictly inside (0, 1); the upper bound still admits the
# near-classical regime q = 1 - 1e-6 used by the limit checks.
Q_MIN = 1.0e-6
Q_MAX = 1.0 - 1.0e-6

# The largest trunc, series order and table order: no table or ring that an
# order sizes outgrows memory.
_MAX_ORDER = 2**18

# The smallest normal double, below which a scale or an integral has lost
# precision.
_TINY = float(np.finfo(float).tiny)


def _check_q(q: float) -> None:
    """The q domain, stated once: q in [Q_MIN, Q_MAX], else a ValueError."""
    if not Q_MIN <= q <= Q_MAX:
        raise ValueError(f"q must lie in [{Q_MIN:g}, {Q_MAX}], got {q}")


def _is_count(value) -> bool:
    """Whether value is an integer, a numpy one included; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name: str, value, low: int, high: int) -> None:
    """value is an integer in [low, high], else a ValueError naming it: a
    value that is not an integer is told so apart from one out of range."""
    if not _is_count(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")


@dataclass(frozen=True)
class ClassParams:
    """Parameter tuple (q, lam, alpha, k) of the starlike class, plus trunc,
    the order of generated members; a given series keeps its own order.
    trunc is an integer of at most _MAX_ORDER.

    The kernel, the weights and the criterion's shift factors q [n-1] for
    n = 2..trunc are built once per object, on first use, and kept,
    read-only, in the instance dict, outside the fields: equality, hashing
    and dataclasses.replace ignore them, and a pickled or copied object
    carries none and rebuilds its own."""

    q: float
    lam: float = 0.0
    alpha: float = 0.0
    k: float = 0.0
    trunc: int = 64

    def __post_init__(self) -> None:
        _check_q(self.q)
        if not self.lam > -1.0:
            raise ValueError(f"lambda must be > -1, got {self.lam}")
        if not math.isfinite(self.lam):
            raise ValueError(f"lambda must be finite, got {self.lam}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not self.k >= 0.0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if not math.isfinite(self.k):
            raise ValueError(f"k must be finite, got {self.k}")
        _check_count("trunc", self.trunc, 2, _MAX_ORDER)

    def __reduce__(self):
        return ClassParams, (self.q, self.lam, self.alpha, self.k, self.trunc)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _build(self, self.trunc)


def _finite_prefix(table: np.ndarray) -> np.ndarray:
    """table up to its first entry that is not finite."""
    bad = np.flatnonzero(~np.isfinite(table))
    return table[: bad[0]] if bad.size else table


def basic_number(t, q: float):
    """[t] = (1 - q**t) / (1 - q), computed as expm1(t log q) / expm1(log q).

    Equals 1 + q + ... + q**(t-1) for integer t and tends to t as q -> 1.
    t may be a float or an array; the result is a float or an array.
    """
    log_q = math.log(q)
    out = np.expm1(np.multiply(t, log_q)) / np.expm1(log_q)
    return out if out.ndim else float(out)


def kernel_coeffs(lam: float, q: float, top: int) -> np.ndarray:
    """Ruscheweyh kernel coefficients [lam+1]_{n-1} / [n-1]! for n = 2..top.

    Each is the running product of [lam+1+j] over j < n-1 divided by the
    running product of [j+1].  Where either product overflows, the running
    product of the ratios [lam+1+j] / [j+1] is used instead; an entry beyond
    the double range even then comes back as +inf.
    """
    j = np.arange(top - 1, dtype=float)
    upper = basic_number((lam + 1.0) + j, q)
    lower = basic_number(j + 1.0, q)
    with np.errstate(over="ignore", invalid="ignore"):
        num, den = np.cumprod(upper), np.cumprod(lower)
        kernel = num / den
        overflow = ~(np.isfinite(num) & np.isfinite(den))
        if overflow.any():
            kernel[overflow] = np.cumprod(upper / lower)[overflow]
    return kernel


def _build(params: ClassParams, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel, weights ([n](1+k) - k - alpha) * kernel_n and the criterion's
    shift factors q [n-1] = [n] - 1, for n = 2..top, read-only, from one
    pass of brackets [1..top].  The kernel and the weights end before their
    first entry beyond the double range, so every kept entry is finite and
    a table shorter than top - 1 is one that overflows.  The shift factors
    depend on q alone and are at most 1 / (1 - q), so they run to top."""
    kernel = kernel_coeffs(params.lam, params.q, top)
    bracket = basic_number(np.arange(1.0, top + 1.0), params.q)
    shift = params.q * bracket[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        weights = (bracket[1:] * (1.0 + params.k) - params.k - params.alpha) * kernel
    kernel.flags.writeable = weights.flags.writeable = shift.flags.writeable = False
    return _finite_prefix(kernel), _finite_prefix(weights), shift


def _tables(params: ClassParams, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel, weights and shift factors for n = 2..top, read-only; the
    weights stop short of top - 1 entries where one overflows.  A top up to
    trunc reads prefix slices of the params' tables; a longer top, a given
    series longer than trunc, is built fresh.  A top that is not an integer
    in [1, _MAX_ORDER] is a ValueError naming the order before anything is
    built, and so is a kernel entry that overflows, naming lambda and q."""
    _check_count("order", top, 1, _MAX_ORDER)
    kernel, weights, shift = params._table if top <= params.trunc else _build(params, top)
    if kernel.size < top - 1:
        raise ValueError(f"kernel coefficient overflows at lambda = {params.lam}, q = {params.q}")
    return kernel[: top - 1], weights[: top - 1], shift[: top - 1]


def ruscheweyh_coeff(n: int, lam: float, q: float) -> float:
    """Coefficient of z**n in the Ruscheweyh convolution kernel, n >= 2:
    the order-n entry of the table of ClassParams(q, lam), which checks q
    and lambda; n must be an integer in [2, _MAX_ORDER], and a kernel that
    overflows is the table's ValueError."""
    _check_count("n", n, 2, _MAX_ORDER)
    return float(_tables(ClassParams(q=q, lam=lam), n)[0][-1])


def criterion_weights(params: ClassParams, order: int | None = None) -> np.ndarray:
    """Weights ([n](1+k) - k - alpha) * kernel_n multiplying |a_n| in the
    sufficient membership condition, for n = 2..order (default trunc):
    read-only, a slice of the params' table for an order up to trunc, and
    bit-identical to a fresh build at that order.

    Strictly positive under the parameter domain, since
    [n] >= 1 + q > 1 >= (k + alpha) / (1 + k).  Only the slice asked for is
    checked: a kernel entry in it that overflows is a ValueError naming
    lambda and q, and a weight that overflows, as a k near the float maximum
    makes it, is a ValueError naming k.
    """
    top = params.trunc if order is None else order
    weights = _tables(params, top)[1]
    if weights.size < top - 1:
        raise ValueError(f"criterion weights overflow at k = {params.k}, lambda = {params.lam}")
    return weights


def criterion_weight(n: int, params: ClassParams) -> float:
    """Weight of |a_n| in the membership condition, n >= 2: the last entry
    of criterion_weights(params, order=n), so w_2 is the table's first
    entry; n must be an integer in [2, _MAX_ORDER], and an overflow is the
    table's ValueError."""
    _check_count("n", n, 2, _MAX_ORDER)
    return float(criterion_weights(params, order=n)[-1])
