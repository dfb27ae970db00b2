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

import numpy as np

# q is kept strictly inside (0, 1); the upper bound still admits the
# near-classical regime q = 1 - 1e-6 used by the limit checks.
Q_MIN = 1.0e-6
Q_MAX = 1.0 - 1.0e-6


@dataclass(frozen=True)
class ClassParams:
    """Parameter tuple (q, lam, alpha, k) of the starlike class, plus trunc,
    the order of generated members; a given series keeps its own order.
    trunc is at most 2**18, so no table it sizes outgrows memory."""

    q: float
    lam: float = 0.0
    alpha: float = 0.0
    k: float = 0.0
    trunc: int = 64

    def __post_init__(self) -> None:
        if not Q_MIN <= self.q <= Q_MAX:
            raise ValueError(f"q must lie in [{Q_MIN:g}, {Q_MAX}], got {self.q}")
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
        if not 2 <= self.trunc <= 2**18:
            raise ValueError(f"trunc must lie in [2, {2**18}], got {self.trunc}")


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


def _finite_kernel(lam: float, q: float, top: int) -> np.ndarray:
    """kernel_coeffs(lam, q, top), a ValueError if an entry overflows."""
    kernel = kernel_coeffs(lam, q, top)
    if not np.isfinite(kernel).all():
        raise ValueError(f"kernel coefficient overflows at lambda = {lam}, q = {q}")
    return kernel


def ruscheweyh_coeff(n: int, lam: float, q: float) -> float:
    """Coefficient of z**n in the Ruscheweyh convolution kernel, n >= 2:
    the last entry of kernel_coeffs(lam, q, n), a ValueError if it overflows."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return float(_finite_kernel(lam, q, n)[-1])


def _weights_overflow(params: ClassParams) -> ValueError:
    return ValueError(f"criterion weights overflow at k = {params.k}, lambda = {params.lam}")


def criterion_weights(params: ClassParams, order: int | None = None) -> np.ndarray:
    """Weights ([n](1+k) - k - alpha) * kernel_n multiplying |a_n| in the
    sufficient membership condition, for n = 2..order (default trunc).

    Strictly positive under the parameter domain, since
    [n] >= 1 + q > 1 >= (k + alpha) / (1 + k).  A kernel entry that
    overflows is the ValueError of _finite_kernel; a weight that overflows,
    as a k near the float maximum makes it, is a ValueError naming k.
    """
    top = params.trunc if order is None else order
    bracket = basic_number(np.arange(2.0, top + 1.0), params.q)
    with np.errstate(over="ignore"):
        factor = bracket * (1.0 + params.k) - params.k - params.alpha
        weights = factor * _finite_kernel(params.lam, params.q, top)
    if not np.isfinite(weights).all():
        raise _weights_overflow(params)
    return weights


def criterion_weight(n: int, params: ClassParams) -> float:
    """Weight of |a_n| in the membership condition, n >= 2: the last entry
    of criterion_weights(params, order=n).  w_2 is the closed form
    ([2](1+k) - k - alpha) [lam+1], bit-identical to the table entry: both
    brackets come from one basic_number call and the kernel's divisor is
    [1] = 1.  An overflow is the table's ValueError."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n > 2:
        return float(criterion_weights(params, order=n)[-1])
    two, kernel = basic_number(np.array([2.0, params.lam + 1.0]), params.q).tolist()
    weight = (two * (1.0 + params.k) - params.k - params.alpha) * kernel
    if not math.isfinite(weight):
        raise _weights_overflow(params)
    return weight
