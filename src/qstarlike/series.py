"""Truncated power series on the unit disc, normalized to f(z) = z +- sum a_n z^n.

The leading coefficient of z is always an implicit 1.  A series stores only
the tail magnitudes (a_2, ..., a_N) together with a sign convention: PLUS for
z + sum a_n z^n with arbitrary real a_n, MINUS for z - sum a_n z^n with
a_n >= 0 (the negative-coefficient family the membership machinery works in).

Series are immutable values; all operations return fresh objects and are safe
for concurrent use.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .qcore import ClassParams, basic_number, kernel_coeffs


class Sign(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class PowerSeries:
    coeffs: tuple[float, ...]
    sign: Sign = Sign.PLUS

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if self.sign is Sign.MINUS and any(c < 0.0 for c in self.coeffs):
            raise ValueError("MINUS-convention series needs nonnegative coefficients")

    @property
    def order(self) -> int:
        """Truncation order N: the series runs z, z^2, ..., z^N."""
        return len(self.coeffs) + 1

    def tail(self) -> np.ndarray:
        """Signed coefficients (c_2, ..., c_N)."""
        t = np.asarray(self.coeffs, dtype=float)
        return -t if self.sign is Sign.MINUS else t

    def full(self) -> np.ndarray:
        """Ascending polynomial coefficients (0, 1, c_2, ..., c_N)."""
        return np.concatenate(([0.0, 1.0], self.tail()))

    def to_dict(self) -> dict:
        return {"sign": self.sign.value, "coeffs": list(self.coeffs)}

    @classmethod
    def from_dict(cls, data: dict) -> "PowerSeries":
        return cls(tuple(data["coeffs"]), Sign(data["sign"]))

    @classmethod
    def identity(cls, trunc: int = 2) -> "PowerSeries":
        """The function f(z) = z at the given truncation order."""
        return cls((0.0,) * (trunc - 1))


@dataclass(frozen=True)
class DiscPoint:
    """A sample point z = r e^{i theta} strictly inside the unit disc."""

    r: float
    theta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"r must lie in [0, 1), got {self.r}")

    def z(self) -> complex:
        return self.r * complex(math.cos(self.theta), math.sin(self.theta))


DEFAULT_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class SampleGrid:
    """Deterministic disc sampling: equally spaced angles on a set of radii."""

    radii: tuple[float, ...] = DEFAULT_RADII
    n_angles: int = 64

    def __post_init__(self) -> None:
        if any(not 0.0 < r < 1.0 for r in self.radii):
            raise ValueError("grid radii must lie in (0, 1)")
        if self.n_angles < 1:
            raise ValueError("n_angles must be positive")

    def points(self) -> np.ndarray:
        """All grid points as a flat complex array, radius-major order."""
        theta = np.arange(self.n_angles) * (2.0 * np.pi / self.n_angles)
        ring = np.exp(1j * theta)
        return (np.asarray(self.radii)[:, None] * ring[None, :]).ravel()


def poly_eval(coeffs, z):
    """Horner evaluation of an ascending coefficient sequence at z.

    z may be a complex scalar or an ndarray; the result matches its shape.
    """
    arr = np.asarray(z, dtype=complex)
    vals = npoly.polyval(arr, np.asarray(coeffs))
    return complex(vals) if arr.ndim == 0 else vals


def evaluate(f: PowerSeries, z):
    """Value of the series at z, |z| < 1 (scalar or array)."""
    arr = np.asarray(z, dtype=complex)
    if np.any(np.abs(arr) >= 1.0):
        raise ValueError("series evaluation requires |z| < 1")
    return poly_eval(f.full(), z)


def q_derivative(f: PowerSeries, q: float) -> np.ndarray:
    """Ascending coefficients of the q-difference derivative of f.

    The result is the sequence (1, [2] c_2, ..., [N] c_N) placed at powers
    z^0..z^{N-1}.  Evaluated at any z != 0 it reproduces the difference
    quotient (f(z) - f(qz)) / ((1-q) z) exactly, both being finite sums; the
    constant term is the z -> 0 value f'(0) = 1.
    """
    c = f.full()
    return basic_number(np.arange(1.0, len(c)), q) * c[1:]


def hadamard(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Coefficient-wise (convolution) product of two series.

    The implicit leading coefficients multiply to 1, so the result is again
    normalized.  A shorter series is padded with zeros.  The result is tagged
    MINUS when every tail product is nonpositive (and at least one negative),
    which keeps the negative-coefficient family closed under convolution with
    nonnegative kernels.
    """
    a, b = f.tail(), g.tail()
    if len(a) < len(b):
        a = np.pad(a, (0, len(b) - len(a)))
    elif len(b) < len(a):
        b = np.pad(b, (0, len(a) - len(b)))
    prod = a * b
    if prod.size and np.any(prod < 0.0) and np.all(prod <= 0.0):
        return PowerSeries(tuple(-prod), Sign.MINUS)
    return PowerSeries(tuple(prod), Sign.PLUS)


def ruscheweyh_kernel(params: ClassParams) -> PowerSeries:
    """Convolution kernel of the Ruscheweyh q-differential operator.

    Tail coefficients are [lam+1]_{n-1} / [n-1]!; for lam = 0 this is the
    truncated geometric series z/(1-z), the convolution identity.
    """
    return PowerSeries(tuple(kernel_coeffs(params.lam, params.q, params.trunc)), Sign.PLUS)


def ruscheweyh(f: PowerSeries, params: ClassParams) -> PowerSeries:
    """Apply the Ruscheweyh q-differential operator to f.

    Scales each tail coefficient by the kernel coefficient; identical to
    hadamard(f, ruscheweyh_kernel(params)) and preserves the sign convention
    because the kernel coefficients are positive.
    """
    weights = kernel_coeffs(params.lam, params.q, f.order)
    return PowerSeries(tuple(np.asarray(f.coeffs) * weights), f.sign)


def ruscheweyh_q_derivative(f: PowerSeries, params: ClassParams) -> np.ndarray:
    """Ascending coefficients of D_q applied to the Ruscheweyh transform.

    The coefficient at z^{n-1} is [n] times the kernel coefficient times c_n.
    """
    return q_derivative(ruscheweyh(f, params), params.q)
