"""Truncated power series on the unit disc, normalized to f(z) = z +- sum a_n z^n.

The leading coefficient of z is always an implicit 1.  A series stores only
the tail magnitudes (a_2, ..., a_N) together with a sign convention: PLUS for
z + sum a_n z^n with arbitrary real a_n, MINUS for z - sum a_n z^n with
a_n >= 0 (the negative-coefficient family the membership machinery works in).

The operations are the q-difference derivative, Horner evaluation at
arbitrary points (poly_eval) and evaluation on circles (SampleGrid.values,
which checks its radii once, and the unchecked _ring behind it).
Coefficients are real, so p(conj z) = conj p(z): _ring evaluates only the
closed upper half of each circle, and the lower half is its mirror image.
The table r^n that scales a ring depends only on the radii and the order,
so _powers keeps it, read-only, in an 8-entry lru_cache keyed on the radii
tuple and the order: at most 8 tables of len(radii) x order doubles are
kept, each the array one ring call would otherwise build and free.

Series are immutable values; all operations return fresh objects or
read-only arrays and are safe for concurrent use.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass

import numpy as np

from .qcore import _MAX_ORDER, _check_q, _is_count, basic_number


class Sign(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class PowerSeries:
    """coeffs is a tuple of Python floats and sign a Sign; equality and
    hashing read them alone.  The coefficients are checked once, here, and
    the series keeps its signed tail as a read-only array, which tail()
    returns and full() reads.  The order is at most qcore's _MAX_ORDER, the
    trunc ceiling."""

    coeffs: tuple[float, ...]
    sign: Sign = Sign.PLUS

    def __post_init__(self) -> None:
        if not isinstance(self.sign, Sign):
            raise TypeError(f"sign must be a Sign, got {self.sign!r}")
        try:
            arr = np.array(self.coeffs, dtype=float)
        except OverflowError:  # an int beyond the float range
            raise ValueError("series coefficients must be finite") from None
        if arr.ndim != 1:
            raise TypeError("series coefficients must be a flat sequence of numbers")
        if arr.size + 1 > _MAX_ORDER:
            raise ValueError(f"series order must be at most {_MAX_ORDER}, got {arr.size + 1}")
        if not np.isfinite(arr).all():
            raise ValueError("series coefficients must be finite")
        if self.sign is Sign.MINUS and (arr < 0.0).any():
            raise ValueError("MINUS-convention series needs nonnegative coefficients")
        tail = -arr if self.sign is Sign.MINUS else arr
        tail.flags.writeable = False
        object.__setattr__(self, "coeffs", tuple(arr.tolist()))
        object.__setattr__(self, "_tail", tail)

    def __reduce__(self):
        # pickle and deepcopy rebuild through __post_init__, so the copy's
        # tail is read-only as well
        return PowerSeries, (self.coeffs, self.sign)

    @property
    def order(self) -> int:
        """Truncation order N: the series runs z, z^2, ..., z^N."""
        return len(self.coeffs) + 1

    def tail(self) -> np.ndarray:
        """Signed coefficients (c_2, ..., c_N), the kept read-only array: no
        copy is made, for either sign."""
        return self._tail

    def full(self) -> np.ndarray:
        """Ascending polynomial coefficients (0, 1, c_2, ..., c_N)."""
        return np.concatenate(([0.0, 1.0], self.tail()))

    def to_dict(self) -> dict:
        return {"sign": self.sign.value, "coeffs": list(self.coeffs)}

    @classmethod
    def from_dict(cls, data: dict) -> "PowerSeries":
        """The inverse of to_dict, on parsed JSON.  Each problem is a
        TypeError: data that is not an object and coeffs that is not an
        array name the JSON type found, a missing key names the key, a
        coefficient that is not an int or a float (a string, a bool, null)
        names the entry, and a sign other than "plus" or "minus" names the
        value found and the two allowed."""
        if not isinstance(data, dict):
            raise TypeError(f"a series must be a JSON object, got {_json_type(data)}")
        if "coeffs" not in data:
            raise TypeError('a series needs the key "coeffs"')
        coeffs = data["coeffs"]
        if not isinstance(coeffs, list):
            raise TypeError(f"coeffs must be a JSON array, got {_json_type(coeffs)}")
        for i, c in enumerate(coeffs):
            if isinstance(c, bool) or not isinstance(c, (int, float)):
                raise TypeError(f"coeffs[{i}] must be a number, got {c!r}")
        if "sign" not in data:
            raise TypeError('a series needs the key "sign"')
        sign = data["sign"]
        if sign not in ("plus", "minus"):
            raise TypeError(f'sign must be "plus" or "minus", got {json.dumps(sign)}')
        return cls(coeffs, Sign(sign))


def _json_type(value) -> str:
    """The JSON name of the type of a parsed JSON value."""
    names = {dict: "object", list: "array", str: "string", int: "number", float: "number",
             bool: "boolean", type(None): "null"}
    return names.get(type(value), type(value).__name__)


DEFAULT_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class SampleGrid:
    """Deterministic disc sampling: n_angles equally spaced angles, a
    positive integer, on a nonempty set of radii.  The radii are checked
    once, here, and kept as a tuple of Python floats, which equality and
    hashing read and values() hands to the ring unchecked."""

    radii: tuple[float, ...] = DEFAULT_RADII
    n_angles: int = 64

    def __post_init__(self) -> None:
        radii = np.array(self.radii, dtype=float)
        if radii.ndim != 1 or not np.all((0.0 < radii) & (radii < 1.0)):
            raise ValueError("grid radii must lie in (0, 1)")
        if not radii.size:
            raise ValueError(f"grid radii must name at least one radius, got {self.radii!r}")
        if not (_is_count(self.n_angles) and self.n_angles >= 1):
            raise ValueError(f"n_angles must be a positive integer, got {self.n_angles!r}")
        object.__setattr__(self, "radii", tuple(radii.tolist()))

    def values(self, coeffs) -> np.ndarray:
        """Values of a real ascending coefficient sequence, or a stack of
        them, from one _ring call: one row per grid radius, the closed
        upper half of its ring.  This is the checked entry to _ring."""
        return _ring(np.asarray(coeffs, dtype=float), self.radii, self.n_angles)


def poly_eval(coeffs, z):
    """Horner evaluation of an ascending coefficient sequence at z.

    z may be a complex scalar or an ndarray; the result matches its shape.
    """
    arr = np.asarray(z, dtype=complex)
    vals = np.polyval(np.asarray(coeffs)[::-1], arr)
    return complex(vals) if arr.ndim == 0 else vals


@functools.lru_cache(maxsize=8)
def _powers(radii: tuple[float, ...], order: int) -> np.ndarray:
    """The read-only table r^n, shape (len(radii), order), n = 0..order-1:
    the array a ring call builds, kept per (radii, order) for every later
    call at that key.  At most 8 are kept."""
    powers = np.array(radii)[:, None] ** np.arange(order)
    powers.flags.writeable = False
    return powers


def _ring(c: np.ndarray, radii: tuple[float, ...], nodes: int) -> np.ndarray:
    """Values of real ascending coefficient sequences on the closed upper half
    ring z_j = r e^{2 pi i j / nodes}, j = 0..nodes//2; the lower half holds
    their conjugates.  Nothing is checked: c is a float array of shape
    (..., order), one sequence or a stack of them, radii a tuple of floats
    in [0, 1), and nodes a positive int.  The shape is c.shape[:-1] +
    (len(radii), nodes//2 + 1), and each row is bit-identical to its own
    single-sequence, single-radius call.  The table r^n is _powers(radii,
    order), built at the first call at that key and kept.

    c_n r^n is added into bin n mod nodes, exact at the nodes-th roots of
    unity, so any order is accepted; one real FFT per row of the bins gives
    the conjugate values.  An order above nodes is folded by one sum over
    blocks of nodes bins, the last padded with -0.0 and the sum started
    from it: -0.0 is the additive identity that keeps the sign of a zero.
    numpy adds a non-last axis block by block, in order, so each bin is bit
    for bit the sum of its terms left to right; at nodes = 1 the blocks
    axis is the contiguous one, and the value at z = r is numpy's pairwise
    sum instead."""
    order = c.shape[-1]
    scaled, powers = c[..., None, :], _powers(radii, order)
    if order <= nodes:
        scaled = scaled * powers
    else:
        rows, blocks = c.shape[:-1] + (len(radii),), -(-order // nodes)
        padded = np.empty(rows + (blocks * nodes,))
        np.multiply(scaled, powers, out=padded[..., :order])
        padded[..., order:] = -0.0
        scaled = padded.reshape(rows + (blocks, nodes)).sum(axis=-2, initial=-0.0)
    values = np.fft.rfft(scaled, n=nodes)
    return np.conj(values, out=values)


def q_derivative(f: PowerSeries, q: float) -> np.ndarray:
    """Ascending coefficients of the q-difference derivative of f.

    The result is the sequence (1, [2] c_2, ..., [N] c_N) placed at powers
    z^0..z^{N-1}.  Evaluated at any z != 0 it reproduces the difference
    quotient (f(z) - f(qz)) / ((1-q) z) exactly, both being finite sums; the
    constant term is the z -> 0 value f'(0) = 1.  q is checked as ClassParams
    checks it.
    """
    _check_q(q)
    c = f.full()
    return basic_number(np.arange(1.0, len(c)), q) * c[1:]
