"""Reference implementations the tests compare the package against.

ruscheweyh applies the Ruscheweyh q-differential operator to f, as a new
PowerSeries: each tail coefficient times the kernel coefficient
[lam+1]_{n-1} / [n-1]! (all ones for lam = 0, the convolution identity
z/(1-z)), with the sign convention kept, since the kernel is positive.  The
kernel comes from the params' tables; a kernel coefficient beyond the
double range is a ValueError.  criterion_min_margin computes the same
transform as the first row of the array it evaluates on its grid.

circle_integral is the trapezoid integral of modulus**eta over a full turn
from the closed upper half ring (last axis), as the package computed it
before it worked from the log-modulus: numpy's power, then the node weights
1, 2, ..., 2, 1 as the sum of every node plus the sum of the inner ones,
times 2 pi / nodes.  It refuses nothing; overflow is silenced and an inf
or a NaN comes back as it is.
"""

import numpy as np

from qstarlike import ClassParams, PowerSeries
from qstarlike.qcore import _tables


def ruscheweyh(f: PowerSeries, params: ClassParams) -> PowerSeries:
    return PowerSeries(np.asarray(f.coeffs) * _tables(params, f.order)[0], f.sign)


def circle_integral(modulus: np.ndarray, eta: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        powered = modulus**eta
        weighted = np.sum(powered, axis=-1) + np.sum(powered[..., 1:-1], axis=-1)
    return weighted * (np.pi / (powered.shape[-1] - 1))
