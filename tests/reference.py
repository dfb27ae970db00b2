"""Reference implementations the tests compare the package against.

ruscheweyh applies the Ruscheweyh q-differential operator to f, as a new
PowerSeries: each tail coefficient times the kernel coefficient
[lam+1]_{n-1} / [n-1]! (all ones for lam = 0, the convolution identity
z/(1-z)), with the sign convention kept, since the kernel is positive.  The
kernel comes from the params' tables; a kernel coefficient beyond the
double range is a ValueError.  criterion_min_margin computes the same
transform as the first row of the array it evaluates on its grid.
"""

import numpy as np

from qstarlike import ClassParams, PowerSeries
from qstarlike.qcore import _tables


def ruscheweyh(f: PowerSeries, params: ClassParams) -> PowerSeries:
    return PowerSeries(np.asarray(f.coeffs) * _tables(params, f.order)[0], f.sign)
