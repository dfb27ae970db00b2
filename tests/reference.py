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

sweep_integral_means is the sweep as the package computed it before it
kept the integrals of f_2 between calls: f and f_2 = z - a z^2 zero-padded
to a common order as one stack, one _integrals call for both, and the
range check on the (eta, side, r) result.
"""

import numpy as np

from qstarlike import ClassParams, PowerSeries, QuadratureConfig
from qstarlike.analysis import SweepRow, _check_integrals, _integrals
from qstarlike.classes import _extremal_coeff
from qstarlike.qcore import _tables


def ruscheweyh(f: PowerSeries, params: ClassParams) -> PowerSeries:
    return PowerSeries(np.asarray(f.coeffs) * _tables(params, f.order)[0], f.sign)


def circle_integral(modulus: np.ndarray, eta: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        powered = modulus**eta
        weighted = np.sum(powered, axis=-1) + np.sum(powered[..., 1:-1], axis=-1)
    return weighted * (np.pi / (powered.shape[-1] - 1))


def sweep_integral_means(f, params, r_values, eta_values, nodes):
    radii = [QuadratureConfig(nodes=nodes, r=float(r)).r for r in r_values]
    etas = [QuadratureConfig(nodes=nodes, eta=float(eta)).eta for eta in eta_values]
    stacked = np.zeros((2, max(f.order + 1, 3)))
    stacked[0, : f.order + 1] = f.full()
    stacked[1, :3] = (0.0, 1.0, -_extremal_coeff(2, params))
    sides = _check_integrals(_integrals(stacked, radii, etas, nodes), etas, radii).tolist()
    return [
        SweepRow(r, eta, lhs[i], rhs[i], rhs[i] - lhs[i])
        for i, r in enumerate(radii)
        for (lhs, rhs), eta in zip(sides, etas)
    ]
