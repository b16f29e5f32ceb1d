"""Composite Simpson rule for sampled data on one axis, with numpy alone.

simpson is a port of the one-dimensional case of scipy.integrate.simpson
with sample points x (scipy 1.17).  It performs scipy's float operations in
scipy's order, on the same kinds of numpy objects, so every result is
bit-identical to scipy's; scipy itself is not imported, which keeps it out of
the package's dependencies and out of the start-up time of every CLI call.
"""

from __future__ import annotations

import numpy as np


def _basic_simpson(y: np.ndarray, stop: int, x: np.ndarray):
    """Simpson's rule over the panels [i, i + 2] for even i < stop."""
    y0, y1, y2 = y[0:stop:2], y[1:stop + 1:2], y[2:stop + 2:2]
    h = np.diff(x)
    h0 = h[0:stop:2].astype(float, copy=False)
    h1 = h[1:stop + 1:2].astype(float, copy=False)
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = np.true_divide(h0, h1, out=np.zeros_like(h0), where=h1 != 0)
    tmp = hsum / 6.0 * (y0 * (2.0 - np.true_divide(1.0, h0divh1, out=np.zeros_like(h0divh1),
                                                   where=h0divh1 != 0))
                        + y1 * (hsum * np.true_divide(hsum, hprod, out=np.zeros_like(hsum),
                                                      where=hprod != 0))
                        + y2 * (2.0 - h0divh1))
    return np.sum(tmp)


def simpson(y, x):
    """int y over the samples y taken at the points x.

    An even sample count takes Simpson's rule up to the third-last point and
    Cartwright's correction for the last interval.
    """
    y = np.asarray(y)
    if y.ndim != 1 or len(y) < 3:
        raise ValueError("Simpson's rule needs a 1-D array of at least three samples")
    x = np.asarray(x)
    if x.shape != y.shape:
        raise ValueError("x must have the shape of y")
    n = len(y)
    if n % 2:
        return _basic_simpson(y, n - 2, x)
    result = _basic_simpson(y, n - 3, x)
    diffs = np.float64(np.diff(x))
    h = [np.squeeze(diffs[-2:-1], axis=-1), np.squeeze(diffs[-1:], axis=-1)]
    num = 2 * h[1] ** 2 + 3 * h[0] * h[1]
    den = 6 * (h[1] + h[0])
    alpha = np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)
    num = h[1] ** 2 + 3.0 * h[0] * h[1]
    den = 6 * h[0]
    beta = np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)
    num = 1 * h[1] ** 3
    den = 6 * h[0] * (h[0] + h[1])
    eta = np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)
    result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    result += 0.0   # scipy adds its (here zero) two-point term; it turns -0.0 into 0.0
    return result
