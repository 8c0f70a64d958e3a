"""Limit estimation from samples at geometrically spaced radii.

All asymptotic statements in this package are limits at infinity; at a
finite horizon the best one can do is sample at R, 2R, 4R, ... and
accelerate. Richardson extrapolation assumes an algebraic error model
f(R) = L + c R^{-s}. Every estimate comes with an error bar, never as an
exact value.
"""

import math

import numpy as np


def richardson(values):
    """Extrapolate a limit from f(R), f(2R), f(4R), ... samples.

    Fits the error model f(R) = L + c R^{-s} through the last three
    samples, solving for the decay exponent s from successive differences.
    Returns (limit, error_bar); the error bar is the size of the last
    correction applied. Falls back to the final sample when the
    differences do not behave (non-monotone or vanishing).
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return float(v[-1]), math.inf
    if v.size == 2:
        return float(v[-1]), abs(float(v[-1] - v[-2]))
    f0, f1, f2 = v[-3], v[-2], v[-1]
    d0, d1 = f1 - f0, f2 - f1
    if d1 == 0.0:
        return float(f2), abs(d0)
    ratio = d1 / d0 if d0 != 0.0 else 0.0
    if not (0.0 < ratio < 1.0):
        # no algebraic contraction visible; report the raw tail honestly
        return float(f2), abs(d1)
    # geometric tail sum: remaining error = d1 * ratio / (1 - ratio)
    limit = f2 + d1 * ratio / (1.0 - ratio)
    return float(limit), abs(float(limit - f2)) + abs(d1) * ratio


def log_slope(radii, values):
    """Least-squares slope of values against log(radii)."""
    t = np.log(np.asarray(radii, dtype=float))
    v = np.asarray(values, dtype=float)
    A = np.vstack([t, np.ones_like(t)]).T
    coef, *_ = np.linalg.lstsq(A, v, rcond=None)
    return float(coef[0]), float(coef[1])
