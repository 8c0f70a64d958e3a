"""Limit acceleration from dyadic samples."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import plaplace as pl


@given(
    L=st.floats(-10.0, 10.0),
    c=st.floats(0.1, 10.0),
    s=st.floats(0.2, 3.0),
)
def test_richardson_exact_on_algebraic_model(L, c, s):
    """Samples following f(R) = L + c R^{-s} are extrapolated to L."""
    radii = [10.0, 20.0, 40.0]
    vals = [L + c * R ** (-s) for R in radii]
    limit, err = pl.richardson(vals)
    assert abs(limit - L) <= 1e-9 * (abs(L) + c)
    assert err >= abs(limit - L) - 1e-12


def test_richardson_fallbacks():
    limit, err = pl.richardson([3.0])
    assert limit == 3.0 and math.isinf(err)
    limit, err = pl.richardson([3.0, 4.0])
    assert limit == 4.0 and err == 1.0
    # non-contracting differences: report the raw tail
    limit, err = pl.richardson([1.0, 3.0, 2.0])
    assert limit == 2.0 and err == 1.0
    # exactly stalled sequence
    limit, err = pl.richardson([1.0, 2.0, 2.0])
    assert limit == 2.0 and err == 1.0


def test_log_slope_recovers_line():
    r = np.geomspace(1.0, 100.0, 20)
    v = 2.5 * np.log(r) - 1.0
    slope, intercept = pl.log_slope(r, v)
    assert slope == pytest.approx(2.5, rel=1e-12)
    assert intercept == pytest.approx(-1.0, abs=1e-10)
