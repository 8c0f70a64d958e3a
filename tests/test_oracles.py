"""Closed-form oracle ladder: the Aubin-Talenti family at critical (n, p).

On the flat model at the critical power q = p* - 1 the radial solution with
u(0) = alpha is u = alpha (1 + c r^s)^(-m), s = p/(p-1), m = (n-p)/p and
c = (alpha^q/n)^(1/(p-1)) / (alpha m s). Its gradient energy has the
Beta-function closed form below, so u, u' and E are all pinned at p != 2
as well as at p = 2.
"""

import math

import numpy as np
import pytest
from scipy.special import beta, betainc

import plaplace as pl
from conftest import make_run

R = 20.0
RADII = (0.3, 1.0, 5.0, 19.0)
PAIRS = ((3, 2.0), (4, 2.0), (4, 3.0), (5, 1.5), (6, 2.5))
ALPHAS = (0.5, 1.0, 3.0)


def _constants(n, p, alpha):
    q = n * p / (n - p) - 1.0
    s = p / (p - 1.0)
    m = (n - p) / p
    c = (alpha ** q / n) ** (1.0 / (p - 1.0)) / (alpha * m * s)
    return q, s, m, c


def aubin_talenti(r, n, p, alpha):
    """(u, u') of the critical flat solution with u(0) = alpha."""
    _, s, m, c = _constants(n, p, alpha)
    r = np.asarray(r, dtype=float)
    base = 1.0 + c * r ** s
    return alpha * base ** (-m), -alpha * m * s * c * r ** (s - 1.0) * base ** (-m - 1.0)


def aubin_talenti_energy(r, n, p, alpha):
    """E(r) = n omega_n int_0^r |u'|^p t^(n-1) dt in closed form.

    With t = c r^s the integrand becomes t^(n/s) (1+t)^(-n), an incomplete
    Beta integral: E = n omega_n (alpha m s c)^p c^(-1-n/s)
    B(1+n/s, m) I_x(1+n/s, m) / s with x = c r^s / (1 + c r^s).
    """
    _, s, m, c = _constants(n, p, alpha)
    a = 1.0 + n / s
    x = c * np.asarray(r, dtype=float) ** s
    x = x / (1.0 + x)
    return (n * pl.unit_ball_volume(n) * (alpha * m * s * c) ** p
            * c ** (-1.0 - n / s) * beta(a, m) * betainc(a, m, x) / s)


def test_energy_closed_form_at_n4_p2():
    # (4, 2, 3) with alpha = 2 sqrt(2): c = 1 and E(inf) = 32 pi^2 / 3
    alpha = 2.0 * math.sqrt(2.0)
    assert _constants(4, 2.0, alpha)[3] == pytest.approx(1.0, rel=1e-15)
    assert aubin_talenti_energy(1e12, 4, 2.0, alpha) == pytest.approx(
        32.0 * math.pi ** 2 / 3.0, rel=1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n,p", PAIRS)
def test_aubin_talenti_ladder(n, p, alpha):
    q = _constants(n, p, alpha)[0]
    run = make_run("euclidean", n, p, q, alpha, rmax=R)
    u_exact, du_exact = aubin_talenti(RADII, n, p, alpha)
    u = run.sol.eval_u(np.array(RADII))
    du = run.sol.eval_du(np.array(RADII))
    assert np.max(np.abs(u - u_exact) / u_exact) < 1e-6
    assert np.max(np.abs(du - du_exact) / np.abs(du_exact)) < 1e-6
    # the integrated equation between rows, which reads w near the pole too
    assert pl.flux_residual(run.sol) < 5e-9

    rep = pl.functional_traces(run.sol, run.prof)
    keep = rep.r >= RADII[0]
    E_exact = aubin_talenti_energy(rep.r[keep], n, p, alpha)
    assert np.max(np.abs(rep.E[keep] - E_exact) / E_exact) < 1e-8
