"""Shared fixtures: solved trajectories and geometry profiles.

The expensive runs (ODE solves, geometry quadratures, the staged
oscillating construction) are session-scoped so every test file reuses
the same objects.
"""

import math
import time
from types import SimpleNamespace

import pytest

import plaplace as pl


def make_run(descriptor, n, p, q, alpha, rmax=None, rel_tol=1e-11,
             abs_tol=1e-14):
    """Solve one radial problem and tabulate its geometry profile."""
    model = pl.make_model(descriptor)
    prob = pl.Problem(n, p, q, alpha)
    if rmax is None:
        rmax = min(60.0, pl.safe_horizon(model, n))
    sol = pl.integrate(prob, model,
                       pl.SolverConfig(rmax, rel_tol=rel_tol, abs_tol=abs_tol))
    prof = pl.geometry_profile(model, n, p, sol.r_last)
    return SimpleNamespace(model=model, prob=prob, sol=sol, prof=prof)


@pytest.fixture(scope="session")
def eu_run():
    """Euclidean, supercritical power (n=3, p=2, q=5)."""
    return make_run("euclidean", 3, 2.0, 5.0, 1.0, rmax=60.0)


@pytest.fixture(scope="session")
def eu_crit_run():
    """Euclidean critical with the closed-form profile u = 2 sqrt(2)/(1+r^2)."""
    return make_run("euclidean", 4, 2.0, 3.0, 2.0 * math.sqrt(2.0), rmax=100.0)


@pytest.fixture(scope="session")
def hy_run():
    """Hyperbolic, critical power for n=3, p=2."""
    return make_run("hyperbolic", 3, 2.0, 5.0, 1.0, rmax=60.0)


@pytest.fixture(scope="session")
def ep_run():
    """ExpPower{c=1, m=3}: the incomplete (plateau) case."""
    return make_run("exppower:c=1,m=3", 3, 2.0, 5.0, 1.0)


@pytest.fixture(scope="session")
def eg_run():
    """ExpGamma{c=1, gamma=1/2}: complete, sub-exponential growth."""
    return make_run("expgamma:c=1,gamma=0.5", 3, 2.0, 5.0, 1.0, rmax=60.0)


@pytest.fixture(scope="session")
def oscillation():
    """Four-stage oscillating construction at n=3, p=2, q=5."""
    start = time.perf_counter()
    model, sol, cert, prof = pl.construct(3, 2.0, 5.0, 1.0, 4)
    elapsed = time.perf_counter() - start
    return SimpleNamespace(model=model, sol=sol, cert=cert, prof=prof,
                           elapsed=elapsed)
