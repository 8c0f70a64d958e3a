"""Radial IVP solver: startup series, oracle solutions, invariants."""

import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

import plaplace as pl
from plaplace import solver


def test_problem_validation():
    with pytest.raises(pl.InvalidParameter):
        pl.Problem(3, 2.0, 4.0, 1.0)   # subcritical: p* - 1 = 5
    with pytest.raises(pl.InvalidParameter):
        pl.Problem(3, 3.5, 5.0, 1.0)   # p >= n
    with pytest.raises(pl.InvalidParameter):
        pl.Problem(3, 2.0, 5.0, -1.0)
    assert pl.Problem(3, 2.0, 5.0, 1.0).is_critical
    assert not pl.Problem(3, 2.0, 6.0, 1.0).is_critical


def test_series_startup_leading_order():
    # w(r0) ~ -r0^3/3 and u'(r0) ~ -r0/3 for the flat model, n=3, p=2,
    # q=5, alpha=1 (w' (0) = -alpha^q/n with I = r^n/n)
    prob = pl.Problem(3, 2.0, 5.0, 1.0)
    eu = pl.make_model("euclidean")
    r0 = 1e-3
    u0, w0 = pl.series_startup(prob, eu, r0)
    assert abs(w0 + r0 ** 3 / 3.0) < 1e-3 * r0 ** 3
    du0 = w0 / r0 ** 2  # p = 2: u' = w / psi^{n-1}
    assert abs(du0 + r0 / 3.0) < 1e-3 * r0
    assert 0.0 < u0 < 1.0


def test_euclidean_critical_oracle():
    """n=4, p=2, q=3: u = 2 sqrt(2)/(1+r^2) solves the radial equation."""
    alpha = 2.0 * math.sqrt(2.0)

    # independent residual oracle: finite differences on the closed form
    def u_exact(r):
        return alpha / (1.0 + r ** 2)

    for r in (0.5, 1.0, 5.0):
        h = 1e-5 * max(r, 1.0)
        du = (u_exact(r + h) - u_exact(r - h)) / (2 * h)
        ddu = (u_exact(r + h) - 2 * u_exact(r) + u_exact(r - h)) / h ** 2
        # -(u'' + (n-1)/r u') = u^q in R^4
        res = -(ddu + 3.0 / r * du) - u_exact(r) ** 3
        assert abs(res) < 1e-5 * u_exact(r) ** 3

    prob = pl.Problem(4, 2.0, 3.0, alpha)
    sol = pl.integrate(prob, pl.make_model("euclidean"), pl.SolverConfig(20.0))
    for r in (0.5, 1.0, 5.0):
        assert abs(sol.eval_u(r) - u_exact(r)) < 1e-6 * u_exact(r)


def test_scaling_symmetry():
    """Critical Euclidean solutions form a scaling family.

    If u has u(0) = alpha then lam^{(n-p)/p} u(lam r) is the solution with
    central value lam^{(n-p)/p} alpha.
    """
    n, p, q = 4, 2.0, 3.0
    lam = 1.5
    eu = pl.make_model("euclidean")
    sol1 = pl.integrate(pl.Problem(n, p, q, 1.0), eu, pl.SolverConfig(15.0))
    a2 = lam ** ((n - p) / p)
    sol2 = pl.integrate(pl.Problem(n, p, q, a2), eu, pl.SolverConfig(10.0))
    for r in (0.5, 1.0, 4.0):
        assert abs(sol2.eval_u(r) - a2 * sol1.eval_u(lam * r)) \
            < 1e-8 * a2 * sol1.eval_u(lam * r)


def test_solution_monotone_and_signs(hy_run):
    sol = hy_run.sol
    assert sol.u[0] == sol.problem.alpha
    assert np.all(np.diff(sol.u) <= 1e-14)
    assert np.all(sol.du[1:] < 0.0)
    assert np.all(sol.w[1:] < 0.0)
    assert sol.du[0] == 0.0 and sol.w[0] == 0.0


def test_evaluate_at_zero_and_knots(hy_run):
    sol = hy_run.sol
    assert sol.eval_u(0.0) == sol.problem.alpha
    assert sol.eval_du(0.0) == 0.0 and sol.eval_w(0.0) == 0.0
    i = len(sol.r) // 2
    assert sol.eval_u(sol.r[i]) == pytest.approx(sol.u[i], rel=1e-13)
    assert sol.eval_w(sol.r[i]) == pytest.approx(sol.w[i], rel=1e-12)
    with pytest.raises(pl.OutOfRange):
        sol.eval_u(sol.r_last * 2.0)


def test_flux_residual_small(hy_run, eu_crit_run):
    assert pl.flux_residual(hy_run.sol) < 1e-7
    assert pl.flux_residual(eu_crit_run.sol) < 1e-7


def _flux_integrand(sol):
    """Scalar psi^{n-1} u^q along the solution, for adaptive quadrature."""
    n, q = sol.problem.n, sol.problem.q
    return lambda s: math.exp(
        (n - 1) * float(sol.model.log_psi(s))
        + q * math.log(max(float(sol.eval_u(s)), 1e-300))
    )


def _flux_residual_quad_loop(sol, num=200):
    """The per-segment adaptive-quadrature flux residual, kept as reference."""
    idx = np.unique(np.linspace(1, len(sol.r) - 1, num).astype(int))
    worst = 0.0
    for i, j in zip(idx[:-1], idx[1:]):
        val, _ = quad(_flux_integrand(sol), sol.r[i], sol.r[j], limit=100)
        defect = abs(sol.w[j] - sol.w[i] + val)
        worst = max(worst, defect / max(abs(sol.w[j]), 1e-300))
    return worst


def test_flux_residual_matches_quad_loop(hy_run, ep_run):
    for run in (hy_run, ep_run):
        assert abs(pl.flux_residual(run.sol)
                   - _flux_residual_quad_loop(run.sol)) <= 1e-8


def test_flux_rule_matches_tight_quadrature(hy_run, ep_run):
    """Gauss-Legendre per knot interval against quad(epsrel=2e-14) on each."""
    for run in (hy_run, ep_run):
        sol = run.sol
        integrand = _flux_integrand(sol)
        idx = np.unique(np.linspace(1, len(sol.r) - 1, 200).astype(int))
        for k in (0, len(idx) // 2, len(idx) - 2):
            i, j = idx[k], idx[k + 1]
            ref = sum(quad(integrand, sol.r[m], sol.r[m + 1], epsabs=0.0,
                           epsrel=2e-14, limit=100)[0] for m in range(i, j))
            assert abs(solver._flux_integrals(sol, idx)[k] - ref) \
                <= 1e-12 * abs(sol.w[j])


def test_eval_array_matches_scalars(hy_run):
    """An array is evaluated point by point as its scalars would be, on both
    sides of the startup radius r_1; a 0-d input gives a float."""
    sol = hy_run.sol
    inside = np.geomspace(sol.r[1], sol.r_last, 500)
    mixed = np.concatenate([[0.0, 0.5 * sol.r[1]], inside])
    for ev in (sol.eval_u, sol.eval_du, sol.eval_w):
        for x in (inside, mixed):
            scalars = np.array([ev(v) for v in x])
            assert np.array_equal(ev(x), scalars)
        assert isinstance(ev(inside[3]), float)
    assert np.array_equal(sol.eval_u(sol.r), sol.u)


def test_dense_table_matches_ode_solution():
    """The array form of the DOP853 dense output gives OdeSolution's floats."""
    ode = solve_ivp(lambda t, y: [y[1], -y[0] - 0.1 * y[1] ** 3], (0.0, 20.0),
                    [1.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12,
                    dense_output=True).sol
    table = solver._DenseTable([ode])
    t = np.concatenate([ode.ts, np.linspace(0.0, 20.0, 1001)])
    assert np.array_equal(np.stack(table(t)), ode(t))
    grid = np.linspace(0.0, 20.0, 1000).reshape(-1, 8)
    assert np.array_equal(np.stack(table(grid)).reshape(2, -1), ode(grid.ravel()))


def test_underflow_termination():
    """A deeply concentrated run stops at the u floor instead of stepping on."""
    prob = pl.Problem(4, 2.0, 3.0, 1.4e5)
    eu = pl.make_model("euclidean")
    sol = pl.integrate(prob, eu, pl.SolverConfig(50.0))
    assert sol.termination == "underflow"
    assert sol.r_last < 50.0
    assert sol.u[-1] <= 1e-11 * prob.alpha


def test_large_alpha_accuracy():
    """The startup handoff stays accurate as alpha grows; the closed-form
    n=3 critical family u = alpha (1 + alpha^4 r^2/3)^{-1/2} is the oracle."""
    eu = pl.make_model("euclidean")
    for alpha in (0.5, 5.0, 50.0):
        sol = pl.integrate(pl.Problem(3, 2.0, 5.0, alpha), eu,
                           pl.SolverConfig(10.0))
        for r in (0.01, 0.1, 1.0, 10.0):
            ue = alpha / (1.0 + alpha ** 4 * r ** 2 / 3.0) ** 0.5
            assert abs(sol.eval_u(r) - ue) < 1e-6 * ue


def test_horizon_beyond_trust_refused():
    # glued models carry a finite trusted range; integrating past it refuses
    eu = pl.make_model("euclidean")
    hy = pl.make_model("hyperbolic")
    glued = pl.glue_models([(eu, 0.0), (hy, 1.0)], 0.1, horizon=30.0)
    prob = pl.Problem(3, 2.0, 5.0, 1.0)
    with pytest.raises(pl.GeometryOverflow):
        pl.integrate(prob, glued, pl.SolverConfig(40.0))


def test_export_csv_roundtrip(tmp_path, hy_run):
    path = hy_run.sol.export_csv(tmp_path / "solution.csv")
    data = pl.read_csv(path)
    assert np.array_equal(data["r"], hy_run.sol.r)
    assert np.array_equal(data["u"], hy_run.sol.u)
    assert np.array_equal(data["w"], hy_run.sol.w)


def test_refinement_consistency(hy_run):
    """Halved tolerances move u by far less than the coarse tolerance."""
    coarse = pl.integrate(
        hy_run.prob, hy_run.model,
        pl.SolverConfig(20.0, rel_tol=1e-8, abs_tol=1e-11))
    fine = pl.integrate(
        hy_run.prob, hy_run.model,
        pl.SolverConfig(20.0, rel_tol=5e-9, abs_tol=5e-12))
    for r in (1.0, 5.0, 15.0):
        assert abs(coarse.eval_u(r) - fine.eval_u(r)) < 1e-6 * fine.eval_u(r)


def test_rows_meet_interpolation_contract(hy_run, ep_run, oscillation):
    """Linear interpolation of u mid-row is within ROW_TOL |u| of eval_u.

    Checked on the hyperbolic and exppower runs and on the tail of the
    oscillating construction past its first join, where the glued model
    switches between power-like and exponential pieces.
    """
    r_join = oscillation.cert.stages[0]["r"]
    for sol, r_min in ((hy_run.sol, 0.0), (ep_run.sol, 0.0),
                       (oscillation.sol, r_join)):
        r, u = sol.r[1:], sol.u[1:]
        keep = r[:-1] >= r_min
        mid = 0.5 * (r[:-1] + r[1:])[keep]
        exact = sol.eval_u(mid)
        linear = 0.5 * (u[:-1] + u[1:])[keep]
        assert mid.size > 100
        assert np.max(np.abs(linear - exact) / exact) <= solver.ROW_TOL
