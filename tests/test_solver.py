"""Radial IVP solver: startup series, oracle solutions, invariants."""

import math
import warnings
from array import array

import numpy as np
import pytest
from scipy.integrate import DOP853, OdeSolution, Radau, quad, solve_ivp
from scipy.integrate._ivp.radau import MU_COMPLEX, MU_REAL, RadauDenseOutput
from scipy.linalg import lu_factor

import plaplace as pl
from plaplace import dense, solver


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


def _pole_series_reference(prob, model, r):
    """u and log(-w) of the pole series by nested adaptive quadrature at
    epsabs 0, epsrel 1e-13: Theta(s) = int_0^s e^{G(t) - G(s)},
    J = int_0^r Theta^mu, u = alpha - alpha^{q mu} J and
    -w = alpha^q int_0^r e^G (u/alpha)^q, G = (n-1) log psi."""
    n, q, a = prob.n, prob.q, prob.alpha
    mu = 1.0 / (prob.p - 1.0)

    def integral(f, b):
        return quad(f, 0.0, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    def G(s):
        return (n - 1) * float(model.log_psi(s))

    def theta(s):
        Gs = G(s)
        return integral(lambda t: math.exp(G(t) - Gs), s)

    def u(x):
        return a - a ** (q * mu) * integral(lambda s: theta(s) ** mu, x)

    I = integral(lambda s: math.exp(G(s)) * (u(s) / a) ** q, r)
    return u(r), q * math.log(a) + math.log(I)


def _assert_matches_series(prob, model, r, u, w):
    u_ref, v_ref = _pole_series_reference(prob, model, r)
    assert abs(u - u_ref) <= 1e-14 * u_ref
    assert abs(math.log(-w) - v_ref) <= 1e-11


def test_series_startup_matches_nested_quadrature():
    """The 8-node pole series against nested adaptive quadrature, at the
    startup radius of hyperbolic (4,3,11), alpha = 1, and at r = 0.2 on
    exppower (4,3,11), alpha = 0.05; a scalar gives floats."""
    for desc, alpha, r in (("hyperbolic", 1.0, 1e-4),
                           ("exppower:c=1,m=3", 0.05, 0.2)):
        prob, model = pl.Problem(4, 3.0, 11.0, alpha), pl.make_model(desc)
        u, w = pl.series_startup(prob, model, r)
        assert isinstance(u, float) and isinstance(w, float)
        _assert_matches_series(prob, model, r, u, w)


def test_eval_below_startup_radius_is_the_series():
    """Below r_1 eval_u and eval_w read the pole series, within the bounds
    of the startup; deep inside r_1 u equals alpha in floating point."""
    prob, model = pl.Problem(4, 3.0, 11.0, 1.0), pl.make_model("hyperbolic")
    sol = pl.integrate(prob, model, pl.SolverConfig(20.0))
    r1 = sol.r[1]
    for r in (0.1 * r1, 0.5 * r1, 0.9 * r1):
        _assert_matches_series(prob, model, r, sol.eval_u(r), sol.eval_w(r))
    # u' ~ -(r/n)^{1/(p-1)} alpha^{q/(p-1)} at the pole, however small r is
    assert sol.eval_u(1e-9 * r1) == prob.alpha
    assert sol.eval_du(1e-50) == pytest.approx(-(1e-50 / 4) ** 0.5, rel=1e-12)


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
            # the rule returns the integrals relative to e^{v_b} = |w_b|
            v_b = np.log(-sol.w[idx[1:]])
            assert abs(solver._flux_integrals(sol, idx, v_b)[k]
                       - ref / abs(sol.w[j])) <= 1e-12


def test_flux_residual_on_exponential_tail(oscillation):
    """Past the last join of the oscillating construction psi^{n-1} grows
    like e^{12 r} and w overflows a double; the residual, formed in log
    space, still reads the solver's accuracy."""
    assert pl.flux_residual(oscillation.sol) < 5e-9


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


def _radau_tail(oscillation):
    """(prob, model, r, y) at the oscillation's hand-off to Radau."""
    dense = oscillation.sol._dense
    k = np.argmax(np.all(dense.F[:, 3:] == 0.0, axis=(1, 2)))
    return (oscillation.sol.problem, oscillation.model, dense.t_old[k],
            dense.y_old[k])


def _radau_options(prob, model):
    """The solver's equations and tolerances as _RadialRadau options."""
    lpsi, kernel, _, rhs, jacobian = solver._radial_equations(prob, model)
    floor = solver._U_FLOOR * prob.alpha
    return rhs, dict(rtol=1e-11, atol=1e-14, lpsi=lpsi, kernel=kernel,
                     jacobian=jacobian, stop=lambda r, u: u <= floor)


def test_dense_table_matches_ode_solution(oscillation):
    """The array form of the DOP853 dense output gives OdeSolution's floats
    from the same coefficients (a stock run, read by _ode_solution_piece);
    a Radau step's cubic, rewritten into DOP853's nested form, is exact at
    the knots and within 2 ulp between them (against scipy's
    RadauDenseOutput on the same cubics, taken from the float stepper's
    record on the oscillation's stiff tail)."""
    ode = solve_ivp(lambda t, y: [y[1], -y[0] - 0.1 * y[1] ** 3], (0.0, 20.0),
                    [1.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12,
                    dense_output=True).sol
    table = dense._DenseTable([dense._ode_solution_piece(ode)])
    t = np.concatenate([ode.ts, np.linspace(0.0, 20.0, 1001)])
    assert np.array_equal(np.stack(table(t)), ode(t))
    grid = np.linspace(0.0, 20.0, 1000).reshape(-1, 8)
    assert np.array_equal(np.stack(table(grid)).reshape(2, -1), ode(grid.ravel()))

    prob, model, start, y0 = _radau_tail(oscillation)
    rhs, options = _radau_options(prob, model)
    steps = array("d")
    solve_ivp(rhs, (start, start + 100.0), y0, method=solver._RadialRadau,
              steps=steps, **options)
    piece = solver._radau_piece(steps)
    ts, rec = piece[0], np.frombuffer(steps).reshape(len(piece[1]), -1)
    assert len(ts) > 20
    stiff = OdeSolution(ts, [RadauDenseOutput(a, b, y, Q.reshape(2, 3))
                             for a, b, y, Q in zip(ts[:-1], ts[1:], rec[:, 2:4],
                                                   rec[:, 4:])])
    table = dense._DenseTable([piece])
    assert np.array_equal(np.stack(table(ts)), stiff(ts))
    mid = np.linspace(ts[0], ts[-1], 1001)
    ref = stiff(mid)
    assert np.all(np.abs(np.stack(table(mid)) - ref)
                  <= 2 * np.spacing(np.abs(ref)))


# the largest weight of row k of F in the nested evaluation of the DOP853
# dense output, max over x in [0, 1] of x^a (1-x)^b
_ROW_A, _ROW_B = np.arange(7) // 2 + 1, (np.arange(7) + 1) // 2
_ROW_WEIGHT = (_ROW_A ** _ROW_A * _ROW_B ** _ROW_B
               / (_ROW_A + _ROW_B) ** (_ROW_A + _ROW_B))


class _StockDOP853(DOP853):
    """scipy's DOP853 with the one change _RadialDOP853 makes to its steps:
    h <= r/10."""

    def _step_impl(self):
        self.max_step = 0.1 * self.t
        return super()._step_impl()


def _assert_stepper_matches_stock(prob, model, start, end, y0):
    """_RadialDOP853 against stock DOP853 on one piece from (start, y0).

    Whole runs take the same accepted steps with equal nfev. Step by step,
    the stock stepper is started from the float stepper's state and asked
    for its accepted step: the knot (t, y) agrees within 1e-13 of |y|. The
    dense-output coefficients F that _dop853_piece builds for all steps at
    once from the float stepper's record agree with the stock step's
    dense_output().F, row k within 1e-12 of the step's scale |y| / w_k, w_k
    being the row's largest weight in the interpolant, so no row moves the
    dense output by more than 1e-12 |y|. The comparison is made from a
    common state because rounding differs (numpy's dot against sums of
    Python floats) and moves the error estimate, a cancellation, by up to
    ~1e-5 relative; that shifts every later knot by ~1e-7 and leaves the
    step count unchanged.
    """
    lpsi, kernel, dense_kernel, rhs, _ = solver._radial_equations(prob, model)
    floor = solver._U_FLOOR * prob.alpha
    options = dict(rtol=1e-11, atol=1e-14, lpsi=lpsi, kernel=kernel,
                   stop=lambda r, u: u <= floor)
    ours = solve_ivp(rhs, (start, end), y0, method=solver._RadialDOP853,
                     steps=array("d"), **options)
    stock = solve_ivp(rhs, (start, end), y0, method=_StockDOP853,
                      dense_output=True, rtol=1e-11, atol=1e-14)
    assert ours.t[-1] == end and len(ours.t) > 50
    assert len(ours.t) == len(stock.t)
    assert ours.nfev == stock.nfev

    steps = array("d")
    ours = solver._RadialDOP853(rhs, start, y0, end, steps=steps, **options)
    stock = _StockDOP853(rhs, start, y0, end, rtol=1e-11, atol=1e-14)
    F_stock, scales = [], []
    while ours.status == "running":
        t, y, f = ours.t, ours.y, np.array(ours.f)
        ours.step()
        stock.t, stock.y, stock.f, stock.h_abs = t, y, f, ours.step_size
        stock.step()
        scale = np.maximum(np.abs(y), np.abs(stock.y))
        assert ours.t == pytest.approx(stock.t, rel=1e-13, abs=0.0)
        assert np.all(np.abs(ours.y - stock.y) <= 1e-13 * scale)
        F_stock.append(stock.dense_output().F)
        scales.append(scale)
    F = solver._dop853_piece(steps, dense_kernel)[3]
    assert F.shape == np.shape(F_stock)
    assert np.all(np.abs(F - F_stock) * _ROW_WEIGHT[:, None]
                  <= 1e-12 * np.array(scales)[:, None, :])


def test_stepper_matches_stock_dop853(hy_run, ep_run, oscillation):
    """The float stepper takes scipy's DOP853 steps: on the hyperbolic and
    exppower runs and on the oscillation's glued model between its first
    two joins. It reads scipy's private tableau, so this also guards
    against a scipy release that renames or changes it.

    The second join is a trigger, which is one of the float stepper's own
    step ends; stock DOP853, whose knots drift by ~1e-7 (see
    _assert_stepper_matches_stock), would end short of it with one more
    sliver step. So that comparison ends mid-way through the piece's last
    step, a radius off either stepper's knots."""
    for run in (hy_run, ep_run):
        dense = run.sol._dense
        _assert_stepper_matches_stock(run.prob, run.model, dense.t_old[0],
                                      run.sol.r_last, dense.y_old[0])
    dense = oscillation.sol._dense
    first, second = oscillation.model.joins()[:2]
    k = np.flatnonzero(dense.t_old == first)[0]
    last = np.flatnonzero(dense.ts == second)[0]
    end = 0.5 * (dense.ts[last - 1] + second)
    _assert_stepper_matches_stock(oscillation.sol.problem, oscillation.model,
                                  first, end, dense.y_old[k])


def _radau_state(ours):
    """The state _RadialRadau starts its next step from, as the attributes
    of a stock Radau stepper."""
    J = np.array(ours.J)
    state = dict(t=ours.t, y=ours.y, f=np.array(ours.f), h_abs=ours.h_abs,
                 h_abs_old=ours.h_abs_old, error_norm_old=ours.error_norm_old,
                 J=J, current_jac=ours.current_jac, LU_real=None,
                 LU_complex=None, sol=None, status="running")
    if ours.lu_h is not None:
        state["LU_real"] = lu_factor(MU_REAL / ours.lu_h * np.identity(2) - J)
        state["LU_complex"] = lu_factor(MU_COMPLEX / ours.lu_h * np.identity(2) - J)
    if ours.cubic is not None:
        t_o, _, u_o, v_o, *Q = ours.cubic
        state["sol"] = RadauDenseOutput(t_o, ours.t, np.array([u_o, v_o]),
                                        np.reshape(Q, (2, 3)))
    return state


def _assert_radau_matches_stock(prob, model, start, end, y0, first_step=None):
    """_RadialRadau against stock Radau on one piece from (start, y0).

    The whole run takes within 1% of stock Radau's steps and function
    evaluations. Step by step, the stock stepper is started from the float
    stepper's state (t, y, f, h_abs, the controller's history, J, the LU's
    h and the previous cubic) and asked for its accepted step: nfev, njev
    and nlu grow alike, both keep or drop the LU and the Jacobian alike,
    the next trial step agrees within 1%, the knot within 1e-12 of |y| and
    the cubic's coefficients within 1e-12 of the step's scale. A common
    state is
    needed because the error estimate solve(LU_real, f + ZE) is a
    cancellation: LAPACK's rounding and the closed form's move error_norm
    by up to ~1e-3 relative, and every later knot with it. So a step on
    which either error_norm lies within 1e-3 of 1, which one stepper may
    accept and the other reject, is exempt; and after a rejected attempt,
    whose error_norm sets the next trial h, the stock stepper is started
    again from the same state with the h the float stepper accepted.
    Returns the number of steps pinned and of those with a rejection.
    """
    rhs, options = _radau_options(prob, model)
    options["first_step"] = first_step
    jacobian = options["jacobian"]

    def jac(r, y):
        return jacobian(y[0], *rhs(r, y))

    ours = solve_ivp(rhs, (start, end), y0, method=solver._RadialRadau,
                     steps=array("d"), **options)
    stock = solve_ivp(rhs, (start, end), y0, method=Radau, rtol=1e-11,
                      atol=1e-14, jac=jac, first_step=first_step)
    assert ours.t[-1] == end
    assert abs(len(ours.t) - len(stock.t)) <= 0.01 * len(stock.t)
    assert abs(ours.nfev - stock.nfev) <= 0.01 * stock.nfev

    steps = array("d")
    ours = solver._RadialRadau(rhs, start, y0, end, steps=steps, **options)
    stock = Radau(rhs, start, y0, end, rtol=1e-11, atol=1e-14, jac=jac,
                  first_step=first_step)
    assert (ours.nfev, ours.njev, ours.nlu) == (stock.nfev, stock.njev, stock.nlu)
    pinned = rejected = 0
    while ours.status == "running":
        t, y, state = ours.t, ours.y, _radau_state(ours)
        vars(stock).update(state)
        counts = np.array([ours.nfev, ours.njev, ours.nlu,
                           stock.nfev, stock.njev, stock.nlu])
        ours.step()
        stock.step()
        if min(abs(ours.error_norm_old - 1.0), abs(stock.error_norm_old - 1.0)) < 1e-3:
            continue
        grown = np.array([ours.nfev, ours.njev, ours.nlu,
                          stock.nfev, stock.njev, stock.nlu]) - counts
        assert np.array_equal(grown[:3], grown[3:])
        # the controller's next trial step, from error norms ~1e-3 apart
        assert ours.h_abs == pytest.approx(stock.h_abs, rel=1e-2, abs=0.0)
        assert (ours.lu_h is None) == (stock.LU_real is None)
        assert ours.current_jac == stock.current_jac
        if ours.step_size < state["h_abs"]:
            rejected += 1
            vars(stock).update(state, h_abs=ours.t - t, LU_real=None,
                               LU_complex=None)
            stock.step()
        scale = np.maximum(np.abs(y), np.abs(stock.y))
        assert ours.t == stock.t
        assert np.all(np.abs(ours.y - stock.y) <= 1e-12 * scale)
        Q = np.reshape(ours.cubic[4:], (2, 3))
        assert np.all(np.abs(Q - stock.sol.Q) <= 1e-12 * scale[:, None])
        pinned += 1
    assert pinned > 0.95 * len(steps) / solver._RADAU_RECORD
    return pinned, rejected


def test_stepper_matches_stock_radau(oscillation, hy_run):
    """The float stepper takes scipy's Radau IIA steps on the oscillation's
    exponential tail, from the hand-off to mid-way through its last step.
    It reads scipy's private constants, so this also guards against a
    scipy release that renames or changes them. The tail's steps are
    almost all accepted at once, so a second run, on the hyperbolic model
    over r in [1, 2] from a first trial step of 1, starts on steps rejected
    by the error estimate, refined and rejected again."""
    prob, model, start, y0 = _radau_tail(oscillation)
    end = 0.5 * (oscillation.sol._dense.ts[-2] + oscillation.sol.r_last)
    pinned, _ = _assert_radau_matches_stock(prob, model, start, end, y0)
    assert pinned > 500
    y0 = np.array(hy_run.sol._uv(1.0))
    _, rejected = _assert_radau_matches_stock(hy_run.prob, hy_run.model, 1.0, 2.0,
                                              y0, first_step=1.0)
    assert rejected > 0


def test_radau_only_on_stiff_tail(hy_run, ep_run, eu_crit_run, oscillation):
    """The switch to Radau is local: the oscillation hands over inside its
    last piece (curvature 36, v relaxing at rate 12), and runs on catalog
    models never do. A Radau step is the cubic, so its nested
    coefficients past the third are zero."""
    def radau_steps(sol):
        return np.all(sol._dense.F[:, 3:] == 0.0, axis=(1, 2))

    for run in (hy_run, ep_run, eu_crit_run):
        assert not np.any(radau_steps(run.sol))
    sol = oscillation.sol
    radau = radau_steps(sol)
    last_join = oscillation.model.joins()[-1]
    assert np.any(radau)
    assert np.all(sol._dense.t_old[radau] > last_join)
    # once handed over, the piece is finished on Radau
    assert np.all(radau[np.argmax(radau):])


def test_stop_ends_run_at_first_step_end(oscillation):
    """integrate(stop=...) ends the run at the first accepted step end where
    stop(r, u) holds, having taken the same steps as the run without it.
    On the oscillating construction the last stage stops on its exponential
    tail, at the end of a Radau step (a cubic: nested coefficients past the
    third are zero)."""
    prob = pl.Problem(3, 2.0, 5.0, 1.0)
    model = pl.make_model("euclidean")
    full = pl.integrate(prob, model, pl.SolverConfig(50.0))
    sol = pl.integrate(prob, model, pl.SolverConfig(50.0),
                       stop=lambda r, u: u < 0.5)
    assert sol.termination == "stopped"
    knots = full._dense.ts
    first = np.argmax(full._dense(knots)[0] < 0.5)
    assert 0 < first < len(knots) - 1
    assert sol.r_last == knots[first]
    assert np.array_equal(sol._dense.ts, knots[:first + 1])

    osc = oscillation.sol
    assert osc.termination == "stopped"
    assert oscillation.cert.stages[-1]["r"] == osc.r_last == osc._dense.ts[-1]
    assert np.all(osc._dense.F[-1, 3:] == 0.0)


def test_underflow_termination():
    """A deeply concentrated run stops at the u floor instead of stepping on.

    The last radius is where the dense output of u crosses the floor, to
    within 4 eps of it, and u lies above the floor at every earlier knot.
    Both read the dense output itself: eval_u clamps u at the floor.
    On a flat model glued at r = 5 and r = 40, u crosses the floor in the
    middle piece, and the run stops there rather than restarting at the
    next join."""
    prob = pl.Problem(4, 2.0, 3.0, 1.4e5)
    floor = solver._U_FLOOR * prob.alpha
    eu = pl.make_model("euclidean")
    glued = pl.glue_models([(eu, 0.0), (eu, 5.0), (eu, 40.0)], 0.1)
    for model in (eu, glued):
        sol = pl.integrate(prob, model, pl.SolverConfig(50.0))
        assert sol.termination == "underflow"
        assert 5.0 < sol.r_last < 40.0
        assert sol.u[-1] <= 1e-11 * prob.alpha
        knots = sol._dense.ts
        assert knots[-1] == sol.r_last
        assert (5.0 in knots) == (model is glued)
        u_knots = sol._dense(knots)[0]
        assert abs(u_knots[-1] - floor) <= 4 * np.finfo(float).eps * floor
        assert np.all(u_knots[:-1] > floor)
        assert sol.eval_u(sol.r_last) == max(u_knots[-1], floor)


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


def test_w_column_past_double_range(tmp_path, oscillation):
    """Past the last join of the oscillating construction v = log(-w) grows
    beyond log(DBL_MAX). The w column holds -exp(v) wherever that is a
    double, -inf beyond (never a capped value such as -e^700), is computed
    without a RuntimeWarning, and reads back from solution.csv."""
    sol = oscillation.sol
    data = pl.read_csv(sol.export_csv(tmp_path / "solution.csv"))
    r, w = data["r"][1:], data["w"][1:]
    assert np.array_equal(data["r"], sol.r)
    assert np.array_equal(w, sol.w[1:])
    assert not np.any(w == -math.exp(solver._EXP_CAP))
    v = sol._dense(r)[1]
    finite = np.isfinite(w)
    assert np.array_equal(w[finite], -np.exp(v[finite]))
    assert np.all(v[~finite] > math.log(np.finfo(float).max))
    assert np.all(w[~finite] == -np.inf) and np.any(~finite)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.array_equal(sol.eval_w(r), w)


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
