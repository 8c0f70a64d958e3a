"""Radial IVP solver: startup series, oracle solutions, invariants."""

import ast
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import DOP853, OdeSolution, Radau, quad, solve_ivp
from scipy.integrate._ivp import dop853_coefficients, radau
from scipy.integrate._ivp.radau import MU_COMPLEX, MU_REAL, RadauDenseOutput
from scipy.linalg import lu_factor

import plaplace as pl
from plaplace import cli, dense, models, quadrature, solver


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
    u0, v0 = pl.series_startup(prob, eu, r0)
    w0 = -math.exp(v0)
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


def _assert_matches_series(prob, model, r, u, v):
    u_ref, v_ref = _pole_series_reference(prob, model, r)
    assert abs(u - u_ref) <= 1e-14 * u_ref
    assert abs(v - v_ref) <= 1e-11


def test_series_startup_matches_nested_quadrature():
    """The 8-node pole series against nested adaptive quadrature, at the
    startup radius of hyperbolic (4,3,11), alpha = 1, and at r = 0.2 on
    exppower (4,3,11), alpha = 0.05; a scalar gives floats."""
    for desc, alpha, r in (("hyperbolic", 1.0, 1e-4),
                           ("exppower:c=1,m=3", 0.05, 0.2)):
        prob, model = pl.Problem(4, 3.0, 11.0, alpha), pl.make_model(desc)
        u, v = pl.series_startup(prob, model, r)
        assert isinstance(u, float) and isinstance(v, float)
        _assert_matches_series(prob, model, r, u, v)


def test_series_startup_refuses_past_its_reach():
    """The pole series refuses (StartupFailure) a radius where it drops u
    by 1e-3 alpha or more: on Euclidean (3,2,5), alpha = 1, it drops u by
    r^2/6, so r = 1 is refused. At r = 0.05 it returns u = 1 - r^2/6 and
    -w = int_0^r s^2 (1 - s^2/6)^5 ds, a polynomial the 8-node rule
    integrates exactly."""
    prob, model = pl.Problem(3, 2.0, 5.0, 1.0), pl.make_model("euclidean")
    with pytest.raises(pl.StartupFailure, match=r"drops u by 0\.166667 alpha"):
        pl.series_startup(prob, model, 1.0)
    r = 0.05
    u, v = pl.series_startup(prob, model, r)
    assert u == pytest.approx(1.0 - r * r / 6.0, rel=1e-15, abs=0.0)
    poly = np.polynomial.Polynomial
    minus_w = (poly([0.0, 0.0, 1.0]) * poly([1.0, 0.0, -1.0 / 6.0]) ** 5).integ()(r)
    assert v == pytest.approx(math.log(minus_w), rel=1e-14, abs=0.0)


def test_eval_below_startup_radius_is_the_series():
    """Below r_1 eval_u and eval_w read the pole series, within the bounds
    of the startup; deep inside r_1 u equals alpha in floating point."""
    prob, model = pl.Problem(4, 3.0, 11.0, 1.0), pl.make_model("hyperbolic")
    sol = pl.integrate(prob, model, pl.SolverConfig(20.0))
    r1 = sol.r[1]
    for r in (0.1 * r1, 0.5 * r1, 0.9 * r1):
        _assert_matches_series(prob, model, r, sol.eval_u(r), math.log(-sol.eval_w(r)))
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
    # past r_last, and NaN alone or among good radii
    for read in (sol.eval_u, sol.eval_du, sol.eval_w):
        for r in (sol.r_last * 2.0, math.nan, [0.5, math.nan]):
            with pytest.raises(pl.OutOfRange):
                read(r)


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
    """RadialSolution._integrals of psi^{n-1} u^q between the sampled rows,
    as flux_residual takes it, against quad(epsrel=2e-14) on each row
    interval."""
    for run in (hy_run, ep_run):
        sol = run.sol
        n, q = sol.problem.n, sol.problem.q
        integrand = _flux_integrand(sol)
        idx = sol._sampled_rows()
        # the integrals relative to e^{v_b} = |w_b|
        got = sol._integrals(
            sol.r[idx], lambda s: (n - 1) * np.asarray(sol.model.log_psi(s))
            + q * np.log(sol.eval_u(s)), np.log(-sol.w[idx[1:]]))
        for k in (0, len(idx) // 2, len(idx) - 2):
            i, j = idx[k], idx[k + 1]
            ref = sum(quad(integrand, sol.r[m], sol.r[m + 1], epsabs=0.0,
                           epsrel=2e-14, limit=100)[0] for m in range(i, j))
            assert abs(got[k] - ref / abs(sol.w[j])) <= 1e-12


def test_flux_residual_on_exponential_tail(oscillation):
    """Past the last join of the oscillating construction psi^{n-1} grows
    like e^{12 r} and w overflows a double; the residual, formed in log
    space, still reads the solver's accuracy."""
    assert pl.flux_residual(oscillation.sol) < 5e-9


def _count_panels(monkeypatch):
    """The panels quadrature.fitted_rule lays out from now on, by call."""
    panels, rule = [], quadrature.fitted_rule
    monkeypatch.setattr(quadrature, "fitted_rule",
                        lambda a, b, dG: panels.append(len(a)) or rule(a, b, dG))
    return panels


def test_flux_residual_refuses_runaway_panel_count(monkeypatch):
    """On six stages (n-1) log psi grows by about 1e8 past the last join,
    along exponents that stay on their chords across the solver's steps:
    the flux residual returns within a second, on fewer than _MAX_PANELS
    panels, a finite value. With the cap below the panel count it is
    refused (QuadratureFailure) before any panel is laid out."""
    six = pl.construct(3, 2.0, 5.0, 1.0, 6)[1]
    panels = _count_panels(monkeypatch)
    start = time.perf_counter()
    residual = pl.flux_residual(six)
    assert time.perf_counter() - start < 1.0
    assert math.isfinite(residual)
    assert sum(panels) < quadrature._MAX_PANELS
    monkeypatch.setattr(quadrature, "_MAX_PANELS", panels[0] // 2)
    panels.clear()
    with pytest.raises(pl.QuadratureFailure):
        pl.flux_residual(six)
    assert panels == []


def test_panel_integrals_refuses_runaway_cut():
    """A panel whose exponent bends away from its chord over a growth of
    3e6 would be cut into 12 million parts: the running count of laid-out
    panels refuses it (QuadratureFailure) before any part is evaluated,
    at once and without a numerical warning."""
    x = np.array([1.0, 2.0])
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pl.QuadratureFailure, match="12000000 panels asked for"):
            quadrature.panel_integrals(lambda s, k: 3e6 * ((s - 1.0) ** 2 - 1.0),
                                       x, 3e6 * ((x - 1.0) ** 2 - 1.0))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("c", [500.0, -500.0])
def test_panel_integrals_straight_exponent(c, monkeypatch):
    """e^{c s} on [1, 2], rising or falling (the falling rule is taken from
    its left end, where the exponent is largest): one panel of the fitted
    rule, exact to 1e-14."""
    panels = _count_panels(monkeypatch)
    end = 2.0 if c > 0.0 else 1.0
    x = np.array([1.0, 2.0])
    got = quadrature.panel_integrals(lambda s, k: c * (s - end), x, c * (x - end))
    exact = -math.expm1(-abs(c)) / abs(c)
    assert panels == [1]
    assert abs(got[0] - exact) <= 1e-14 * exact


def test_panel_integrals_cut_curved_interval():
    """(n-1) log psi of exppower:c=1,m=3 on [1, 3] grows by 54 and bends
    far from its chord: the one interval, with no neighbour to compare,
    is cut, and e^{G - G(3)} matches quad(epsrel=2e-14)."""
    model = pl.make_model("exppower:c=1,m=3")
    x = np.array([1.0, 3.0])
    top = 2.0 * float(model.log_psi(3.0))

    def G(s):
        return 2.0 * np.asarray(model.log_psi(s), dtype=float) - top

    got = quadrature.panel_integrals(lambda s, k: G(s), x, G(x))[0]
    ref = quad(lambda s: math.exp(float(G(s))), 1.0, 3.0, epsabs=0.0,
               epsrel=2e-14, limit=200)[0]
    assert abs(got - ref) <= 1e-13 * ref


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
    """(prob, model, r, y, h) at the oscillation's hand-off to Radau, h being
    DOP853's last accepted step, Radau's first trial step there."""
    dense = oscillation.sol._dense
    k = np.argmax(np.all(dense.coef[:4] == 0.0, axis=(0, 1)))
    return (oscillation.sol.problem, oscillation.model, dense.t_old[k],
            dense.y_old[k], dense.h[k - 1])


def _rhs(lpsi, kernel):
    """The equations at one radius, as a stock scipy stepper calls them."""
    return lambda r, y: kernel(float(lpsi(r)), y[0], y[1])


def _radau_options(prob, model):
    """The solver's equations and tolerances as _RadialRadau options, and
    the right-hand side for stock Radau."""
    lpsi, kernel, _, jacobian = solver._radial_equations(prob, model)
    floor = solver._U_FLOOR * prob.alpha
    return _rhs(lpsi, kernel), dict(rtol=1e-11, atol=1e-14, lpsi=lpsi,
                                    kernel=kernel, jacobian=jacobian,
                                    stop=lambda r, u: u <= floor)


def _ode_solution_piece(ode):
    """(ts, h, y_old, F) of the OdeSolution of a stock scipy DOP853 run."""
    steps = ode.interpolants
    return (ode.ts, np.array([d.h for d in steps]),
            np.array([d.y_old for d in steps]), np.array([d.F for d in steps]))


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
    table = dense._DenseTable([_ode_solution_piece(ode)])
    t = np.concatenate([ode.ts, np.linspace(0.0, 20.0, 1001)])
    assert np.array_equal(np.stack(table(t)), ode(t))
    grid = np.linspace(0.0, 20.0, 1000).reshape(-1, 8)
    assert np.array_equal(np.stack(table(grid)).reshape(2, -1), ode(grid.ravel()))

    prob, model, start, y0, h = _radau_tail(oscillation)
    _, options = _radau_options(prob, model)
    stepper = solver._RadialRadau(start, y0, start + 100.0, first_step=h, **options)
    while stepper.t < start + 100.0 and stepper.ended is None:
        stepper.step()
    piece = stepper.piece()
    ts, rec = piece[0], np.frombuffer(stepper.steps).reshape(len(piece[1]), -1)
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


def test_dense_table_reads_in_blocks(hy_run):
    """A call over more radii than one block, straddling many steps, gives
    the floats of one call per radius; and a call over 10^5 radii allocates
    its output (2 rows of N floats) and the scratch of one block (its
    gathered table columns plus a few rows of radii, within twice the
    table's rows of _BLOCK floats), never a gather over all N radii."""
    table = hy_run.sol._dense
    assert len(table.h) > 100
    r = np.linspace(table.ts[0], table.ts[-1], 2 * dense._BLOCK + 1)
    u, v = table(r)
    scalars = np.array([table(x) for x in r])
    assert np.array_equal(u, scalars[:, 0]) and np.array_equal(v, scalars[:, 1])

    r = np.linspace(table.ts[0], table.ts[-1], 100_000)
    tracemalloc.start()
    try:
        table(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (2 * r.size + 2 * dense._ROWS * dense._BLOCK)


def _sum(coefs, k):
    """sum_i coefs[i] k[i], one term at a time from the left, zeros included."""
    acc = 0.0
    for i in range(len(k)):
        acc = acc + coefs[i] * k[i]
    return acc


def _reference_stages(rows, sums, kernel, lp, u, v, h, ku, kv):
    """What solver._stage_function generates, as loops over scipy's full
    tableau rows. A sum row longer than the stages formed (E5 and E3 also
    weigh the step end) must be zero past them."""
    ku, kv = list(ku), list(kv)
    for lp_j, a in zip(lp, rows):
        du, dv = kernel(lp_j, u + _sum(a, ku) * h, v + _sum(a, kv) * h)
        ku.append(du)
        kv.append(dv)
    out = [tuple(ku), tuple(kv)]
    for c in sums:
        assert not np.any(c[len(ku):])
        out += [_sum(c, ku), _sum(c, kv)]
    return out


def _terms(expr):
    """[(coefficient, stage)] of a generated sum c * k0u + c' * k3u + ...,
    in the order written."""
    terms = []
    while isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        terms.append(expr.right)
        expr = expr.left
    terms.append(expr)
    return [(ast.literal_eval(t.left), int(t.right.id[1:-1]))
            for t in reversed(terms)]


def _nonzero(coefs, count):
    return [(a, i) for i, a in enumerate(coefs[:count]) if a != 0.0]


def test_generated_stages_match_tableau():
    """The generated DOP853 stage functions carry every nonzero coefficient
    of scipy's tableau in its order, and compute the floats of plain loops
    over the full rows (zeros included), on Python floats of both signs
    and on numpy arrays: the 11 inner stages of a step with its sums B, E5
    and E3 (50 inner-stage terms, 8 per sum), and the 3 dense-output
    stages with the sums D."""
    tableau = dop853_coefficients
    inner = [row[:s] for s, row in enumerate(tableau.A[1:tableau.N_STAGES], 1)]
    dense_rows = [row[:s] for s, row in
                  enumerate(tableau.A[tableau.N_STAGES + 1:], tableau.N_STAGES + 1)]
    cases = [(solver._STEP_STAGES, inner, 1, (tableau.B, tableau.E5, tableau.E3)),
             (solver._DENSE_STAGES, dense_rows, tableau.N_STAGES + 1, tableau.D)]

    carried = []
    for stages, rows, known, sums in cases:
        count = known + len(rows)
        body = ast.parse(stages.source).body[0].body
        calls = [line.value for line in body if isinstance(line.value, ast.Call)]
        stage_terms = [[_terms(arg.right.left) for arg in call.args[1:]]
                       for call in calls]
        assert stage_terms == [[_nonzero(a, count)] * 2 for a in rows]
        sum_terms = [_terms(x) for x in body[-1].value.elts[2:]]
        assert sum_terms == [_nonzero(c, count) for c in sums for _ in "uv"]
        carried.append((sum(len(u) for u, _ in stage_terms),
                        [len(x) for x in sum_terms[::2]]))
    assert carried[0] == (50, [8, 8, 8])

    def kernel(lp, u, v):
        return lp - u * v, u + lp * v

    rng = np.random.default_rng(7)
    for stages, rows, known, sums in cases:
        rows = [a.tolist() for a in rows]
        sums = [c.tolist() for c in sums]
        for _ in range(200):
            lp, ku, kv = rng.uniform(-2, 2, (3, len(rows) + known)).tolist()
            u, v = rng.uniform(-2, 2, 2).tolist()
            h = rng.uniform(1e-3, 0.5)
            args = (kernel, lp, u, v, h, ku[:known], kv[:known])
            assert list(stages(*args)) == _reference_stages(rows, sums, *args)
        lp, ku, kv = rng.uniform(-2, 2, (3, len(rows) + known, 50))
        u, v = rng.uniform(-2, 2, (2, 50))
        h = rng.uniform(1e-3, 0.5, 50)
        args = (kernel, lp, u, v, h, ku[:known], kv[:known])
        ours, ref = stages(*args), _reference_stages(rows, sums, *args)
        assert all(np.array_equal(a, b) for a, b in zip(ours, ref))


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


def _assert_stepper_matches_stock(prob, model, start, end, y0, first_step):
    """_RadialDOP853 against stock DOP853 on one piece from (start, y0), both
    from the same first trial step.

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
    lpsi, kernel, dense_kernel, _ = solver._radial_equations(prob, model)
    rhs = _rhs(lpsi, kernel)
    floor = solver._U_FLOOR * prob.alpha
    options = dict(rtol=1e-11, atol=1e-14, lpsi=lpsi, kernel=kernel,
                   stop=lambda r, u: u <= floor, first_step=first_step)
    ours = dense.solve_ivp(solver._RadialDOP853, (start, end), y0, **options)
    stock = solve_ivp(rhs, (start, end), y0, method=_StockDOP853,
                      dense_output=True, rtol=1e-11, atol=1e-14,
                      first_step=first_step)
    assert ours.t[-1] == end and len(ours.t) > 50
    assert len(ours.t) == len(stock.t)
    assert ours.nfev == stock.nfev

    ours = solver._RadialDOP853(start, y0, end, **options)
    stock = _StockDOP853(rhs, start, y0, end, rtol=1e-11, atol=1e-14,
                         first_step=first_step)
    F_stock, scales = [], []
    while ours.t < end and ours.ended is None:
        t, y, f = ours.t, np.array(ours.y), np.array(ours.f)
        ours.step()
        stock.t, stock.y, stock.f, stock.h_abs = t, y, f, ours.t - t
        stock.step()
        scale = np.maximum(np.abs(y), np.abs(stock.y))
        assert ours.t == pytest.approx(stock.t, rel=1e-13, abs=0.0)
        assert np.all(np.abs(np.array(ours.y) - stock.y) <= 1e-13 * scale)
        F_stock.append(stock.dense_output().F)
        scales.append(scale)
    F = ours.piece(dense_kernel)[3]
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
    step, a radius off either stepper's knots. Each run starts from the
    step integrate starts it from: the r/10 cap at the startup radius, and
    the last accepted step at a join."""
    for run in (hy_run, ep_run):
        dense = run.sol._dense
        _assert_stepper_matches_stock(run.prob, run.model, dense.t_old[0],
                                      run.sol.r_last, dense.y_old[0],
                                      0.1 * dense.t_old[0])
    dense = oscillation.sol._dense
    first, second = oscillation.model.joins()[:2]
    k = np.flatnonzero(dense.t_old == first)[0]
    last = np.flatnonzero(dense.ts == second)[0]
    end = 0.5 * (dense.ts[last - 1] + second)
    _assert_stepper_matches_stock(oscillation.sol.problem, oscillation.model,
                                  first, end, dense.y_old[k], dense.h[k - 1])


def _radau_state(ours):
    """The state _RadialRadau starts its next step from, as the attributes
    of a stock Radau stepper."""
    J = np.array(ours.J)
    state = dict(t=ours.t, y=np.array(ours.y), f=np.array(ours.f), h_abs=ours.h_abs,
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


def _assert_radau_matches_stock(prob, model, start, end, y0, first_step):
    """_RadialRadau against stock Radau on one piece from (start, y0), both
    from the same first trial step.

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

    ours = dense.solve_ivp(solver._RadialRadau, (start, end), y0, **options)
    stock = solve_ivp(rhs, (start, end), y0, method=Radau, rtol=1e-11,
                      atol=1e-14, jac=jac, first_step=first_step)
    assert ours.t[-1] == end
    assert abs(len(ours.t) - len(stock.t)) <= 0.01 * len(stock.t)
    assert abs(ours.nfev - stock.nfev) <= 0.01 * stock.nfev

    ours = solver._RadialRadau(start, y0, end, **options)
    stock = Radau(rhs, start, y0, end, rtol=1e-11, atol=1e-14, jac=jac,
                  first_step=first_step)
    assert (ours.nfev, ours.njev, ours.nlu) == (stock.nfev, stock.njev, stock.nlu)
    pinned = rejected = 0
    while ours.t < end and ours.ended is None:
        t, y, state = ours.t, np.array(ours.y), _radau_state(ours)
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
        if ours.t - t < state["h_abs"]:
            rejected += 1
            vars(stock).update(state, h_abs=ours.t - t, LU_real=None,
                               LU_complex=None)
            stock.step()
        scale = np.maximum(np.abs(y), np.abs(stock.y))
        assert ours.t == stock.t
        assert np.all(np.abs(np.array(ours.y) - stock.y) <= 1e-12 * scale)
        Q = np.reshape(ours.cubic[4:], (2, 3))
        assert np.all(np.abs(Q - stock.sol.Q) <= 1e-12 * scale[:, None])
        pinned += 1
    assert pinned > 0.95 * len(ours.steps) / solver._RADAU_RECORD
    return pinned, rejected


def test_stepper_matches_stock_radau(oscillation, hy_run):
    """The float stepper takes scipy's Radau IIA steps on the oscillation's
    exponential tail, from the hand-off (and DOP853's last accepted step)
    to mid-way through its last step.
    It reads scipy's private constants, so this also guards against a
    scipy release that renames or changes them. The tail's steps are
    almost all accepted at once, so a second run, on the hyperbolic model
    over r in [1, 2] from a first trial step of 1, starts on steps rejected
    by the error estimate, refined and rejected again."""
    prob, model, start, y0, h = _radau_tail(oscillation)
    end = 0.5 * (oscillation.sol._dense.ts[-2] + oscillation.sol.r_last)
    pinned, _ = _assert_radau_matches_stock(prob, model, start, end, y0, h)
    assert pinned > 500
    y0 = np.array(hy_run.sol._uv(1.0))
    _, rejected = _assert_radau_matches_stock(hy_run.prob, hy_run.model, 1.0, 2.0,
                                              y0, first_step=1.0)
    assert rejected > 0


def test_radau_only_on_stiff_tail(hy_run, ep_run, eu_crit_run, oscillation):
    """The switch to Radau is local: the oscillation hands over inside its
    last piece (curvature 36, v relaxing at rate 12), and runs on catalog
    models never do. A Radau step is the cubic, so its nested
    coefficients past the third are zero. Each run's first step is the
    r/10 cap at the startup radius, and Radau starts from DOP853's last
    accepted step: a run from the hand-off with that first step takes the
    solution's Radau steps to the bit."""
    def radau_steps(sol):
        return np.all(sol._dense.coef[:4] == 0.0, axis=(0, 1))

    for run in (hy_run, ep_run, eu_crit_run):
        assert not np.any(radau_steps(run.sol))
        r0, r1 = run.sol._dense.ts[:2]
        assert r1 == r0 + 0.1 * r0
    sol = oscillation.sol
    radau = radau_steps(sol)
    last_join = oscillation.model.joins()[-1]
    assert np.any(radau)
    assert np.all(sol._dense.t_old[radau] > last_join)
    # once handed over, the piece is finished on Radau
    assert np.all(radau[np.argmax(radau):])
    prob, model, start, y0, h = _radau_tail(oscillation)
    _, options = _radau_options(prob, model)
    tail = dense.solve_ivp(solver._RadialRadau, (start, sol.r_last), y0,
                           first_step=h, **options)
    assert np.array_equal(tail.t, sol._dense.ts[np.argmax(radau):])


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
    assert np.all(osc._dense.coef[:4, :, -1] == 0.0)


def _stopped_on_euclidean():
    """(prob, run, glued): the flat run at (3, 2, 5, 1) stopped at the first
    step end where u < 1/2, and a glued model that turns hyperbolic there."""
    prob = pl.Problem(3, 2.0, 5.0, 1.0)
    run = pl.integrate(prob, pl.make_model("euclidean"), pl.SolverConfig(50.0),
                       stop=lambda r, u: u < 0.5)
    glued = models.as_glued(pl.make_model("euclidean")).extended(
        run.r_last, 20.0, 0.0, 1.0, 0.5)
    return prob, run, glued


def test_continued_run_equals_run_from_the_pole():
    """integrate(carry=) goes on from a stopped run whose last radius is a
    join of the model, keeping its steps; the solution is, to the bit, the
    run from the pole on that model."""
    prob, run, glued = _stopped_on_euclidean()
    assert run.termination == "stopped" and glued.joins() == (run.r_last,)
    continued = pl.integrate(prob, glued, pl.SolverConfig(10.0), carry=run)
    fresh = pl.integrate(prob, glued, pl.SolverConfig(10.0))
    assert continued.termination == fresh.termination == "reached-horizon"
    for a, b in [(continued.r, fresh.r), (continued.u, fresh.u), (continued.du, fresh.du),
                 (continued.w, fresh.w), (continued._dense._table, fresh._dense._table)]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    with pytest.raises(pl.InvalidParameter, match="not past"):
        pl.integrate(prob, glued, pl.SolverConfig(run.r_last), carry=run)


def test_carry_refused_unless_stopped():
    prob, _, glued = _stopped_on_euclidean()
    full = pl.integrate(prob, pl.make_model("euclidean"), pl.SolverConfig(5.0))
    assert full.termination == "reached-horizon"
    with pytest.raises(pl.InvalidParameter, match="only a stopped run"):
        pl.integrate(prob, glued, pl.SolverConfig(10.0), carry=full)


def test_carry_refused_off_a_join():
    prob, run, glued = _stopped_on_euclidean()
    with pytest.raises(pl.InvalidParameter, match="not a join"):
        pl.integrate(prob, pl.make_model("euclidean"), pl.SolverConfig(10.0),
                     carry=run)
    later = models.as_glued(pl.make_model("euclidean")).extended(
        run.r_last + 1.0, 20.0, 0.0, 1.0, 0.5)
    with pytest.raises(pl.InvalidParameter, match="not a join"):
        pl.integrate(prob, later, pl.SolverConfig(10.0), carry=run)


def test_carry_refused_for_another_problem():
    prob, run, glued = _stopped_on_euclidean()
    for other in (pl.Problem(3, 2.0, 5.0, 2.0), pl.Problem(3, 2.0, 7.0, 1.0)):
        with pytest.raises(pl.InvalidParameter, match="the carry solves"):
            pl.integrate(other, glued, pl.SolverConfig(10.0), carry=run)


def test_rows_are_built_on_first_read(monkeypatch):
    """A solution builds its rows the first time r, u, du or w is read, and
    once: the staged construction, which reads each stage's last radius, u
    there and its dense output, builds none, and eval_u and eval_du read
    the dense output without them."""
    calls = []
    row_radii = solver._row_radii
    monkeypatch.setattr(solver, "_row_radii",
                        lambda *args: calls.append(args) or row_radii(*args))
    sol = pl.construct(3, 2.0, 5.0, 1.0, 4)[1]
    assert len(calls) == 0
    r = sol.r
    assert len(calls) == 1
    assert sol.r is r and len(sol.u) == len(sol.du) == len(sol.w) == len(r)
    assert len(calls) == 1
    run = pl.integrate(pl.Problem(3, 2.0, 5.0, 1.0), pl.make_model("euclidean"),
                       pl.SolverConfig(20.0))
    run.eval_u(np.linspace(0.0, run.r_last, 7))
    run.eval_du(1.0)
    assert len(calls) == 1


def _tilted(sol, slope=1.0):
    """sol with slope * r added to u on its dense table (y_old and the
    first coefficient row of every step), so that u rises past the pole."""
    table = sol._dense
    table.y_old[:, 0] += slope * table.t_old
    table.coef[6, 0] += slope * table.h
    return sol


def test_non_monotone_rows_raise_on_first_read(tmp_path, monkeypatch, capsys):
    """A u that rises between two rows raises NonMonotone on the first read
    of the rows (and on every read after), not in integrate; solve exits 3."""
    prob, model = pl.Problem(3, 2.0, 5.0, 1.0), pl.make_model("euclidean")
    sol = _tilted(pl.integrate(prob, model, pl.SolverConfig(20.0)))
    assert sol.eval_u(sol.r_last) > sol.eval_u(1.0)
    for _ in range(2):
        with pytest.raises(pl.NonMonotone):
            sol.u
    integrate = solver.integrate
    monkeypatch.setattr(solver, "integrate", lambda *args: _tilted(integrate(*args)))
    code = cli.main(["--out", str(tmp_path), "solve", "--model", "euclidean",
                     "--n", "3", "--p", "2", "--q", "5", "--alpha", "1", "--rmax", "20"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: solver: NonMonotone")


def _two_round_row_radii(dense, u_min, tol=solver.ROW_TOL):
    """The row builder as it was before rows were read once: every round
    reads every row and mid-row. Returns the rows and how many radii the
    steps raised after the first round have."""
    t = dense.ts
    a, H = t[:-1], np.diff(t)
    u_knots = np.maximum(dense(t)[0], u_min)
    x = np.array([0.25, 0.5, 0.75])
    chord = u_knots[:-1, None] + np.diff(u_knots)[:, None] * x
    dev = np.abs(dense(a[:, None] + H[:, None] * x)[0] - chord)
    M = np.max(dev / (0.5 * x * (1.0 - x)), axis=1)
    k = np.maximum(np.ceil(np.sqrt(M / (8.0 * tol * u_knots[1:]))), 1).astype(int)
    raised = 0
    while True:
        step = np.repeat(np.arange(len(H)), k)
        ends = np.cumsum(k)
        part = np.arange(1, ends[-1] + 1) - np.repeat(ends - k, k)
        rows = np.concatenate([t[:1], a[step] + H[step] * (part / k[step])])
        rows[ends] = t[1:]
        u_rows = np.maximum(dense(rows)[0], u_min)
        u_mid = np.maximum(dense(0.5 * (rows[:-1] + rows[1:]))[0], u_min)
        excess = np.abs(0.5 * (u_rows[:-1] + u_rows[1:]) - u_mid) / (tol * u_mid)
        worst = np.zeros(len(H))
        np.maximum.at(worst, step, excess)
        low = worst > 1.0
        if not np.any(low):
            return rows, raised
        k[low] = np.ceil(1.1 * k[low] * np.sqrt(worst[low])).astype(int)
        raised += int(k[low].sum())


class _CountingTable:
    """A dense table that counts the radii it is read at."""

    def __init__(self, table):
        self.table, self.ts, self.radii = table, table.ts, 0

    def __call__(self, t):
        self.radii += np.size(t)
        return self.table(t)


_CATALOG_SOLVES = [("euclidean", 4, 2.0, 3.0, 2.0 * 2.0 ** 0.5, 40.0),
                   ("hyperbolic", 3, 2.0, 5.0, 1.0, 20.0),
                   ("exppower:c=1,m=3", 3, 2.0, 5.0, 1.0, 20.0),
                   ("powerlike:k=2", 3, 2.0, 5.0, 1.0, 20.0),
                   ("expgamma:c=1,gamma=0.5", 3, 2.0, 5.0, 1.0, 60.0)]


def test_rows_read_the_dense_output_once():
    """On five catalog solves the rows, u, du, w, v and G are the floats of
    the two-round builder followed by a read of u and v at every row, and the
    dense output is read at no more than the knots, 3 radii per step, the
    rows and mid-rows once, and the rows and mid-rows of raised steps."""
    for desc, n, p, q, alpha, R in _CATALOG_SOLVES:
        sol = pl.integrate(pl.Problem(n, p, q, alpha), pl.make_model(desc),
                           pl.SolverConfig(R))
        rows, raised = _two_round_row_radii(sol._dense, sol._u_min)
        u, v = sol._dense(rows)
        du, w, G = sol._derived(rows, v)
        assert np.array_equal(sol.r[1:], rows), desc
        assert np.array_equal(sol.u[1:], np.maximum(u, sol._u_min)), desc
        assert np.array_equal(sol.du[1:], du), desc
        assert np.array_equal(sol.w[1:], w), desc
        assert np.array_equal(sol._rows[4][1:], v), desc
        assert np.array_equal(sol._rows[5][1:], G), desc
        counting = _CountingTable(sol._dense)
        got = solver._row_radii(counting, sol._u_min)
        assert all(np.array_equal(a, b) for a, b in zip(got, (sol.r[1:], sol.u[1:], v)))
        steps = len(sol._dense.h)
        assert counting.radii <= steps + 1 + 3 * steps + 2 * len(rows) + 2 * raised, desc


def test_float_kernel_matches_builtin_min_max():
    """The float kernel and Jacobian write builtin min and max as conditional
    expressions; they return the floats of a reference on min and max, bit
    for bit, past the exponent cap, below the underflow floor and with NaN
    in lpsi, u or v."""
    prob = pl.Problem(3, 2.0, 5.0, 2.0)
    _, kernel, _, jacobian = solver._radial_equations(prob, pl.make_model("euclidean"))
    mu, q, cap = 1.0 / (prob.p - 1.0), prob.q, models._EXP_CAP
    u_floor = solver._U_FLOOR * prob.alpha

    def reference(lp, u, v):
        du = -math.exp(min(mu * (v - lp), cap))
        dv = math.exp(min(lp + q * math.log(max(u, u_floor)) - v, cap))
        return du, dv, [[0.0, mu * du], [q * dv / max(u, u_floor), -dv]]

    def bits(du, dv, J):
        return np.array([du, dv, *J[0], *J[1]]).tobytes()

    nan, inf = math.nan, math.inf
    capped = nan_seen = floored = 0
    for lp in (0.0, 2.0, -750.0, 1500.0, inf, nan):
        for u in (2.0, 0.3, u_floor, 0.5 * u_floor, 1e-300, 0.0, -1.0, nan):
            for v in (-5.0, 0.0, 800.0, -900.0, nan):
                du, dv, J = reference(lp, u, v)
                ours = kernel(lp, u, v)
                assert bits(*ours, jacobian(u, *ours)) == bits(du, dv, J)
                capped += -du == math.exp(cap) or dv == math.exp(cap)
                nan_seen += math.isnan(du) or math.isnan(dv)
                floored += u < u_floor
    assert capped and nan_seen and floored


def test_embedded_constants_equal_scipy():
    """Every tableau constant the steppers embed is scipy's float: the DOP853
    rows below the diagonal (row 12 of A is B, and nothing lies on or above
    the diagonal), B, E3, E5, D and the stage fractions; the Radau IIA
    nodes, error weights, eigenvalues, transformations, interpolation
    columns and Newton cap."""
    d = dop853_coefficients
    A = d.A.tolist()
    assert not np.any(np.triu(d.A))
    assert A[d.N_STAGES][:d.N_STAGES] == d.B.tolist()
    assert solver._STAGE_ROWS == [A[s][:s] for s in range(1, d.N_STAGES)]
    assert solver._DENSE_ROWS == [A[s][:s] for s in
                                  range(d.N_STAGES + 1, d.N_STAGES_EXTENDED)]
    for ours, theirs in ((solver._B, d.B), (solver._E3, d.E3), (solver._E5, d.E5),
                         (solver._D, d.D), (solver._FRACTIONS.tolist(), d.C[1:])):
        assert ours == theirs.tolist()
    assert solver._RADAU_C.tolist() == radau.C.tolist()
    assert solver._RADAU_E == radau.E.tolist()
    assert (solver._MU_REAL, solver._MU_COMPLEX) == (radau.MU_REAL, radau.MU_COMPLEX)
    assert solver._T == radau.T.tolist()
    assert solver._TI_REAL == radau.TI_REAL.tolist()
    assert solver._TI_COMPLEX == radau.TI_COMPLEX.tolist()
    assert solver._P_COLUMNS == radau.P.T.tolist()
    assert solver._NEWTON_MAXITER == radau.NEWTON_MAXITER


def test_underflow_termination():
    """A deeply concentrated run stops at the u floor instead of stepping on.

    The last radius is the least float where the dense output of u is at
    or below the floor, within 4 eps of it, and u lies above the floor at
    every earlier knot. Both read the dense output itself: eval_u clamps u
    at the floor.
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
        assert u_knots[-1] <= floor < sol._dense(np.nextafter(sol.r_last, 0.0))[0]
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


class _LogPsiNanPast(models.Euclidean):
    """Flat space with log psi turned NaN past r = 5."""

    def log_psi(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 5.0, np.nan, super().log_psi(r))


def test_integrate_raises_where_the_stepper_fails():
    """A model whose log psi turns NaN past r = 5 rejects every step that
    reads it, until the step size falls below the float spacing at r = 5:
    integrate raises StepSizeCollapse there."""
    prob = pl.Problem(3, 2.0, 5.0, 1.0)
    with pytest.raises(pl.StepSizeCollapse, match="stepper failed at r=5"):
        pl.integrate(prob, _LogPsiNanPast(), pl.SolverConfig(20.0))


def _decay(lp, u, v):
    """u' = -u and v' = lp: the stiffness test reads h v' = h lp."""
    return -u, lp


def _run_toy(t_bound, lp=1000.0, stop=None, nan_past=math.inf):
    """dense.solve_ivp of _RadialDOP853 on _decay from (1, (1, 0)), with lpsi
    the constant lp, NaN past nan_past."""
    def lpsi(r):
        return np.where(np.asarray(r) > nan_past, np.nan, lp + 0.0 * r)

    return dense.solve_ivp(solver._RadialDOP853, (1.0, t_bound), (1.0, 0.0),
                           first_step=0.1, lpsi=lpsi, kernel=_decay, rtol=1e-11,
                           atol=1e-14, stop=stop)


def test_solve_ivp_end_reasons():
    """A run says why it ended: "end" at t_bound, "stiff" after the
    stiffness test's 15 steps, "failed" where the step size collapses, or
    the stop predicate's label. At t_bound a stop label takes precedence
    over "end", while a stiffness exit on the step that reaches t_bound
    counts as "end", so integrate never starts Radau on an empty piece; a
    stop label on the step that trips the stiffness test wins over it."""
    run = _run_toy(2.0, lp=0.0)
    assert run.ended == "end" and run.t[-1] == 2.0
    stiff = _run_toy(100.0)
    assert stiff.ended == "stiff" and solver._STIFF_STEPS < len(stiff.t) < 100
    reached = _run_toy(stiff.t[-1])
    assert reached.ended == "end" and reached.t == stiff.t
    label = _run_toy(100.0, stop=lambda r, u: "stopped" if r == stiff.t[-1] else None)
    assert label.ended == "stopped" and label.t == stiff.t
    failed = _run_toy(2.0, lp=0.0, nan_past=1.5)
    assert failed.ended == "failed" and 1.4 < failed.t[-1] <= 1.5
    stopped = _run_toy(2.0, lp=0.0, stop=lambda r, u: "stopped" if r > 1.5 else None)
    assert stopped.ended == "stopped" and 1.5 < stopped.t[-1] < 2.0
    at_end = _run_toy(2.0, lp=0.0, stop=lambda r, u: "underflow" if r == 2.0 else None)
    assert at_end.ended == "underflow" and at_end.t == run.t


def _still(lp, u, v):
    """u' = v' = 0: every error estimate is exactly zero."""
    return 0.0, 0.0


def _zero_jacobian(u, du, dv):
    return (0.0, 0.0), (0.0, 0.0)


def _toy_options(kernel, first_step, lpsi=lambda r: 0.0 * np.asarray(r)):
    return dict(first_step=first_step, lpsi=lpsi, kernel=kernel, rtol=1e-11,
                atol=1e-14)


def test_zero_error_steps_grow_by_the_maximum_factor():
    """Where the error estimate is exactly zero, each stepper grows the step
    by _MAX_FACTOR (10): DOP853 takes error norm 0 without dividing by it,
    Radau's predicted factor is inf and is cut to the cap. DOP853 stops
    growing at its bound h <= r/10."""
    run = dense.solve_ivp(solver._RadialDOP853, (1.0, 2.0), (1.0, 0.0),
                          **_toy_options(_still, 1e-3))
    assert run.ended == "end" and run.y == (1.0, 0.0)
    h = np.diff(run.t)
    assert np.allclose(h[:3] / h[0], [1.0, 10.0, 100.0], rtol=1e-12)
    assert np.allclose(h[3:-1], 0.1 * np.asarray(run.t[3:-2]), rtol=1e-12)
    run = dense.solve_ivp(solver._RadialRadau, (1.0, 1e4), (1.0, 0.0),
                          jacobian=_zero_jacobian, **_toy_options(_still, 1e-3))
    assert run.ended == "end" and run.y == (1.0, 0.0)
    h = np.diff(run.t)
    assert np.allclose(h[1:-1] / h[:-2], 10.0, rtol=1e-12)


@pytest.mark.parametrize("e5u", [1e143, 1e160], ids=["blend-inf", "square-raises"])
def test_error_norm_past_the_double_range_rejects_the_step(monkeypatch, e5u):
    """A DOP853 error estimate whose norm leaves the double range rejects
    the step (factor 0.2): with su ~ 1e-11, e5u = 1e143 gives a finite err5
    ~ 1e308 whose blend overflows to inf (and would read as norm 0), and
    1e160 a square that raises OverflowError. The next attempt, with the
    true (zero) estimate, is accepted."""
    stages = solver._STEP_STAGES
    calls = []

    def first_estimate_huge(*args):
        ku, kv, bu, bv, _, e5v, e3u, e3v = stages(*args)
        calls.append(args)
        return ku, kv, bu, bv, e5u if len(calls) == 1 else 0.0, e5v, e3u, e3v

    monkeypatch.setattr(solver, "_STEP_STAGES", first_estimate_huge)
    stepper = solver._RadialDOP853(1.0, (1.0, 0.0), 2.0, **_toy_options(_still, 1e-3))
    stepper.step()
    assert len(calls) == 2 and stepper.ended is None
    assert stepper.t == pytest.approx(1.0 + 0.2e-3, rel=1e-15)


def test_radau_raises_a_first_step_below_the_float_spacing():
    """A first trial step shorter than 10 float spacings of t0 is raised to
    that many: Radau's first step is exactly that long."""
    run = dense.solve_ivp(solver._RadialRadau, (1.0, 2.0), (1.0, 0.0),
                          jacobian=_zero_jacobian, **_toy_options(_still, 1e-300))
    assert run.ended == "end"
    assert run.t[1] - 1.0 == 10.0 * (math.nextafter(1.0, math.inf) - 1.0)


def _wall(lp, u, v):
    """u' = -1 up to lp = r = 1.5 and inf past it; v' = 0."""
    return (math.inf if lp > 1.5 else -1.0), 0.0


def test_radau_fails_where_newton_meets_non_finite_stages():
    """Newton gives up on a stage derivative that is not finite, and Radau
    halves the step: every step that reaches past r = 1.5 is cut down until
    the step size falls below the float spacing, and the run ends "failed"
    just short of 1.5, with no warning, u having fallen linearly."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = dense.solve_ivp(solver._RadialRadau, (1.0, 2.0), (1.0, 0.0),
                              jacobian=_zero_jacobian,
                              **_toy_options(_wall, 0.1, lpsi=lambda r: r))
    assert run.ended == "failed"
    assert 1.5 - 1e-12 < run.t[-1] <= 1.5
    assert abs(run.y[0] - (2.0 - run.t[-1])) < 1e-14 and run.y[1] == 0.0


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


@pytest.mark.parametrize("desc", ["euclidean", "hyperbolic", "exppower:c=1,m=3"])
def test_central_values_across_the_double_range(desc):
    """Every finite alpha > 0 is a problem: from 1e-300 to 1e300, at
    (3,2,5) and (4,3,11), integrate returns a solution (its flux residual
    resolved) or refuses with one of the three kinds of refusal, never an
    untyped error and never a warning."""
    model = pl.make_model(desc)
    for n, p, q in ((3, 2.0, 5.0), (4, 3.0, 11.0)):
        config = pl.SolverConfig(min(20.0, pl.safe_horizon(model, n)))
        for alpha in (1e-300, 1e-100, 1e-30, 1e30, 1e100, 1e200, 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    sol = pl.integrate(pl.Problem(n, p, q, alpha), model, config)
                except (pl.UsageError, pl.SolverError, pl.RegimeError):
                    continue
                assert pl.flux_residual(sol) < 5e-9, (n, alpha)


def test_startup_radius_outside_the_double_range():
    """A startup scale alpha^(-(q+1-p)/p) past the double range takes the
    0.01 r_max cap; a startup radius that underflows to 0 is refused with
    StartupFailure before the pole series runs."""
    euclidean = pl.make_model("euclidean")
    prob = pl.Problem(3, 2.0, 5.0, 1e-300)
    assert pl.default_startup_radius(prob) == math.inf
    assert pl.integrate(prob, euclidean, pl.SolverConfig(20.0)).r[1] == 0.2
    with pytest.raises(pl.StartupFailure, match="radius 0 is not a positive normal"):
        pl.integrate(pl.Problem(3, 2.0, 5.0, 1e200), euclidean, pl.SolverConfig(20.0))
