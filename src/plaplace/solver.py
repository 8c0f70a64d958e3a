"""Radial IVP integrator for -Delta_p u = u^q on model manifolds.

Solves, in radial coordinates about the pole,

    (psi^{n-1} |u'|^{p-2} u')' = -psi^{n-1} u^q,   u(0) = alpha, u'(0) = 0,

by propagating the pair (u, w) with w = psi^{n-1}|u'|^{p-2}u'. The flux w
stays C^1 even where u' loses regularity across p, so it is the safe state
variable; internally log(-w) is carried to survive exponentially growing
psi. Every run starts near the pole from the series u ~ alpha - alpha^{q mu} J,
w ~ -alpha^q int psi^{n-1} (u/alpha)^q (mu = 1/(p-1); series_startup, on the
8-node Gauss-Legendre rule), which also gives u and w below the startup radius.

Each smooth piece of the model starts on DOP853. Where v = log(-w) relaxes
fast (on exponential stretches of psi, dv'/dv = -v' is the dominant
eigenvalue of the Jacobian), the explicit stepper sits at its stability
limit; once h v' > 6.1 on 15 consecutive accepted steps (the constants of
Hairer's DOP853 stiffness test) the rest of that piece is handed to
Radau IIA with the analytic Jacobian. Every value a RadialSolution returns
inside the integrated range is read from the steppers' dense output: the
7th-order DOP853 interpolant, or the cubic of a Radau step.

The DOP853 steps are scipy's method taken on Python floats instead of
numpy 2-vectors (_RadialDOP853), with the equations written once as a
kernel (lpsi, u, v) -> (u', v'), lpsi = (n-1) log psi, instantiated on
Python floats for the steps and on numpy arrays for the dense output. The
right-hand side depends on r only through log psi, and all fifteen radii
a step reads it at (11 inner stages, the step end, 3 dense-output stages)
are fixed by the step's start and length, so one model.log_psi array call
per attempted step serves them all. Each accepted step is appended to a
flat record; after the run the 3 dense-output stages and the interpolant's
coefficients are formed for all steps at once in numpy. nfev still counts
12 per attempted step and 3 per accepted step, as scipy's DOP853 with
dense output does.

Both steppers end a run at the first accepted step end (r, u) where u has
fallen to the underflow floor (the crossing is then located on the last
step's dense output by scipy's event rule) or where the caller's
predicate stop(r, u) holds.
"""

import json
import math
from array import array
from operator import mul

import numpy as np
from scipy.integrate import DOP853, Radau, solve_ivp
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.optimize import brentq

from . import runio
from .models import _EXP_CAP, GeometryOverflow, InvalidParameter
from .quadrature import _HALF_W8, _PARTIAL8, _U8, panel_integrals

# solution.csv contract: linear interpolation of u between neighbouring
# rows is within ROW_TOL |u| (see _row_radii)
ROW_TOL = 1e-7
# integration stops where u falls to this fraction of alpha
_U_FLOOR = 1e-12
# DOP853 stiffness test (Hairer & Wanner, Solving ODEs II, IV.2): the run
# hands over to Radau after _STIFF_STEPS consecutive steps with h v' > _STIFF_HV
_STIFF_HV = 6.1
_STIFF_STEPS = 15
_FLUX_ROWS = 200  # rows flux_residual samples
# the 8-node Gauss-Legendre rule on [0, 1]: nodes _T8 and weights _H8
_T8, _H8 = 1.0 - _U8, _HALF_W8


class StartupFailure(Exception):
    """The pole series is not valid at the radius asked (u drops >= 1e-3 alpha)."""


class StepSizeCollapse(Exception):
    """The adaptive stepper gave up; carries the radius where it died."""


class NonMonotone(Exception):
    """Internal consistency failure: computed u is not decreasing."""


class OutOfRange(Exception):
    """Evaluation radius outside the solution's grid."""


class Problem:
    """The radial problem data (n, p, q, alpha).

    Only critical or supercritical powers are accepted: q >= p* - 1 with
    p* = n p / (n - p).
    """

    def __init__(self, n, p, q, alpha):
        if int(n) != n or n < 2:
            raise InvalidParameter(f"n must be an integer >= 2, got {n}")
        if not (1.0 < p < n):
            raise InvalidParameter(f"p must lie in (1, n), got {p}")
        p_star = n * p / (n - p)
        if q < p_star - 1 - 1e-12:
            raise InvalidParameter(
                f"q={q} is subcritical: need q >= p*-1 = {p_star - 1:.6g}"
            )
        if alpha <= 0:
            raise InvalidParameter(f"alpha must be positive, got {alpha}")
        self.n = int(n)
        self.p = float(p)
        self.q = float(q)
        self.alpha = float(alpha)
        self.p_star = p_star

    @property
    def is_critical(self):
        return abs(self.q - (self.p_star - 1.0)) < 1e-12

    def to_dict(self):
        return {"n": self.n, "p": self.p, "q": self.q, "alpha": self.alpha}

    def __repr__(self):
        return f"Problem(n={self.n}, p={self.p}, q={self.q}, alpha={self.alpha})"


class SolverConfig:
    """Integration controls: horizon and tolerances."""

    def __init__(self, r_max, rel_tol=1e-11, abs_tol=1e-14):
        if r_max <= 0 or rel_tol <= 0 or abs_tol <= 0:
            raise InvalidParameter("r_max and tolerances must be positive")
        self.r_max = float(r_max)
        self.rel_tol = float(rel_tol)
        self.abs_tol = float(abs_tol)

    def to_dict(self):
        return {
            "r_max": self.r_max,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
        }


def default_startup_radius(prob):
    """Startup radius proportional to the solution's intrinsic scale.

    The central profile varies over radii ~ alpha^{-(q+1-p)/p}; handing
    off at 1e-4 of that scale keeps the truncated-series error in the
    startup flux far below the integration tolerance for every alpha
    (for large alpha the trajectory is dynamically unstable and a flux
    error at startup is amplified downstream).
    """
    return 1e-4 * prob.alpha ** (-(prob.q + 1.0 - prob.p) / prob.p)


def _node_sum(f, weights):
    """sum_j weights[j] f[..., j] term by term: batch-invariant, as BLAS is not."""
    return sum(f[..., j] * weights[j] for j in range(len(weights)))


def _pole_series(prob, model, r):
    """(u, v = log(-w)) of the pole series at radii r > 0, shaped as r.

    u = alpha - alpha^{q mu} J and w = -alpha^q int_0^r psi^{n-1} (u/alpha)^q
    on the 8-node Gauss-Legendre rule on [0, r], with Theta at each node s
    by the same rule on [0, s]. J is (r/n)^mu r/(1+mu) plus the rule on
    Theta^mu - (s/n)^mu, which vanishes like s^{mu+2}; its partial
    integrals give J, and so u, at the nodes. Formed relative to alpha and
    in log space; u == alpha, as near the pole in floating point, is valid.
    """
    a, q, n = prob.alpha, prob.q, prob.n
    mu = 1.0 / (prob.p - 1.0)
    r = np.asarray(r, dtype=float)
    s = r[..., None] * _T8
    G = (n - 1) * np.asarray(model.log_psi(np.concatenate(
        [s[..., None] * _T8, s[..., None]], axis=-1)), dtype=float)
    Gs = G[..., -1]
    # Theta^mu - (s/n)^mu in units of (r/n)^mu, from n Theta(s) / s
    excess = _T8 ** mu * np.expm1(mu * np.log(
        n * _node_sum(np.exp(G[..., :-1] - Gs[..., None]), _H8)))
    # 1 - u/alpha = rel J / ((r/n)^mu r), at r and at the nodes
    rel = np.exp((q * mu - 1.0) * math.log(a) + mu * np.log(r / n)) * r
    drop = rel * (1.0 / (1.0 + mu) + _node_sum(excess, _H8))
    drop_s = rel[..., None] * (_T8 ** (1.0 + mu) / (1.0 + mu) + _node_sum(
        excess[..., None, :], (_PARTIAL8 * _H8).T))
    v = (q * math.log(a) + np.log(r) + Gs[..., -1]
         + np.log(_node_sum(np.exp(Gs - Gs[..., -1:] + q * np.log1p(-drop_s)),
                            _H8)))
    if not np.all((drop >= 0.0) & (drop < 1e-3) & np.isfinite(v)):
        raise StartupFailure(f"pole series drops u by {np.max(drop):g} alpha")
    return a * (1.0 - drop), v


def series_startup(prob, model, r):
    """The pole series (u, w) at radii r > 0 (floats for a scalar r) that
    starts every run and gives RadialSolution on (0, r_1); see _pole_series."""
    u, v = _pole_series(prob, model, r)
    return _scalar_or_array(u), _scalar_or_array(-np.exp(v))


def _nested_coefficients(d):
    """Coefficients F of one Radau step's cubic in the DOP853 nested form.

    That form evaluates y_old + x (F0 + (1-x) (F1 + x (F2 + ...))) at the
    fraction x of the step. The cubic y_old + Q (x, x^2, x^3) is the same
    polynomial with F0 = Q0+Q1+Q2, F1 = -Q1-Q2, F2 = -Q2 and the remaining
    rows zero.
    """
    Q = d.Q.T
    F = np.zeros((7, Q.shape[1]))
    F[0] = Q[0] + Q[1] + Q[2]
    F[1] = -Q[1] - Q[2]
    F[2] = -Q[2]
    return F


def _radau_piece(ode):
    """(ts, h, y_old, F) of a Radau run from its OdeSolution."""
    steps = ode.interpolants
    return (ode.ts, np.array([d.h for d in steps]),
            np.array([d.y_old for d in steps]),
            np.array([_nested_coefficients(d) for d in steps]))


class _DenseTable:
    """The steppers' dense output as arrays over all accepted steps.

    Built from pieces (ts, h, y_old, F), one per stepper run, each starting
    where the previous one ended: the run's knots ts, and per step its
    length h, start state y_old and the coefficients F of scipy's
    Dop853DenseOutput (Radau steps rewritten into the same form). A step
    starts at its knot; its h is kept apart because the last knot of a run
    stopped on underflow lies inside the last step. The table repeats
    Dop853DenseOutput's nested evaluation with array indexing, so a call
    over N radii is a few array operations instead of one Python call per
    step, with the floats of Dop853DenseOutput on the same coefficients
    (same operation order), and on Radau steps the same cubic to within
    rounding.
    """

    def __init__(self, pieces):
        ts, h, y_old, F = zip(*pieces)
        self.ts = np.concatenate([ts[0][:1]] + [t[1:] for t in ts])
        self.t_old = np.concatenate([t[:-1] for t in ts])
        self.h = np.concatenate(h)
        self.y_old = np.concatenate(y_old)
        self.F = np.concatenate(F)

    def __call__(self, t):
        """(u, v) at radii t of any shape; each result has the shape of t."""
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        seg = np.searchsorted(self.ts, flat, side="left") - 1
        seg = np.clip(seg, 0, len(self.h) - 1)
        x = ((flat - self.t_old[seg]) / self.h[seg])[:, None]
        xm = 1 - x
        y = np.zeros((flat.size, self.y_old.shape[1]))
        for i in range(self.F.shape[1]):
            y += self.F[seg, -1 - i]
            y *= x if i % 2 == 0 else xm
        y += self.y_old[seg]
        return y[:, 0].reshape(t.shape), y[:, 1].reshape(t.shape)


def _row_radii(dense, u_min, tol=ROW_TOL):
    """Output radii: every accepted step split into k equal parts, k close
    to the least for which linear interpolation of u stays within tol |u|.

    On a step of length H the chord of u departs from u by
    x (1-x) H^2 |u''| / 2 at the fraction x of the step; read at
    x = 1/4, 1/2, 3/4 this gives M ~ H^2 |u''|. Cut into k equal parts, the
    chord error is largest mid-part, at M / (8 k^2). k starts from that
    estimate; on every step where the error read mid-part still exceeds
    tol u, k is raised by the square root of the excess plus 10%.
    """
    t = dense.ts
    a, H = t[:-1], np.diff(t)
    u_knots = np.maximum(dense(t)[0], u_min)
    x = np.array([0.25, 0.5, 0.75])
    chord = u_knots[:-1, None] + np.diff(u_knots)[:, None] * x
    dev = np.abs(dense(a[:, None] + H[:, None] * x)[0] - chord)
    M = np.max(dev / (0.5 * x * (1.0 - x)), axis=1)
    k = np.maximum(np.ceil(np.sqrt(M / (8.0 * tol * u_knots[1:]))), 1).astype(int)
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
            return rows
        k[low] = np.ceil(1.1 * k[low] * np.sqrt(worst[low])).astype(int)


class RadialSolution:
    """Trajectory of one radial problem, read from the steppers' dense output.

    Inside [r_1, r_last], r_1 being the startup radius, u and v = log(-w)
    are the steppers' dense output and u', w follow from v; on (0, r_1)
    they are the pole series that started the run (series_startup). The
    rows r, u, du, w (prepended with r = 0) are values of the same
    evaluation at radii spaced so that linear interpolation of u between
    neighbouring rows is within ROW_TOL |u|.
    """

    def __init__(self, prob, model, config, pieces, termination):
        self.problem = prob
        self.model = model
        self.config = config
        self.termination = termination
        self._u_min = _U_FLOOR * prob.alpha
        self._dense = _DenseTable(pieces)
        rows = _row_radii(self._dense, self._u_min)
        u, v = self._dense(rows)
        u = np.maximum(u, self._u_min)
        du, w = self._derived(rows, v)
        self.r = np.concatenate([[0.0], rows])
        self.u = np.concatenate([[prob.alpha], u])
        self.du = np.concatenate([[0.0], du])
        self.w = np.concatenate([[0.0], w])
        if np.any(np.diff(self.u) > 1e-14 * prob.alpha):
            raise NonMonotone("computed u fails to decrease along the grid")

    def _derived(self, r, v):
        """(u', w) from v = log(-w); psi^{n-1} enters through its logarithm.

        w = -exp(v) wherever that is a double, and -inf where v exceeds
        log(DBL_MAX).
        """
        prob = self.problem
        mu = 1.0 / (prob.p - 1.0)
        lpsi = (prob.n - 1) * np.asarray(self.model.log_psi(
            np.maximum(r, 1e-300)), dtype=float)
        du = -np.exp(np.minimum(mu * (v - lpsi), _EXP_CAP))
        with np.errstate(over="ignore"):
            w = -np.exp(v)
        return du, w

    def _uv(self, r):
        """(u, v) at radii r in [0, r_last], arrays of the shape of r.

        At the pole u = alpha and v = -inf (w = 0) exactly.
        """
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0) or np.any(r > self.r[-1] * (1 + 1e-12)):
            raise OutOfRange(f"radius outside [0, {self.r[-1]:g}]")
        inside = r >= self.r[1]
        if np.all(inside):
            u, v = self._dense(r)
        else:
            u, v = np.full(r.shape, self.problem.alpha), np.full(r.shape, -np.inf)
            u[inside], v[inside] = self._dense(r[inside])
            series = ~inside & (r > 0.0)
            u[series], v[series] = _pole_series(self.problem, self.model, r[series])
        return np.maximum(u, self._u_min), v

    def _state(self, r):
        """(u, u', w) at radii r in [0, r_last], arrays of the shape of r."""
        r = np.asarray(r, dtype=float)
        u, v = self._uv(r)
        du, w = self._derived(r, v)
        pole = r == 0.0
        return u, np.where(pole, 0.0, du), np.where(pole, 0.0, w)

    @property
    def r_last(self):
        return float(self.r[-1])

    def eval_u(self, r):
        return _scalar_or_array(self._uv(r)[0])

    def eval_du(self, r):
        return _scalar_or_array(self._state(r)[1])

    def eval_w(self, r):
        return _scalar_or_array(self._state(r)[2])

    def export_csv(self, path):
        """Write the rows as CSV with header r,u,du,w.

        Linear interpolation of u between neighbouring rows is within
        ROW_TOL |u| of the solution's own u.
        """
        return runio.write_csv(path, ["r", "u", "du", "w"],
                               [self.r, self.u, self.du, self.w])

    def export_json_sidecar(self, path):
        data = {
            "problem": self.problem.to_dict(),
            "config": self.config.to_dict(),
            "model": self.model.descriptor(),
            "termination": self.termination,
            "r_last": self.r_last,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
        return path


def _scalar_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


# scipy's DOP853 tableau as Python floats: the rows of A below the
# diagonal for the 11 inner stages and the 3 dense-output stages (row 12
# is B), the weights B, the error weights E3/E5 and the dense-output rows D
_A = [row[:s] for s, row in enumerate(_dop.A.tolist())]
_STAGE_ROWS, _DENSE_ROWS = _A[1:_dop.N_STAGES], _A[_dop.N_STAGES + 1:]
_INNER = len(_STAGE_ROWS)
_B = _dop.B.tolist()
_E3 = _dop.E3.tolist()
_E5 = _dop.E5.tolist()
_D = _dop.D.tolist()
# fractions of the step at which the right-hand side is read: the inner
# stages, the step end (C[12] = 1) and the dense-output stages
_FRACTIONS = _dop.C[1:]
# scipy's step-size control (scipy.integrate._ivp.rk)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0
# an accepted step in a _RadialDOP853 record: t, h, the start state (u, v),
# the end state, the 13 derivatives of u (at the step start, the 11 inner
# stages and the step end), those of v, and lpsi at the 3 dense-output stages
_NK = _INNER + 2
_RECORD = 6 + 2 * _NK + len(_DENSE_ROWS)
# scipy's tolerance for event roots (scipy.integrate._ivp.ivp)
_EVENT_TOL = 4 * np.finfo(float).eps


def _add_stages(kernel, rows, lpsi, u, v, h, ku, kv):
    """Append to the stage derivatives ku, kv those of the tableau rows,
    each read at its lpsi from the start state (u, v) of a step h.

    Works on Python floats (one step) and on numpy arrays (many steps at
    once): the sums run term by term in the same order either way."""
    for a, lp in zip(rows, lpsi):
        du, dv = kernel(lp, u + sum(map(mul, a, ku)) * h,
                        v + sum(map(mul, a, kv)) * h)
        ku.append(du)
        kv.append(dv)


class _RadialDOP853(DOP853):
    """DOP853 on Python floats, with steps below a tenth of the radius, that
    records its steps and stops where its stop predicate holds or the
    problem turns stiff.

    The step is scipy's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
    II.5-II.6): its tableau, its blended err5/err3 error norm and its
    step-size control (safety 0.9, factor bounds 0.2 and 10, exponent
    -1/8, scipy's min_step). Only the arithmetic moves from numpy on
    2-vectors to Python floats: the stages call kernel(lpsi, u, v) ->
    (u', v'), with lpsi = (n-1) log psi.

    The right-hand side depends on r only through log psi, and every radius
    t + c_i h at which a step reads it is known before any stage value. So
    one log_psi array call per attempted step covers all fifteen: the 11
    inner stages, the step end and the 3 extra stages of the dense output
    (spent for nothing when the attempt is rejected). On a glued model
    these radii stay inside one piece, because integrate restarts the
    stepper at every join.

    The stepper makes no dense output itself. Each accepted step appends
    to the flat record `steps` (an array('d'), _RECORD floats per step)
    what its dense output needs: t, h, both states, the 13 stage
    derivatives of u and of v, and lpsi at the 3 dense-output stages.
    _dop853_piece forms the 7th-order interpolant from the record after
    the run, for all steps at once. nfev grows as scipy's would with dense
    output: 12 per attempted step and 3 per accepted step (the dense-output
    stages, evaluated once each in that batch), plus the two evaluations
    of fun made in the constructor. Integration runs forward only.

    Near the pole v = log(-w) ~ n log r, and its equation has the rate
    |dv'/dv| = v' ~ n/r. The error control accepts steps of about r/4
    there, but the 7th-order dense output, built from three extra stages
    the control does not see, is then ~100x less accurate than the step
    (1.8e-7 in v against 5e-9 at the knots on euclidean (4,3,11)). A
    first trial step of a few r_0, as the default initial-step choice can
    make, drives the stages' v far off and overflows the error norm.
    Bounding h by r/10 keeps the dense output at the accuracy of the
    steps; away from the pole the bound rarely binds.

    The run ends at the first accepted step end (r, u) where stop(r, u)
    holds; integrate's predicate makes there the test scipy's event scan
    makes for a terminal event of direction -1 on u - u_floor. After each
    step, h v' is read from the derivative the step already evaluated at
    its end; once it exceeds _STIFF_HV on _STIFF_STEPS consecutive steps,
    the run also ends at that radius.
    """

    def __init__(self, fun, t0, y0, t_bound, *, lpsi, kernel, steps, stop,
                 **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self._lpsi = lpsi
        self._kernel = kernel
        self._steps = steps
        self._stop = stop
        self.rtol, self.atol = float(self.rtol), float(self.atol)
        self.h_abs = float(self.h_abs)
        self.f = tuple(self.f.tolist())
        self.stiff_steps = 0

    def _step_impl(self):
        t = self.t
        u, v = self.y.tolist()
        fu, fv = self.f
        kernel, rtol, atol = self._kernel, self.rtol, self.atol
        max_step = 0.1 * t
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = min(max(self.h_abs, min_step), max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = h
            lpsi = self._lpsi(t + h * _FRACTIONS).tolist()
            ku, kv = [fu], [fv]
            _add_stages(kernel, _STAGE_ROWS, lpsi, u, v, h, ku, kv)
            u_new = u + h * sum(map(mul, _B, ku))
            v_new = v + h * sum(map(mul, _B, kv))
            fu_new, fv_new = kernel(lpsi[_INNER], u_new, v_new)
            ku.append(fu_new)
            kv.append(fv_new)
            self.nfev += _INNER + 1

            # scipy's blended norm of the 5th- and 3rd-order error estimates
            su = atol + max(abs(u), abs(u_new)) * rtol
            sv = atol + max(abs(v), abs(v_new)) * rtol
            err5 = ((sum(map(mul, _E5, ku)) / su) ** 2
                    + (sum(map(mul, _E5, kv)) / sv) ** 2)
            err3 = ((sum(map(mul, _E3, ku)) / su) ** 2
                    + (sum(map(mul, _E3, kv)) / sv) ** 2)
            if err5 == 0.0 and err3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * 2)

            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True

        self.t = t_new
        self.y = np.array([u_new, v_new])
        self.h_abs = h_abs
        self.f = (fu_new, fv_new)
        self.nfev += len(_DENSE_ROWS)
        self._steps.extend((t, h, u, v, u_new, v_new, *ku, *kv,
                            *lpsi[_INNER + 1:]))

        if self._stop(t_new, u_new):
            self.t_bound = t_new
        if h * fv_new > _STIFF_HV:
            self.stiff_steps += 1
            if self.stiff_steps == _STIFF_STEPS:
                self.t_bound = t_new
        else:
            self.stiff_steps = 0
        return True, None


class _RadialRadau(Radau):
    """scipy's Radau IIA, ending its run at the first accepted step end
    (r, y) where stop(r, u) holds, as _RadialDOP853 does."""

    def __init__(self, fun, t0, y0, t_bound, *, stop, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self._stop = stop

    def _step_impl(self):
        success, message = super()._step_impl()
        if success and self._stop(self.t, self.y[0]):
            self.t_bound = self.t
        return success, message


def _dop853_piece(steps, kernel):
    """(ts, h, y_old, F) of a _RadialDOP853 run from its step record.

    The 3 extra stages and the coefficients F of the 7th-order dense output
    (Hairer, Norsett & Wanner, Solving ODEs I, II.6, as scipy forms them)
    depend only on each step's own data, so they are formed here for all
    steps at once: kernel is the numpy instance of the equations, and every
    sum runs in the term order of the stepper's. Against a per-step build
    on Python floats the only difference is the last-bit rounding of
    numpy's exp and log.
    """
    rec = np.frombuffer(steps).reshape(-1, _RECORD)
    t, h, u, v, u_new, v_new = rec[:, :6].T
    ku = list(rec[:, 6:6 + _NK].T)
    kv = list(rec[:, 6 + _NK:6 + 2 * _NK].T)
    _add_stages(kernel, _DENSE_ROWS, rec[:, 6 + 2 * _NK:].T, u, v, h, ku, kv)
    du, dv = u_new - u, v_new - v
    fu, fv = ku[_NK - 1], kv[_NK - 1]
    F = [(du, dv), (h * ku[0] - du, h * kv[0] - dv),
         (2 * du - h * (fu + ku[0]), 2 * dv - h * (fv + kv[0]))]
    F += [(h * sum(map(mul, d, ku)), h * sum(map(mul, d, kv))) for d in _D]
    # t + h is the step end exactly: h = t_new - t is exact for t_new < 2t
    return (np.append(t, t[-1] + h[-1]), h, rec[:, 2:4],
            np.array(F).transpose(2, 0, 1))


def _trim_to_underflow(piece, u_floor):
    """Move the last knot of a piece back to where the dense output of u
    on its last step falls to u_floor, by scipy's rule for event roots
    (brentq with xtol = rtol = 4 eps on the step's interpolant)."""
    ts, h, y_old, F = piece
    last = _DenseTable([(ts[-2:], h[-1:], y_old[-1:], F[-1:])])
    ts[-1] = brentq(lambda r: last(r)[0] - u_floor, ts[-2], ts[-1],
                    xtol=_EVENT_TOL, rtol=_EVENT_TOL)


def _radial_equations(prob, model):
    """The radial equations in the state (u, v = log(-w)).

    Returns (lpsi, kernel, dense_kernel, rhs, jac). lpsi(r) is (n-1) log
    psi on an array of radii. The equations are written once, in
    `equations`: u' = -exp((v - lpsi)/(p-1)), so exponentially large psi
    never overflows, and v' = exp(lpsi + q log u - v), with u floored at
    1e-12 alpha inside the logarithm. kernel(lpsi, u, v) -> (u', v') is
    their instance on Python floats (math), dense_kernel the same on numpy
    arrays. rhs(r, y) and its Jacobian jac(r, y) evaluate the kernel at one
    radius, for scipy's steppers.
    """
    n, q = prob.n, prob.q
    mu = 1.0 / (prob.p - 1.0)
    u_floor = _U_FLOOR * prob.alpha

    def lpsi(r):
        return (n - 1) * model.log_psi(r)

    def equations(exp, log, minimum, maximum):
        def kernel(lp, u, v):
            du = -exp(minimum(mu * (v - lp), _EXP_CAP))
            dv = exp(minimum(lp + q * log(maximum(u, u_floor)) - v, _EXP_CAP))
            return du, dv

        return kernel

    kernel = equations(math.exp, math.log, min, max)

    def rhs(r, y):
        return kernel(float(lpsi(r)), y[0], y[1])

    def jac(r, y):
        du, dv = rhs(r, y)
        return [[0.0, mu * du], [q * dv / max(y[0], u_floor), -dv]]

    return (lpsi, kernel, equations(np.exp, np.log, np.minimum, np.maximum),
            rhs, jac)


def integrate(prob, model, config, stop=None):
    """Integrate the radial problem from the pole to config.r_max.

    State variables are (u, log(-w)), with the equations of
    _radial_equations. The run ends at the horizon ("reached-horizon"), or
    at the first accepted step end where u hits the underflow floor
    1e-12 alpha ("underflow"; u = 0 is never attained in exact arithmetic,
    and the last radius is moved back to where the dense output of u
    crosses the floor), or where stop(r, u) holds ("stopped", on that step
    end). Each piece runs on _RadialDOP853; a piece on which it stops for
    stiffness is finished by Radau.
    """
    if config.r_max > model.valid_to:
        raise GeometryOverflow(
            f"horizon {config.r_max:g} exceeds model trusted range "
            f"{model.valid_to:g}"
        )
    u_floor = _U_FLOOR * prob.alpha
    r0 = min(default_startup_radius(prob), 0.01 * config.r_max)
    u0, w0 = series_startup(prob, model, r0)
    v0 = math.log(-w0)
    lpsi, kernel, dense_kernel, rhs, jac = _radial_equations(prob, model)
    termination = None

    def ends_run(r, u):
        """Both steppers' check at every accepted step end."""
        nonlocal termination
        if u <= u_floor:
            termination = "underflow"
        elif stop is not None and stop(r, u):
            termination = "stopped"
        return termination is not None

    # one stepper run per smooth piece of the model: a step across a join,
    # where derivatives of psi past psi'' jump, is accepted at the knots
    # but its dense output is not (1.6e-10 against 7e-13 in u next to the
    # first join of the oscillating construction)
    ends = [j for j in model.joins() if r0 < j < config.r_max] + [config.r_max]
    pieces = []

    def run(method, start, end, y0, **options):
        sol = solve_ivp(rhs, (start, end), y0, method=method,
                        rtol=config.rel_tol, atol=config.abs_tol,
                        stop=ends_run, **options)
        if not sol.success:
            raise StepSizeCollapse(
                f"stepper failed at r={sol.t[-1]:g}: {sol.message}"
            )
        return sol

    # at a join, restart with the last step (scipy's guess overflows late joins)
    start, y0, h_last = r0, [u0, v0], None
    for end in ends:
        steps = array("d")
        first = None if h_last is None else min(h_last, end - start)
        sol = run(_RadialDOP853, start, end, y0, lpsi=lpsi, kernel=kernel,
                  steps=steps, first_step=first)
        pieces.append(_dop853_piece(steps, dense_kernel))
        # a run that ends short of `end` otherwise stopped on its stiffness test
        if termination is None and sol.t[-1] < end:
            sol = run(_RadialRadau, sol.t[-1], end, sol.y[:, -1], jac=jac,
                      dense_output=True)
            pieces.append(_radau_piece(sol.sol))
        if termination is not None:
            break
        start, y0, h_last = end, sol.y[:, -1], sol.t[-1] - sol.t[-2]
    if termination == "underflow":
        _trim_to_underflow(pieces[-1], u_floor)
    return RadialSolution(prob, model, config, pieces,
                          termination or "reached-horizon")


def _flux_integrals(sol, idx, v_b):
    """int psi^{n-1} u^q e^{-v_b} between consecutive rows of idx, one per
    pair, v_b[k] being the shift of the k-th pair.

    The integrand is formed in log space, so it stays finite however large
    psi^{n-1} grows, and integrated over every row interval in between by
    quadrature.panel_integrals, with u read from the steppers' dense output.
    """
    prob = sol.problem
    lo, hi = idx[0], idx[-1]
    edges = sol.r[lo:hi + 1]
    shift = np.repeat(v_b, np.diff(idx))

    def lpsi(x):
        return (prob.n - 1) * np.asarray(sol.model.log_psi(x), dtype=float)

    def density(x, k):
        return np.exp(lpsi(x) + prob.q * np.log(sol._uv(x)[0]) - shift[k][:, None])

    rows = panel_integrals(density, edges, lpsi(edges))
    return np.add.reduceat(rows, np.asarray(idx[:-1]) - lo)


def flux_residual(sol):
    """Max relative defect of w(b) - w(a) + int_a^b psi^{n-1} u^q over rows.

    This is the integrated form of the equation; it is the natural a
    posteriori check because it only involves quantities the solver carries.
    The defect is read between _FLUX_ROWS sampled rows, relative to |w(b)| and
    in log space from v = log(-w):
    -1 + e^{v_a - v_b} + int_a^b e^{(n-1) log psi + q log u - v_b}, so it
    stays finite where w itself overflows. The integral is a 5-node
    Gauss-Legendre rule on panels of every row interval in between. It
    agrees with adaptive quadrature at epsrel=2e-14 on each row interval to
    about 1e-14 |w| (tests require 1e-12 |w|), so the residual measures the
    solver rather than the quadrature.
    """
    idx = np.unique(np.linspace(1, len(sol.r) - 1, _FLUX_ROWS).astype(int))
    v = sol._uv(sol.r[idx])[1]
    defect = -1.0 + np.exp(v[:-1] - v[1:]) + _flux_integrals(sol, idx, v[1:])
    return float(np.max(np.abs(defect)))
