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

The Radau steps are scipy's Radau IIA taken on Python floats the same way
(_RadialRadau): its simplified Newton iteration, error estimate and
step-size control, with the two 2x2 linear systems solved in closed form
and one log_psi array call per attempted step for the three stage radii.
Each accepted step records its collocation cubic, which is rewritten into
the DOP853 dense output's nested form for all steps at once after the run.

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
from scipy.integrate._ivp import radau as _radau
from scipy.optimize import brentq

from . import runio
from .dense import _DenseTable
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
# scipy's step-size control (scipy.integrate._ivp.rk; its Radau bounds
# the factor alike)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0
# an accepted step in a _RadialDOP853 record: t, h, the start state (u, v),
# the end state, the 13 derivatives of u (at the step start, the 11 inner
# stages and the step end), those of v, and lpsi at the 3 dense-output stages
_NK = _INNER + 2
_RECORD = 6 + 2 * _NK + len(_DENSE_ROWS)
# scipy's Radau IIA (scipy.integrate._ivp.radau) as Python floats: the
# collocation nodes C (an array, for the stage radii t + C h), the error
# weights E, the eigenvalues of A^-1, the transformations T and TI (its
# complex pair as one complex row), the columns of the cubic's P
_RADAU_C = _radau.C
_RADAU_E = _radau.E.tolist()
_MU_REAL, _MU_COMPLEX = _radau.MU_REAL, _radau.MU_COMPLEX
_T = _radau.T.tolist()
_TI_REAL, _TI_COMPLEX = _radau.TI_REAL.tolist(), _radau.TI_COMPLEX.tolist()
_P_COLUMNS = _radau.P.T.tolist()
_NEWTON_MAXITER = _radau.NEWTON_MAXITER
# an accepted step in a _RadialRadau record: t, h, the start state (u, v)
# and the cubic's coefficients Q, three for u then three for v
_RADAU_RECORD = 10
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


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    """scipy's radau.predict_factor (Gustafsson's predictive control) on floats."""
    if error_norm == 0.0:
        return math.inf
    multiplier = 1.0
    if error_norm_old is not None and h_abs_old is not None:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    return min(1.0, multiplier) * error_norm ** -0.25


def _sum_squares(*x):
    """sum x_i^2, inf past the double range (where a float's ** 2 raises)."""
    return sum(a * a for a in x)


def _factor(M, J):
    """The inverse of M I - J for J = [[0, a], [b, c]], as its four entries
    (real or complex): the closed form of the 2x2 LU solve."""
    (_, a), (b, c) = J
    det = M * (M - c) - a * b
    return (M - c) / det, a / det, b / det, M / det


class _RadialRadau(Radau):
    """Radau IIA on Python floats that records its steps and ends its run at
    the first accepted step end (r, u) where stop(r, u) holds, as
    _RadialDOP853 does.

    The step is scipy's Radau (Hairer & Wanner, Solving ODEs II, IV.8): its
    constants, the simplified Newton iteration with its rate test and
    newton_tol, started from the previous step's collocation cubic (zero on
    the first step), the error estimate solve(LU_real, f + ZE) refined on a
    rejected step, the predictive step-size control with the safety factor
    set by the Newton iterations, LU reuse while the step factor stays
    below 1.2, the Jacobian refresh rule (n_iter > 2 and rate > 1e-3) and
    halving h when Newton fails. Only the arithmetic moves from numpy to
    Python floats: the systems mu_real/h - J and mu_complex/h - J are
    inverted in closed form (_factor, on float and complex), the stages
    call kernel(lpsi, u, v) and J is jacobian(u, u', v').

    One log_psi array call per attempted step, at t + C h, covers the three
    stage radii (C[2] = 1 is the step end), which every Newton iteration
    reuses; lpsi at the step start, for the refined error estimate, is
    carried over from the previous step. Each accepted step appends to the
    flat record `steps` (an array('d'), _RADAU_RECORD floats per step) t,
    h, the start state (u, v) and the cubic's coefficients Q = Z^T P, rows u
    then v; _radau_piece forms the dense output from it. nfev, njev and nlu
    count as scipy's do, nlu once for each of the two systems factored.
    """

    def __init__(self, fun, t0, y0, t_bound, *, lpsi, kernel, jacobian, steps,
                 stop, **options):
        super().__init__(fun, t0, y0, t_bound,
                         jac=lambda r, y: jacobian(y[0], *fun(r, y)), **options)
        self._lpsi = lpsi
        self._kernel = kernel
        self._jacobian = jacobian
        self._steps = steps
        self._stop = stop
        self._lpsi_t = float(lpsi(t0))
        self.rtol, self.atol = float(self.rtol), float(self.atol)
        self.h_abs = float(self.h_abs)
        self.f = tuple(self.f.tolist())
        self.J = self.J.tolist()
        # the step h of the factored systems (None: factor again) and the
        # previous step's (t, h, u, v, Q), which starts Newton
        self.lu_h = self._lu = None
        self.cubic = None

    def _step_impl(self):
        t = self.t
        u, v = self.y.tolist()
        fu, fv = self.f
        kernel, rtol, atol, tol = self._kernel, self.rtol, self.atol, self.newton_tol
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        if self.h_abs > self.max_step:
            h_abs, h_abs_old, error_norm_old = self.max_step, None, None
        elif self.h_abs < min_step:
            h_abs, h_abs_old, error_norm_old = min_step, None, None
        else:
            h_abs, h_abs_old = self.h_abs, self.h_abs_old
            error_norm_old = self.error_norm_old
        J, lu_h, lu, current_jac = self.J, self.lu_h, self._lu, self.current_jac
        su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol

        rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = h
            radii = t + h * _RADAU_C
            lp = self._lpsi(radii).tolist()
            if self.cubic is None:
                Z0 = [(0.0, 0.0)] * 3
            else:
                t_o, h_o, u_o, v_o, qu0, qu1, qu2, qv0, qv1, qv2 = self.cubic
                Z0 = []
                for s in radii.tolist():
                    x = (s - t_o) / h_o
                    x2 = x * x
                    x3 = x2 * x
                    Z0.append((qu0 * x + qu1 * x2 + qu2 * x3 + u_o - u,
                               qv0 * x + qv1 * x2 + qv2 * x3 + v_o - v))

            while True:
                if lu is None:
                    lu_h = h
                    lu = (_factor(_MU_REAL / h, J), _factor(_MU_COMPLEX / h, J))
                    self.nlu += 2
                converged, n_iter, Z, rate = self._newton(lp, u, v, h, Z0, su, sv,
                                                          tol, lu)
                if converged or current_jac:
                    break
                J = self._jacobian(u, fu, fv)
                self.njev += 1
                current_jac = True
                lu = None
            if not converged:
                h_abs *= 0.5
                lu = None
                continue

            (zu0, zv0), (zu1, zv1), (zu2, zv2) = Z
            u_new, v_new = u + zu2, v + zv2
            e0, e1, e2 = _RADAU_E
            zeu = (zu0 * e0 + zu1 * e1 + zu2 * e2) / h
            zev = (zv0 * e0 + zv1 * e1 + zv2 * e2) / h
            r00, r01, r10, r11 = lu[0]
            eu, ev = fu + zeu, fv + zev
            eu, ev = r00 * eu + r01 * ev, r10 * eu + r11 * ev
            eu_scale = atol + max(abs(u), abs(u_new)) * rtol
            ev_scale = atol + max(abs(v), abs(v_new)) * rtol
            error_norm = math.sqrt(_sum_squares(eu / eu_scale, ev / ev_scale) / 2)
            safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
            if rejected and error_norm > 1.0:
                gu, gv = kernel(self._lpsi_t, u + eu, v + ev)
                self.nfev += 1
                eu, ev = gu + zeu, gv + zev
                eu, ev = r00 * eu + r01 * ev, r10 * eu + r11 * ev
                error_norm = math.sqrt(_sum_squares(eu / eu_scale, ev / ev_scale) / 2)
            if error_norm <= 1.0:
                break
            factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
            h_abs *= max(_MIN_FACTOR, safety * factor)
            lu = None
            rejected = True

        recompute_jac = n_iter > 2 and rate > 1e-3
        factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
        factor = min(_MAX_FACTOR, safety * factor)
        if not recompute_jac and factor < 1.2:
            factor = 1.0
        else:
            lu = None
        f_new = kernel(lp[2], u_new, v_new)
        self.nfev += 1
        if recompute_jac:
            J = self._jacobian(u_new, *f_new)
            self.njev += 1
        current_jac = recompute_jac

        self.h_abs_old = self.h_abs
        self.error_norm_old = error_norm
        self.h_abs = h_abs * factor
        self.t = t_new
        self.y = np.array([u_new, v_new])
        self.f = f_new
        self.J, self.current_jac = J, current_jac
        self.lu_h, self._lu = (None, None) if lu is None else (lu_h, lu)
        self._lpsi_t = lp[2]
        Q = [sum(map(mul, z, p)) for z in ((zu0, zu1, zu2), (zv0, zv1, zv2))
             for p in _P_COLUMNS]
        self.cubic = (t, h, u, v, *Q)
        self._steps.extend(self.cubic)

        if self._stop(t_new, u_new):
            self.t_bound = t_new
        return True, None

    def _newton(self, lp, u, v, h, Z0, su, sv, tol, lu):
        """scipy's radau.solve_collocation_system on floats: the simplified
        Newton iteration for the stage increments Z from Z0, in the
        transformed variables W = TI Z (its complex pair as one complex)."""
        kernel = self._kernel
        (r00, r01, r10, r11), (c00, c01, c10, c11) = lu
        (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = _T
        i0, i1, i2 = _TI_REAL
        j0, j1, j2 = _TI_COMPLEX
        lp0, lp1, lp2 = lp
        m_real, m_complex = _MU_REAL / h, _MU_COMPLEX / h
        Z = Z0
        (z0u, z0v), (z1u, z1v), (z2u, z2v) = Z0
        wu, wv = i0 * z0u + i1 * z1u + i2 * z2u, i0 * z0v + i1 * z1v + i2 * z2v
        cu, cv = j0 * z0u + j1 * z1u + j2 * z2u, j0 * z0v + j1 * z1v + j2 * z2v
        dw_norm_old = rate = None
        converged = False
        for k in range(_NEWTON_MAXITER):
            f0u, f0v = kernel(lp0, u + z0u, v + z0v)
            f1u, f1v = kernel(lp1, u + z1u, v + z1v)
            f2u, f2v = kernel(lp2, u + z2u, v + z2v)
            self.nfev += 3
            if not all(map(math.isfinite, (f0u, f0v, f1u, f1v, f2u, f2v))):
                break
            fu = i0 * f0u + i1 * f1u + i2 * f2u - m_real * wu
            fv = i0 * f0v + i1 * f1v + i2 * f2v - m_real * wv
            gu = j0 * f0u + j1 * f1u + j2 * f2u - m_complex * cu
            gv = j0 * f0v + j1 * f1v + j2 * f2v - m_complex * cv
            du, dv = r00 * fu + r01 * fv, r10 * fu + r11 * fv
            dcu, dcv = c00 * gu + c01 * gv, c10 * gu + c11 * gv
            dw_norm = math.sqrt(_sum_squares(du / su, dcu.real / su, dcu.imag / su,
                                             dv / sv, dcv.real / sv, dcv.imag / sv) / 6)
            if dw_norm_old is not None:
                rate = dw_norm / dw_norm_old
            if rate is not None and (rate >= 1.0 or rate ** (_NEWTON_MAXITER - k)
                                     / (1.0 - rate) * dw_norm > tol):
                break
            wu, wv, cu, cv = wu + du, wv + dv, cu + dcu, cv + dcv
            cur, cui, cvr, cvi = cu.real, cu.imag, cv.real, cv.imag
            z0u, z0v = t00 * wu + t01 * cur + t02 * cui, t00 * wv + t01 * cvr + t02 * cvi
            z1u, z1v = t10 * wu + t11 * cur + t12 * cui, t10 * wv + t11 * cvr + t12 * cvi
            z2u, z2v = t20 * wu + t21 * cur + t22 * cui, t20 * wv + t21 * cvr + t22 * cvi
            Z = ((z0u, z0v), (z1u, z1v), (z2u, z2v))
            if dw_norm == 0.0 or rate is not None and rate / (1.0 - rate) * dw_norm < tol:
                converged = True
                break
            dw_norm_old = dw_norm
        return converged, k + 1, Z, rate


def _radau_piece(steps):
    """(ts, h, y_old, F) of a _RadialRadau run from its step record.

    A step's cubic y_old + Q (x, x^2, x^3) at the fraction x of the step is
    rewritten, for all steps at once, into the nested form of
    _DenseTable, y_old + x (F0 + (1-x) (F1 + x (F2 + ...))), with
    F0 = Q0+Q1+Q2, F1 = -Q1-Q2, F2 = -Q2 and the remaining rows zero.
    """
    rec = np.frombuffer(steps).reshape(-1, _RADAU_RECORD)
    t, h = rec[:, 0], rec[:, 1]
    Q = rec[:, 4:].reshape(-1, 2, 3).transpose(2, 0, 1)
    F = np.zeros((7, len(t), 2))
    F[0] = Q[0] + Q[1] + Q[2]
    F[1] = -Q[1] - Q[2]
    F[2] = -Q[2]
    # t + h is the step end exactly while h = t_new - t is, i.e. t_new <= 2t
    return np.append(t, t[-1] + h[-1]), h, rec[:, 2:4], F.transpose(1, 0, 2)


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

    Returns (lpsi, kernel, dense_kernel, rhs, jacobian). lpsi(r) is (n-1)
    log psi on an array of radii. The equations are written once, in
    `equations`: u' = -exp((v - lpsi)/(p-1)), so exponentially large psi
    never overflows, and v' = exp(lpsi + q log u - v), with u floored at
    1e-12 alpha inside the logarithm. kernel(lpsi, u, v) -> (u', v') is
    their instance on Python floats (math), dense_kernel the same on numpy
    arrays. rhs(r, y) evaluates the kernel at one radius, for scipy's
    steppers, and jacobian(u, u', v') is the Jacobian at a state from its
    derivative, on floats.
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

    def jacobian(u, du, dv):
        return [[0.0, mu * du], [q * dv / max(u, u_floor), -dv]]

    return (lpsi, kernel, equations(np.exp, np.log, np.minimum, np.maximum),
            rhs, jacobian)


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
    lpsi, kernel, dense_kernel, rhs, jacobian = _radial_equations(prob, model)
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
            steps = array("d")
            sol = run(_RadialRadau, sol.t[-1], end, sol.y[:, -1], lpsi=lpsi,
                      kernel=kernel, jacobian=jacobian, steps=steps)
            pieces.append(_radau_piece(steps))
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
