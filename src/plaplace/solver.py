"""Radial IVP integrator for -Delta_p u = u^q on model manifolds.

Solves, in radial coordinates about the pole,

    (psi^{n-1} |u'|^{p-2} u')' = -psi^{n-1} u^q,   u(0) = alpha, u'(0) = 0,

by propagating the pair (u, w) with w = psi^{n-1}|u'|^{p-2}u'. The flux w
stays C^1 even where u' loses regularity across p, so it is the safe state
variable; internally log(-w) is carried to survive exponentially growing
psi. Startup at r = 0 uses the series w ~ -alpha^q I(r) (the degenerate
point is regular for w) plus one Picard correction for u. The stepper is
DOP853, and every value a RadialSolution returns inside the integrated
range is read from its 7th-order dense output.
"""

import json
import math

import numpy as np
from scipy.integrate import DOP853, quad, solve_ivp
from scipy.interpolate import PchipInterpolator

from .models import _EXP_CAP, GeometryOverflow, InvalidParameter

# solution.csv contract: linear interpolation of u between neighbouring
# rows is within ROW_TOL |u| (see _row_radii)
ROW_TOL = 1e-7
# integration stops where u falls to this fraction of alpha
_U_FLOOR = 1e-12


class StartupFailure(Exception):
    """Series startup failed to contract even after shrinking r0."""


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
    """Integration controls: horizon, tolerances, startup radius."""

    def __init__(self, r_max, rel_tol=1e-11, abs_tol=1e-14, startup_radius=None):
        if r_max <= 0 or rel_tol <= 0 or abs_tol <= 0:
            raise InvalidParameter("r_max and tolerances must be positive")
        self.r_max = float(r_max)
        self.rel_tol = float(rel_tol)
        self.abs_tol = float(abs_tol)
        self.startup_radius = startup_radius

    def to_dict(self):
        return {
            "r_max": self.r_max,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "startup_radius": self.startup_radius,
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


def series_startup(prob, model, r0):
    """Series handoff at r0: returns (u(r0), w(r0)).

    Leading order w(r0) = -alpha^q I(r0) (from w'(0) = -alpha^q/n and
    I' = psi^{n-1}), with u corrected by one Picard sweep
    u(r0) = alpha - int_0^{r0} (-w/psi^{n-1})^{1/(p-1)}. r0 is halved until
    the correction is < 1e-3 alpha.
    """
    a, q, p, n = prob.alpha, prob.q, prob.p, prob.n
    mu = 1.0 / (p - 1.0)
    floor = 1e-14

    def I_of(r):
        val, _ = quad(lambda s: math.exp((n - 1) * float(model.log_psi(s))), 0.0, r,
                      limit=200)
        return val

    r0 = float(r0)
    for _ in range(60):
        if r0 < floor:
            break
        Ir0 = I_of(r0)
        w0 = -(a ** q) * Ir0

        def du_mag(s):
            if s <= 0.0:
                return 0.0
            lg = (q * math.log(a) + math.log(I_of(s))
                  - (n - 1) * float(model.log_psi(s)))
            return math.exp(mu * lg)

        corr, _ = quad(du_mag, 0.0, r0, limit=200)
        if corr < 1e-3 * a:
            u0 = a - corr
            if not (0.0 < u0 < a and w0 < 0.0):
                raise StartupFailure(
                    f"startup state invalid at r0={r0:g}: u0={u0:g}, w0={w0:g}"
                )
            return u0, w0
        r0 *= 0.5
    raise StartupFailure(f"Picard correction never contracted (r0 floor {floor:g})")


class _DenseTable:
    """The stepper's DOP853 dense output as arrays over all accepted steps.

    Built from the OdeSolutions of consecutive stepper runs, each starting
    where the previous one ended. Holds, per step, the data of scipy's
    Dop853DenseOutput (start t_old, length h, start state y_old,
    coefficients F) and repeats its nested evaluation with array indexing.
    A call over N radii is then a few array operations instead of one
    Python call per step, and gives the floats of OdeSolution (same segment
    choice, same operation order).
    """

    def __init__(self, pieces):
        steps = [d for ode in pieces for d in ode.interpolants]
        self.ts = np.concatenate([pieces[0].ts[:1]] + [ode.ts[1:] for ode in pieces])
        self.t_old = np.array([d.t_old for d in steps])
        self.h = np.array([d.h for d in steps])
        self.y_old = np.array([d.y_old for d in steps])
        self.F = np.array([d.F for d in steps])

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
    """Trajectory of one radial problem, read from the stepper's dense output.

    Inside [r_1, r_last], r_1 being the startup radius, u and v = log(-w)
    are the stepper's DOP853 dense output and u', w follow from v; on
    [0, r_1] monotone cubics through the first rows continue them to the
    pole. The rows r, u, du, w (prepended with r = 0) are values of the same
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
        # below r_1 only: u through (0, alpha) and the first rows, and
        # log(-w), which is close to linear in log r near the pole
        # (~ n log r), extrapolated from the first rows
        self._iu = PchipInterpolator(self.r[:3], self.u[:3])
        self._iv = PchipInterpolator(np.log(rows[:3]), v[:3], extrapolate=True)

    def _derived(self, r, v):
        """(u', w) from v = log(-w); psi^{n-1} enters through its logarithm."""
        prob = self.problem
        mu = 1.0 / (prob.p - 1.0)
        lpsi = (prob.n - 1) * np.asarray(self.model.log_psi(
            np.maximum(r, 1e-300)), dtype=float)
        du = -np.exp(np.minimum(mu * (v - lpsi), _EXP_CAP))
        w = -np.exp(np.minimum(v, _EXP_CAP))
        return du, w

    def _uv(self, r):
        """(u, v) at radii r in [0, r_last], arrays of the shape of r.

        u(0) = alpha exactly: the cubic below r_1 passes through (0, alpha).
        """
        r = np.asarray(r, dtype=float)
        self._check(r)
        inside = r >= self.r[1]
        if np.all(inside):
            u, v = self._dense(r)
        else:
            u = self._iu(r)
            v = self._iv(np.log(np.maximum(r, 1e-300)))
            if np.any(inside):
                u[inside], v[inside] = self._dense(r[inside])
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

    def __call__(self, r):
        return self.eval_u(r)

    def eval_u(self, r):
        return _scalar_or_array(self._uv(r)[0])

    def eval_du(self, r):
        return _scalar_or_array(self._state(r)[1])

    def eval_w(self, r):
        return _scalar_or_array(self._state(r)[2])

    def _check(self, r):
        if np.any(r < 0.0) or np.any(r > self.r[-1] * (1 + 1e-12)):
            raise OutOfRange(
                f"radius outside [0, {self.r[-1]:g}]"
            )

    def export_csv(self, path):
        """Write the rows as CSV with header r,u,du,w.

        Linear interpolation of u between neighbouring rows is within
        ROW_TOL |u| of the solution's own u.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("r,u,du,w\n")
            for row in zip(self.r, self.u, self.du, self.w):
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
        return path

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


class _RadialDOP853(DOP853):
    """DOP853 whose steps stay below a tenth of the radius.

    Near the pole v = log(-w) ~ n log r, and its equation has the rate
    |dv'/dv| = v' ~ n/r. The error control accepts steps of about r/4
    there, but the 7th-order dense output, built from three extra stages
    the control does not see, is then ~100x less accurate than the step
    (1.8e-7 in v against 5e-9 at the knots on euclidean (4,3,11)). A
    first trial step of a few r_0, as the default initial-step choice can
    make, drives the stages' v far off and overflows the error norm.
    Bounding h by r/10 keeps the dense output at the accuracy of the
    steps; away from the pole the bound rarely binds.
    """

    def _step_impl(self):
        self.max_step = 0.1 * self.t
        return super()._step_impl()


def integrate(prob, model, config):
    """Integrate the radial problem from the pole to config.r_max.

    State variables are (u, log(-w)); u' is recovered through
    -exp((log(-w) - (n-1) log psi)/(p-1)) so exponentially large psi never
    overflows. Terminates at the horizon or when u hits the underflow floor
    1e-12 alpha (u = 0 is never attained in exact arithmetic).
    """
    if config.r_max > model.valid_to:
        raise GeometryOverflow(
            f"horizon {config.r_max:g} exceeds model trusted range "
            f"{model.valid_to:g}"
        )
    n, p, q, a = prob.n, prob.p, prob.q, prob.alpha
    mu = 1.0 / (p - 1.0)
    u_floor = _U_FLOOR * a

    r0 = config.startup_radius or default_startup_radius(prob)
    r0 = min(r0, 0.01 * config.r_max)
    u0, w0 = series_startup(prob, model, r0)
    v0 = math.log(-w0)

    def rhs(r, y):
        u, v = y
        lpsi = (n - 1) * float(model.log_psi(r))
        du = -math.exp(min(mu * (v - lpsi), _EXP_CAP))
        uu = max(u, u_floor)
        dv = math.exp(min(lpsi + q * math.log(uu) - v, _EXP_CAP))
        return [du, dv]

    def underflow(r, y):
        return y[0] - u_floor

    underflow.terminal = True
    underflow.direction = -1

    # one stepper run per smooth piece of the model: a step across a join,
    # where derivatives of psi past psi'' jump, is accepted at the knots
    # but its dense output is not (1.6e-10 against 7e-13 in u next to the
    # first join of the oscillating construction)
    ends = [j for j in model.joins() if r0 < j < config.r_max] + [config.r_max]
    pieces, start, y0 = [], r0, [u0, v0]
    for end in ends:
        sol = solve_ivp(
            rhs,
            (start, end),
            y0,
            method=_RadialDOP853,
            rtol=config.rel_tol,
            atol=config.abs_tol,
            events=underflow,
            dense_output=True,
        )
        if not sol.success:
            raise StepSizeCollapse(
                f"stepper failed at r={sol.t[-1]:g}: {sol.message}"
            )
        pieces.append(sol.sol)
        if sol.status == 1:
            break
        start, y0 = end, sol.y[:, -1]
    termination = "underflow" if sol.status == 1 else "reached-horizon"
    return RadialSolution(prob, model, config, pieces, termination)


# 5-node Gauss-Legendre rule on [-1, 1], in closed form (leggauss would
# load LAPACK at import); exact for degree 9, and the integrands are
# smooth inside a row interval.
_GL_X1 = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GL_X2 = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GL_W1 = (322.0 + 13.0 * math.sqrt(70.0)) / 900.0
_GL_W2 = (322.0 - 13.0 * math.sqrt(70.0)) / 900.0
_GL_NODES = np.array([-_GL_X2, -_GL_X1, 0.0, _GL_X1, _GL_X2])
_GL_WEIGHTS = np.array([_GL_W2, _GL_W1, 128.0 / 225.0, _GL_W1, _GL_W2])


def gauss_legendre(f, a, b):
    """Integral of f over each interval [a_i, b_i] by the 5-node rule.

    f is called once, on the (len(a), 5) array of all nodes.
    """
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
    return half * (f(x) @ _GL_WEIGHTS)


def _flux_integrals(sol, idx):
    """int psi^{n-1} u^q between consecutive rows of idx, one per pair.

    A 5-node Gauss-Legendre rule on every row interval in between, all in
    one array call, with u read from the stepper's dense output.
    """
    prob = sol.problem

    def density(x):
        return np.exp((prob.n - 1) * np.asarray(sol.model.log_psi(x), dtype=float)
                      + prob.q * np.log(sol._uv(x)[0]))

    lo, hi = idx[0], idx[-1]
    per_row = gauss_legendre(density, sol.r[lo:hi], sol.r[lo + 1:hi + 1])
    return np.add.reduceat(per_row, np.asarray(idx[:-1]) - lo)


def flux_residual(sol, num=200):
    """Max relative defect of w(b) - w(a) + int_a^b psi^{n-1} u^q over rows.

    This is the integrated form of the equation; it is the natural a
    posteriori check because it only involves quantities the solver carries.
    The defect is read between `num` sampled rows; the integral between two
    of them is a 5-node Gauss-Legendre rule on every row interval in
    between. It agrees with adaptive quadrature at epsrel=2e-14 on each
    row interval to about 1e-14 |w| (tests require 1e-12 |w|), so the
    residual measures the solver rather than the quadrature.
    """
    idx = np.unique(np.linspace(1, len(sol.r) - 1, num).astype(int))
    w_a, w_b = sol.w[idx[:-1]], sol.w[idx[1:]]
    defect = np.abs(w_b - w_a + _flux_integrals(sol, idx))
    return float(np.max(defect / np.maximum(np.abs(w_b), 1e-300)))
