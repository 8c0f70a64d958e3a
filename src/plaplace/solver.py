"""Radial IVP integrator for -Delta_p u = u^q on model manifolds.

Solves, in radial coordinates about the pole,

    (psi^{n-1} |u'|^{p-2} u')' = -psi^{n-1} u^q,   u(0) = alpha, u'(0) = 0,

by propagating the pair (u, w) with w = psi^{n-1}|u'|^{p-2}u'. The flux w
stays C^1 even where u' loses regularity across p, so it is the safe state
variable; internally log(-w) is carried to survive exponentially growing
psi. Startup at r = 0 uses the series w ~ -alpha^q I(r) (the degenerate
point is regular for w) plus one Picard correction for u.
"""

import json
import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import PchipInterpolator

from .models import _EXP_CAP, GeometryOverflow, InvalidParameter


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

    def __init__(self, r_max, rel_tol=1e-11, abs_tol=1e-14, startup_radius=None,
                 max_steps=200000):
        if r_max <= 0 or rel_tol <= 0 or abs_tol <= 0:
            raise InvalidParameter("r_max and tolerances must be positive")
        self.r_max = float(r_max)
        self.rel_tol = float(rel_tol)
        self.abs_tol = float(abs_tol)
        self.startup_radius = startup_radius
        self.max_steps = int(max_steps)

    def to_dict(self):
        return {
            "r_max": self.r_max,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "startup_radius": self.startup_radius,
            "max_steps": self.max_steps,
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


class RadialSolution:
    """Trajectory of one radial problem with monotone interpolation.

    Stores the adaptive grid (prepended with r=0), values u, the derived
    derivative du = u' <= 0, and the flux w = psi^{n-1}|u'|^{p-2}u' <= 0.
    Evaluation between knots uses shape-preserving cubics.
    """

    def __init__(self, prob, model, config, r, u, du, w, v, termination):
        self.problem = prob
        self.model = model
        self.config = config
        self.r = np.asarray(r, dtype=float)
        self.u = np.asarray(u, dtype=float)
        self.du = np.asarray(du, dtype=float)
        self.w = np.asarray(w, dtype=float)
        self.termination = termination
        if np.any(np.diff(self.u) > 1e-14 * prob.alpha):
            raise NonMonotone("computed u fails to decrease along the grid")
        self._iu = PchipInterpolator(self.r, self.u, extrapolate=False)
        # log(-w) is close to linear in log r both near the pole (~ n log r)
        # and in exponential tails (~ (n-1) r); interpolating it instead of
        # w keeps relative accuracy across ~300 orders of magnitude.
        self._iv = PchipInterpolator(np.log(self.r[1:]), np.asarray(v, float),
                                     extrapolate=True)
        self._dense = None  # stepper dense output, set by integrate()

    def _u_accurate(self, x):
        """u(x) from the stepper's dense output where available.

        The public interpolant is monotone but only knot-accurate; internal
        identity audits need the integrator's own local accuracy. Points of
        an array x are routed as scalars would be: one dense-output call
        for those in [r_1, r_last], the interpolant for the rest.
        """
        x = np.asarray(x, dtype=float)
        inside = (self.r[1] <= x) & (x <= self.r[-1])
        if self._dense is None or not np.any(inside):
            out = self._iu(x)
        elif np.all(inside):
            out = self._dense(x)[0]
        else:
            out = self._iu(x)
            out[inside] = self._dense(x[inside])[0]
        return float(out) if np.ndim(out) == 0 else out

    @property
    def r_last(self):
        return float(self.r[-1])

    def __call__(self, r):
        return self.eval_u(r)

    def eval_u(self, r):
        r = np.asarray(r, dtype=float)
        self._check(r)
        out = self._iu(r)
        return float(out) if out.ndim == 0 else out

    def _logw(self, r):
        return self._iv(np.log(np.maximum(r, 1e-300)))

    def eval_du(self, r):
        r = np.asarray(r, dtype=float)
        self._check(r)
        mu = 1.0 / (self.problem.p - 1.0)
        lpsi = (self.problem.n - 1) * np.asarray(self.model.log_psi(
            np.maximum(r, 1e-300)), dtype=float)
        out = np.where(r > 0.0,
                       -np.exp(np.minimum(mu * (self._logw(r) - lpsi), 700.0)),
                       0.0)
        return float(out) if out.ndim == 0 else out

    def eval_w(self, r):
        r = np.asarray(r, dtype=float)
        self._check(r)
        out = np.where(r > 0.0,
                       -np.exp(np.minimum(self._logw(r), 700.0)), 0.0)
        return float(out) if out.ndim == 0 else out

    def _check(self, r):
        if np.any(r < 0.0) or np.any(r > self.r[-1] * (1 + 1e-12)):
            raise OutOfRange(
                f"radius outside [0, {self.r[-1]:g}]"
            )

    def export_csv(self, path):
        """Write the trajectory as CSV with header r,u,du,w."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("r,u,du,w\n")
            for row in zip(self.r, self.u, self.du, self.w):
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
        return path

    def export_json_sidecar(self, path, checksums=None):
        data = {
            "problem": self.problem.to_dict(),
            "config": self.config.to_dict(),
            "model": self.model.descriptor(),
            "termination": self.termination,
            "r_last": self.r_last,
            "checksums": checksums or {},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
        return path


def evaluate(sol, r):
    """(u, u', w) at radius r; exact at grid knots, (alpha, 0, 0) at r=0."""
    return sol.eval_u(r), sol.eval_du(r), sol.eval_w(r)


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
    u_floor = 1e-12 * a

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

    sol = solve_ivp(
        rhs,
        (r0, config.r_max),
        [u0, v0],
        method="RK45",
        rtol=config.rel_tol,
        atol=config.abs_tol,
        events=underflow,
        dense_output=True,
    )
    if not sol.success:
        raise StepSizeCollapse(
            f"stepper failed at r={sol.t[-1]:g}: {sol.message}"
        )
    termination = "underflow" if sol.status == 1 else "reached-horizon"

    # Refine the output grid with dense-output midpoints so interpolation
    # between knots stays well inside the integration tolerance.
    # Row i holds the same floats as np.linspace(knots[i], knots[i+1], 9)[1:].
    knots = sol.t
    lo, hi = knots[:-1, None], knots[1:, None]
    rows = lo + np.arange(1, 9) * ((hi - lo) / 8)
    rows[:, -1] = knots[1:]
    rr = np.concatenate([knots[:1], rows.ravel()])
    uu, vv = sol.sol(rr)
    uu = np.maximum(uu, u_floor)
    lpsi = (n - 1) * np.asarray(model.log_psi(rr), dtype=float)
    du = -np.exp(np.minimum(mu * (vv - lpsi), _EXP_CAP))
    w = -np.exp(np.minimum(vv, _EXP_CAP))

    r_full = np.concatenate([[0.0], rr])
    u_full = np.concatenate([[a], uu])
    du_full = np.concatenate([[0.0], du])
    w_full = np.concatenate([[0.0], w])

    out = RadialSolution(prob, model, config, r_full, u_full, du_full, w_full,
                         vv, termination)
    out._dense = sol.sol
    return out


# 5-node Gauss-Legendre rule on [-1, 1] for flux_residual, in closed form
# (leggauss would load LAPACK at import); exact for degree 9, and the
# integrand is smooth inside a knot interval.
_GL_X1 = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GL_X2 = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GL_W1 = (322.0 + 13.0 * math.sqrt(70.0)) / 900.0
_GL_W2 = (322.0 - 13.0 * math.sqrt(70.0)) / 900.0
_GL_NODES = np.array([-_GL_X2, -_GL_X1, 0.0, _GL_X1, _GL_X2])
_GL_WEIGHTS = np.array([_GL_W2, _GL_W1, 128.0 / 225.0, _GL_W1, _GL_W2])


def _flux_integral(sol, i, j):
    """int_{r_i}^{r_j} psi^{n-1} u^q by Gauss-Legendre on each knot interval.

    u is the monotone interpolant that eval_u reads; the integrand is
    evaluated in one array call for all nodes of the segment.
    """
    prob = sol.problem
    a, b = sol.r[i:j], sol.r[i + 1:j + 1]
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
    f = np.exp((prob.n - 1) * np.asarray(sol.model.log_psi(x), dtype=float)
               + prob.q * np.log(np.maximum(sol._iu(x), 1e-300)))
    return float(half @ (f @ _GL_WEIGHTS))


def flux_residual(sol, num=200):
    """Max relative defect of w(b) - w(a) + int_a^b psi^{n-1} u^q over knots.

    This is the integrated form of the equation; it is the natural a
    posteriori check because it only involves quantities the solver carries.
    The defect is read between `num` sampled knots; the integral between two
    of them is a 5-node Gauss-Legendre rule on every knot interval in
    between. It agrees with adaptive quadrature at epsrel=2e-14 on each
    knot interval to about 1e-14 |w| (tests require 1e-12 |w|), so the
    residual measures the solver rather than the quadrature.
    """
    idx = np.unique(np.linspace(1, len(sol.r) - 1, num).astype(int))
    worst = 0.0
    for i, j in zip(idx[:-1], idx[1:]):
        defect = abs(sol.w[j] - sol.w[i] + _flux_integral(sol, i, j))
        worst = max(worst, defect / max(abs(sol.w[j]), 1e-300))
    return worst
