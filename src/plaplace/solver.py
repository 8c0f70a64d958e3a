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
numpy 2-vectors (_RadialDOP853), with the equations as a kernel
(lpsi, u, v) -> (u', v'), lpsi = (n-1) log psi, written on Python floats
for the steps (conditional expressions in place of builtin min and max,
with the same results) and on numpy arrays for the dense output. The
tableau's stages and weighted sums are straight-line code generated at
import from the embedded coefficients (_stage_function; scipy's floats,
written out by repr), run on floats in the steps and on arrays in the
dense output: the same left-to-right sums
either way, on every Python version. The right-hand side depends on r
only through log psi, and all fifteen radii a step reads it at (11 inner
stages, the step end, 3 dense-output stages) are fixed by the step's
start and length, so one model.log_psi array call per attempted step
serves them all. Each accepted step is appended to a
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

Both steppers run under dense.solve_ivp, the package's run loop (no
scipy module is imported), which says why each run ended: a piece that
ends "stiff" on DOP853 is finished on Radau, and the solution ends at the
first accepted step end (r, u) where u has fallen to the underflow floor
("underflow"; the run is then trimmed to the least float of its last step
where the dense output of u is at or below the floor, by bisection) or
where the caller's predicate stop(r, u) holds ("stopped"). integrate(carry=)
continues a stopped solution past a join at its last radius, as the
staged oscillating construction does, without retaking its steps.
"""

import functools
import math

import numpy as np
from . import models, runio
from .dense import _DenseTable, _Stepper, solve_ivp
from .models import _EXP_CAP, GeometryOverflow, InvalidParameter, _bisect, _check_n_p, _unique
from .quadrature import _HALF_W8, _PARTIAL8, _U8, panel_integrals

# solution.csv contract: linear interpolation of u between neighbouring
# rows is within ROW_TOL |u| (see _row_radii)
ROW_TOL = 1e-7
# the solver contract: SolverConfig's default tolerances, and the CLI's
REL_TOL, ABS_TOL = 1e-11, 1e-14
# integration stops where u falls to this fraction of alpha
_U_FLOOR = 1e-12
# DOP853 stiffness test (Hairer & Wanner, Solving ODEs II, IV.2): the run
# hands over to Radau after _STIFF_STEPS consecutive steps with h v' > _STIFF_HV
_STIFF_HV = 6.1
_STIFF_STEPS = 15
_FLUX_ROWS = 200  # rows the flux residual and the Pohozaev audit sample
# the 8-node Gauss-Legendre rule on [0, 1]: nodes _T8 and weights _H8
_T8, _H8 = 1.0 - _U8, _HALF_W8


class StartupFailure(models.SolverError):
    """The pole series is not valid at the radius asked (u drops >= 1e-3 alpha),
    or that radius is not a positive normal float."""


class StepSizeCollapse(models.SolverError):
    """The adaptive stepper gave up; carries the radius where it died."""


class NonMonotone(models.SolverError):
    """Internal consistency failure: computed u is not decreasing."""


class OutOfRange(models.SolverError):
    """Evaluation radius outside the solution's grid."""


class Problem:
    """The radial problem data (n, p, q, alpha).

    Only critical or supercritical powers are accepted: q >= p* - 1 with
    p* = n p / (n - p). Every check is written so that NaN fails it.
    """

    def __init__(self, n, p, q, alpha):
        _check_n_p(n, p)
        p_star = n * p / (n - p)
        if not (p_star - 1 - 1e-12 <= q < math.inf):
            raise InvalidParameter(
                f"q={q} is subcritical or not finite: need finite q >= p*-1 = "
                f"{p_star - 1:.6g}")
        if not (0 < alpha < math.inf):
            raise InvalidParameter(f"alpha must be positive and finite, got {alpha}")
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

    def __init__(self, r_max, rel_tol=REL_TOL, abs_tol=ABS_TOL):
        if not all(0 < x < math.inf for x in (r_max, rel_tol, abs_tol)):
            raise InvalidParameter("r_max and tolerances must be positive and finite")
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
    try:
        return 1e-4 * prob.alpha ** (-(prob.q + 1.0 - prob.p) / prob.p)
    except OverflowError:  # a scale past the double range: integrate's cap applies
        return math.inf


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
    """The pole series (u, v = log(-w)) at radii r > 0 (floats for a scalar
    r): the state every run starts from, and RadialSolution on (0, r_1)."""
    u, v = _pole_series(prob, model, r)
    return _scalar_or_array(u), _scalar_or_array(v)


def _row_radii(dense, u_min):
    """Output radii with u (floored at u_min) and v there, as three arrays:
    every accepted step split into k equal parts, k close to the least for
    which linear interpolation of u stays within ROW_TOL |u|.

    On a step of length H the chord of u departs from u by
    x (1-x) H^2 |u''| / 2 at the fraction x of the step; read at
    x = 1/4, 1/2, 3/4 this gives M ~ H^2 |u''|. Cut into k equal parts, the
    chord error is largest mid-part, at M / (8 k^2). k starts from that
    estimate; on every step where the error read mid-part still exceeds
    ROW_TOL u, k is raised by the square root of the excess plus 10%.

    The dense output is read once at the knots, once at the 3 fractions of
    every step, then once at every row inside a step and every mid-row. A
    step's rows and mid-rows depend only on its k and its two knots, so a
    round re-reads only the steps the round before raised; a row at a knot
    takes the knot's values.
    """
    t = dense.ts
    a, H = t[:-1], np.diff(t)
    u_knots, v_knots = dense(t)
    np.maximum(u_knots, u_min, out=u_knots)
    x = np.array([0.25, 0.5, 0.75])
    chord = u_knots[:-1, None] + np.diff(u_knots)[:, None] * x
    dev = np.abs(dense(a[:, None] + H[:, None] * x)[0] - chord)
    M = np.max(dev / (0.5 * x * (1.0 - x)), axis=1)
    k = np.maximum(np.ceil(np.sqrt(M / (8.0 * ROW_TOL * u_knots[1:]))), 1).astype(int)
    read = np.arange(len(H))  # the steps whose rows this round reads
    rounds = []
    while True:
        kr = k[read]
        step = np.repeat(read, kr)
        first = np.cumsum(kr) - kr  # each read step's first row
        part = np.arange(1, len(step) + 1) - np.repeat(first, kr)
        rows = a[step] + H[step] * (part / k[step])
        ends = first + kr - 1
        rows[ends] = t[read + 1]
        inside = part < k[step]
        u, v = np.empty(len(rows)), np.empty(len(rows))
        u[inside], v[inside] = dense(rows[inside])
        u[ends], v[ends] = u_knots[read + 1], v_knots[read + 1]
        np.maximum(u, u_min, out=u)
        rounds.append((step, part, rows, u, v))
        before, u_before = np.roll(rows, 1), np.roll(u, 1)
        before[first], u_before[first] = a[read], u_knots[read]
        u_mid = np.maximum(dense(0.5 * (before + rows))[0], u_min)
        excess = np.abs(0.5 * (u_before + u) - u_mid) / (ROW_TOL * u_mid)
        worst = np.maximum.reduceat(excess, first)
        low = worst > 1.0
        if not np.any(low):
            break
        read = read[low]
        k[read] = np.ceil(1.1 * kr[low] * np.sqrt(worst[low])).astype(int)
    # a raised step has more rows than before, so each round overwrites
    # every row an earlier round wrote for the steps it re-read
    offset = np.cumsum(k) - k
    out = np.empty((3, 1 + offset[-1] + k[-1]))
    out[:, 0] = t[0], u_knots[0], v_knots[0]
    for step, part, *values in rounds:
        out[:, offset[step] + part] = values
    return out[0], out[1], out[2]


class RadialSolution:
    """Trajectory of one radial problem, read from the steppers' dense output.

    Inside [r_1, r_last], the startup radius and the last radius, u and
    v = log(-w) are the steppers' dense output `_dense` (knots r_1 to
    r_last) and u', w follow from v; on (0, r_1) they are the pole series
    that started the run (series_startup). The rows r, u, du, w (prepended
    with r = 0), built on the first read of any of them, are values of the
    same evaluation at radii spaced so that linear interpolation of u
    between neighbouring rows is within ROW_TOL |u|; _row_radii reads u and
    v at each row once, while it places the rows, and `_rows` keeps v and
    G = (n-1) log psi there too (-inf at the pole). `_y` and `_h`, the
    state (u, v) at r_last and the run's last accepted step, are what
    integrate(carry=) goes on from.
    """

    def __init__(self, prob, model, config, termination, dense, y, h):
        self.problem = prob
        self.model = model
        self.config = config
        self.termination = termination
        self._dense = dense
        self._y, self._h = y, h
        self._u_min = _U_FLOOR * prob.alpha

    @functools.cached_property
    def _rows(self):
        """The rows (r, u, du, w, v, G); NonMonotone where u rises along them."""
        alpha = self.problem.alpha
        rows, u, v = _row_radii(self._dense, self._u_min)
        du, w, G = self._derived(rows, v)
        at_pole = (0.0, alpha, 0.0, 0.0, -np.inf, -np.inf)
        out = tuple(np.concatenate([[x0], x])
                    for x0, x in zip(at_pole, (rows, u, du, w, v, G)))
        if np.any(np.diff(out[1]) > 1e-14 * alpha):
            raise NonMonotone("computed u fails to decrease along the grid")
        return out

    r = property(lambda self: self._rows[0])
    u = property(lambda self: self._rows[1])
    du = property(lambda self: self._rows[2])
    w = property(lambda self: self._rows[3])

    def _derived(self, r, v):
        """(u', w, G) from v = log(-w); psi^{n-1} enters through its
        logarithm G = (n-1) log psi, a double where psi^{n-1} may not be.

        w = -exp(v) wherever that is a double, and -inf where v exceeds
        log(DBL_MAX).
        """
        prob = self.problem
        mu = 1.0 / (prob.p - 1.0)
        G = (prob.n - 1) * np.asarray(self.model.log_psi(
            np.maximum(r, 1e-300)), dtype=float)
        du = -np.exp(np.minimum(mu * (v - G), _EXP_CAP))
        with np.errstate(over="ignore"):
            w = -np.exp(v)
        return du, w, G

    def _uv(self, r, c=None):
        """(u, v) at radii r in [0, r_last], arrays of the shape of r; with
        c = 0 only u, with c = 1 only v.

        At the pole u = alpha and v = -inf (w = 0) exactly.
        """
        r = np.asarray(r, dtype=float)
        r_first, r_last = self._dense.ts[[0, -1]]
        lo, hi = (r.min(), r.max()) if r.size else (r_first, r_first)
        # written so that NaN, which min and max carry, fails it
        if not (lo >= 0.0 and hi <= r_last * (1 + 1e-12)):
            raise OutOfRange(f"radius outside [0, {r_last:g}]")
        if lo >= r_first:
            y = self._dense(r, c)
        else:
            inside = r >= r_first
            series = ~inside & (r > 0.0)
            uv = np.array([np.full(r.shape, self.problem.alpha), np.full(r.shape, -np.inf)])
            uv[:, series] = _pole_series(self.problem, self.model, r[series])
            uv[slice(None) if c is None else c, inside] = self._dense(r[inside], c)
            y = (uv[0], uv[1]) if c is None else uv[c]
        if c == 1:
            return y
        if c == 0:
            return np.maximum(y, self._u_min)
        return np.maximum(y[0], self._u_min), y[1]

    def _state(self, r):
        """(u, u', w) at radii r in [0, r_last], arrays of the shape of r."""
        r = np.asarray(r, dtype=float)
        u, v = self._uv(r)
        du, w, _ = self._derived(r, v)
        pole = r == 0.0
        return u, np.where(pole, 0.0, du), np.where(pole, 0.0, w)

    def _sampled_rows(self):
        """The _FLUX_ROWS row indices, evenly spaced from the first row past
        the pole to the last, where the integrated identities are checked."""
        return _unique(np.linspace(1, len(self.r) - 1, _FLUX_ROWS).astype(int))

    def _integrals(self, x, exponent, shift, factor=None):
        """int f e^{E - shift_k} between consecutive radii x, shift_k the
        constant of interval k; exponent(s) returns E, factor(s) f (None:
        f = 1). quadrature.panel_integrals, fitted to E, on panels cut at
        every knot in between, where the dense output is not smooth, and at
        every blend-window end (start + width) of a glued model, where psi
        is not."""
        cuts = np.append(self._dense.ts, [seg.start + seg.width for seg in self.model.segments])
        edges = _unique(np.append(x, cuts[(cuts > x[0]) & (cuts < x[-1])]))
        at_x = np.searchsorted(edges, x)
        shift = np.repeat(shift, np.diff(at_x))
        panels = panel_integrals(lambda s, k: exponent(s) - shift[k][:, None],
                                 edges, exponent(edges), factor)
        return np.add.reduceat(panels, at_x[:-1])

    @property
    def r_last(self):
        return float(self._dense.ts[-1])

    def eval_u(self, r):
        return _scalar_or_array(self._uv(r, 0))

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
        return runio.write_json(path, data)


def _scalar_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


# DOP853's tableau (Hairer's dop853.f, as scipy's dop853_coefficients
# carries it, each float written by repr so it equals scipy's): the rows of
# A below the diagonal for the 11 inner stages and the 3 dense-output stages
# (row 12 of A is B), the weights B, the error weights E3 and E5 and the
# dense-output rows D
_STAGE_ROWS = [
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
]
_DENSE_ROWS = [
    [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298],
    [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325],
    [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
]
_B = [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
      1.8915178993145003, -5.801203960010585, 0.3111643669578199,
      -0.1521609496625161, 0.20136540080403034, 0.04471061572777259]
_E3 = [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
       1.8915178993145003, -5.801203960010585, -0.4226823213237919,
       -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0]
_E5 = [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
       -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
       0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0]
_D = [
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
]
# the fractions of the step at which the right-hand side is read: the inner
# stages, the step end (C[12] = 1) and the dense-output stages (C[1:])
_FRACTIONS = np.array([
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
_INNER, _NDENSE = len(_STAGE_ROWS), len(_DENSE_ROWS)
# scipy's step-size control (scipy.integrate._ivp.rk; its Radau bounds
# the factor alike)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0
# an accepted step in a _RadialDOP853 record: t, h, the start state (u, v),
# the end state, the 13 derivatives of u (at the step start, the 11 inner
# stages and the step end), those of v, and lpsi at the 3 dense-output stages
_NK = _INNER + 2
_RECORD = 6 + 2 * _NK + _NDENSE
# Radau IIA of order 5 (Hairer & Wanner, Solving ODEs II, IV.8) with the
# constants of scipy.integrate._ivp.radau, each float by repr: the
# collocation nodes C = (4 -+ sqrt 6)/10, 1 (an array, for the stage radii
# t + C h), the error weights E, the eigenvalues of A^-1, the
# transformations T and TI (its complex pair as one complex row), the
# columns of the cubic's P, and the Newton iteration cap
_RADAU_C = np.array([0.15505102572168222, 0.6449489742783178, 1.0])
_RADAU_E = [-10.048809399827414, 1.382142733160748, -0.3333333333333333]
_MU_REAL = 3.637834252744496
_MU_COMPLEX = 2.6810828736277523 - 3.050430199247411j
_T = [[0.09443876248897524, -0.1412552950209542, 0.03002919410514742],
      [0.2502131229653333, 0.20412935229379994, -0.3829421127572619],
      [1.0, 1.0, 0.0]]
_TI_REAL = [4.178718591551904, 0.32768282076106237, 0.5233764454994495]
_TI_COMPLEX = [-4.178718591551904 + 0.5028726349457868j,
               -0.32768282076106237 - 2.571926949855605j,
               0.47662355450055044 + 0.5960392048282249j]
_P_COLUMNS = [[10.048809399827414, -1.382142733160748, 0.3333333333333333],
              [-25.62959144707664, 10.296258113743303, -2.6666666666666665],
              [15.580782047249224, -8.914115380582556, 3.3333333333333335]]
_NEWTON_MAXITER = 6
_EPS = float(np.finfo(float).eps)
# an accepted step in a _RadialRadau record: t, h, the start state (u, v)
# and the cubic's coefficients Q, three for u then three for v
_RADAU_RECORD = 10


def _stage_function(rows, known, sums):
    """Generate straight-line code for explicit Runge-Kutta stages and sums.

    Returns stages(kernel, lp, u, v, h, ku, kv): ku, kv hold the derivatives
    of u and v at the first `known` stages; stage known + j is read at
    lp[j] from u + (sum_i a_i ku[i]) h, a being rows[j], and likewise for
    v. It returns the derivatives at all stages as tuples ku, kv and then,
    for each coefficient row c of `sums`, the pair sum_i c_i ku[i],
    sum_i c_i kv[i]. Every sum is written out as c_0 * k_0 + c_1 * k_1 + ...
    with the coefficients embedded by repr, so they round-trip exactly, the
    zero ones dropped and the rest in the tableau's order: plain left-to-
    right float arithmetic, which works alike on Python floats and on numpy
    arrays (one row per step) and does not depend on builtins.sum, which
    compensates float sums from Python 3.12 on. A dropped term c_i k_i is
    +-0 for a finite k_i (the kernel's exponentials are capped), so
    dropping it changes no nonzero sum. The source is kept on the function
    as `source`.
    """
    count = known + len(rows)

    def dot(coefs, c):
        if any(coefs[count:]):
            raise ValueError("sum reads a stage past the last one formed")
        return " + ".join(f"{a!r} * k{i}{c}" for i, a in enumerate(coefs[:count])
                          if a != 0.0)

    ks = [[f"k{i}{c}" for i in range(count)] for c in "uv"]
    lines = ["def stages(kernel, lp, u, v, h, ku, kv):",
             f"    {', '.join(ks[0][:known])}, = ku",
             f"    {', '.join(ks[1][:known])}, = kv"]
    for j, a in enumerate(rows):
        i = known + j
        lines.append(f"    k{i}u, k{i}v = kernel(lp[{j}], u + ({dot(a, 'u')}) * h, "
                     f"v + ({dot(a, 'v')}) * h)")
    results = [f"({', '.join(k)},)" for k in ks]
    results += [dot(c, x) for c in sums for x in "uv"]
    lines.append(f"    return ({', '.join(results)})")
    source = "\n".join(lines) + "\n"
    namespace = {}
    exec(compile(source, "<dop853 stages>", "exec"), namespace)
    stages = namespace["stages"]
    stages.source = source
    return stages


# the 11 inner stages of a step with the sums B, E5 and E3 over the first 12
# stages (E5 and E3 weigh the step end by zero), on Python floats; and the 3
# dense-output stages with the sums D over all 16, on numpy arrays
_STEP_STAGES = _stage_function(_STAGE_ROWS, 1, (_B, _E5, _E3))
_DENSE_STAGES = _stage_function(_DENSE_ROWS, _NK, _D)


class _RadialDOP853(_Stepper):
    """DOP853 on Python floats, with steps below a tenth of the radius, that
    records its steps and stops where its stop predicate holds or the
    problem turns stiff.

    The step is scipy's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
    II.5-II.6): its tableau, its blended err5/err3 error norm and its
    step-size control (safety 0.9, factor bounds 0.2 and 10, exponent
    -1/8, scipy's min_step). Only the arithmetic moves from numpy on
    2-vectors to Python floats: one call of the generated _STEP_STAGES
    forms the 11 inner stages, each through kernel(lpsi, u, v) -> (u', v'),
    and the sums B, E5 and E3. The per-radius input lpsi(r) is whatever
    value the kernel reads: (n-1) log psi in the radial solve, the
    curvature ratio psi''/psi in a glued model's window (Glued.extended).

    The right-hand side depends on r only through lpsi, and every radius
    t + c_i h at which a step reads it is known before any stage value. So
    one lpsi array call per attempted step covers all fifteen: the 11
    inner stages, the step end and the 3 extra stages of the dense output
    (spent for nothing when the attempt is rejected). On a glued model
    these radii stay inside one piece, because integrate restarts the
    stepper at every join.

    A step forms no dense output. Each accepted step appends to the flat
    record `steps` (_RECORD floats per step) what its dense output needs:
    t, h, both states, the 13 stage derivatives of u and of v, and lpsi at
    the 3 dense-output stages. piece(kernel) forms the 7th-order
    interpolant from the record after the run, for all steps at once
    (_dop853_piece). nfev grows as scipy's would with dense
    output: 12 per attempted step and 3 per accepted step (the dense-output
    stages, evaluated once each in that batch), plus f at t0 (_Stepper's
    start-up). Integration runs forward only.

    Near the pole v = log(-w) ~ n log r, and its equation has the rate
    |dv'/dv| = v' ~ n/r. The error control accepts steps of about r/4
    there, but the 7th-order dense output, built from three extra stages
    the control does not see, is then ~100x less accurate than the step
    (1.8e-7 in v against 5e-9 at the knots on euclidean (4,3,11)), and a
    trial step of a few r_0 drives the stages' v far off and overflows the
    error norm. Bounding h by r/10 keeps the dense output at the accuracy
    of the steps, and cuts any longer first_step to a tenth of the start
    radius; away from the pole the bound rarely binds.

    The run ends at the first accepted step end (r, u) where stop(r, u)
    holds, with its label; integrate's predicate makes there the test
    scipy's event scan makes for a terminal event of direction -1 on
    u - u_floor. After each step, h v' is read from the derivative the
    step already evaluated at its end; once it exceeds _STIFF_HV on
    _STIFF_STEPS consecutive steps short of t_bound, the run ends there
    as "stiff".
    """

    stiff_steps = 0  # consecutive steps so far with h v' > _STIFF_HV

    def step(self):
        t = self.t
        u, v = self.y
        fu, fv = self.f
        kernel, rtol, atol, t_bound = self._kernel, self.rtol, self.atol, self.t_bound
        h_max = 0.1 * t
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        # builtin min(max(h_abs, min_step), h_max), written out (NaN alike)
        h_abs = self.h_abs
        h_abs = min_step if min_step > h_abs else h_abs
        h_abs = h_max if h_max < h_abs else h_abs
        au, av = abs(u), abs(v)
        rejected = False
        while True:
            if h_abs < min_step:
                self.ended = "failed"
                return
            t_new = t + h_abs
            t_new = t_bound if t_bound < t_new else t_new
            h = t_new - t
            h_abs = h
            lpsi = self._lpsi(t + h * _FRACTIONS).tolist()
            ku, kv, bu, bv, e5u, e5v, e3u, e3v = _STEP_STAGES(
                kernel, lpsi, u, v, h, (fu,), (fv,))
            u_new = u + h * bu
            v_new = v + h * bv
            fu_new, fv_new = kernel(lpsi[_INNER], u_new, v_new)
            self.nfev += _INNER + 1

            # scipy's blended norm of the 5th- and 3rd-order error estimates
            au_new, av_new = abs(u_new), abs(v_new)
            su = atol + (au_new if au_new > au else au) * rtol
            sv = atol + (av_new if av_new > av else av) * rtol
            # a norm past the double range is inf: the step is rejected, never read as 0
            try:
                err5 = (e5u / su) ** 2 + (e5v / sv) ** 2
                err3 = (e3u / su) ** 2 + (e3v / sv) ** 2
            except OverflowError:
                err5 = err3 = math.inf
            if err5 == 0.0 and err3 == 0.0:
                error_norm = 0.0
            else:
                blend = (err5 + 0.01 * err3) * 2
                error_norm = h_abs * err5 / math.sqrt(blend) if blend < math.inf else math.inf

            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = _SAFETY * error_norm ** _ERROR_EXPONENT
                    factor = factor if factor < _MAX_FACTOR else _MAX_FACTOR
                if rejected:
                    factor = factor if factor < 1.0 else 1.0
                h_abs *= factor
                break
            factor = _SAFETY * error_norm ** _ERROR_EXPONENT
            h_abs *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
            rejected = True

        self.t = t_new
        self.y = (u_new, v_new)
        self.h_abs = h_abs
        self.f = (fu_new, fv_new)
        self.nfev += _NDENSE
        self.steps.extend((t, h, u, v, u_new, v_new, *ku, fu_new, *kv, fv_new,
                           *lpsi[_INNER + 1:]))

        if h * fv_new > _STIFF_HV:
            self.stiff_steps += 1
            if self.stiff_steps == _STIFF_STEPS and t_new < self.t_bound:
                self.ended = "stiff"
        else:
            self.stiff_steps = 0
        self._check_stop(t_new, u_new)

    def piece(self, kernel):
        """The run's dense output, kernel being the equations on arrays."""
        return _dop853_piece(self.steps, kernel)


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    """scipy's radau.predict_factor (Gustafsson's predictive control) on floats."""
    if error_norm == 0.0:
        return math.inf
    multiplier = 1.0
    if error_norm_old is not None and h_abs_old is not None:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    return (multiplier if multiplier < 1.0 else 1.0) * error_norm ** -0.25


def _sum_squares(*x):
    """sum x_i^2 left to right, inf past the double range (where a float's
    ** 2 raises); not builtins.sum, which compensates float sums from
    Python 3.12 on (and equals this loop before)."""
    total = 0.0
    for a in x:
        total += a * a
    return total


def _factor(M, J):
    """The inverse of M I - J for J = [[0, a], [b, c]], as its four entries
    (real or complex): the closed form of the 2x2 LU solve."""
    (_, a), (b, c) = J
    det = M * (M - c) - a * b
    return (M - c) / det, a / det, b / det, M / det


class _RadialRadau(_Stepper):
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
    flat record `steps` (_RADAU_RECORD floats per step) t, h, the start
    state (u, v) and the cubic's coefficients Q = Z^T P, rows u then v;
    piece() forms the dense output from it (_radau_piece). nfev, njev and
    nlu count as scipy's do, nlu once for each of the two systems
    factored. To _Stepper's start-up the constructor adds scipy's Radau's:
    J at t0 (njev = 1), newton_tol = max(10 eps / rtol, min(0.03,
    rtol^(1/2))) and no step-size history.
    """

    def __init__(self, t0, y0, t_bound, *, jacobian, **options):
        super().__init__(t0, y0, t_bound, **options)
        self._jacobian = jacobian
        self._lpsi_t = float(self._lpsi(t0))
        self.h_abs_old = self.error_norm_old = None
        self.newton_tol = max(10 * _EPS / self.rtol, min(0.03, self.rtol ** 0.5))
        self.J = jacobian(self.y[0], *self.f)
        self.njev, self.nlu = 1, 0
        self.current_jac = True
        # the step h of the factored systems (None: factor again) and the
        # previous step's (t, h, u, v, Q), which starts Newton
        self.lu_h = self._lu = None
        self.cubic = None

    def step(self):
        t = self.t
        u, v = self.y
        fu, fv = self.f
        kernel, rtol, atol, tol = self._kernel, self.rtol, self.atol, self.newton_tol
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        if self.h_abs < min_step:
            h_abs, h_abs_old, error_norm_old = min_step, None, None
        else:
            h_abs, h_abs_old = self.h_abs, self.h_abs_old
            error_norm_old = self.error_norm_old
        J, lu_h, lu, current_jac = self.J, self.lu_h, self._lu, self.current_jac
        au, av, t_bound = abs(u), abs(v), self.t_bound
        su, sv = atol + au * rtol, atol + av * rtol

        rejected = False
        while True:
            if h_abs < min_step:
                self.ended = "failed"
                return
            t_new = t + h_abs
            t_new = t_bound if t_bound < t_new else t_new
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
            au_new, av_new = abs(u_new), abs(v_new)
            eu_scale = atol + (au_new if au_new > au else au) * rtol
            ev_scale = atol + (av_new if av_new > av else av) * rtol
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
            factor = safety * _predict_factor(h_abs, h_abs_old, error_norm,
                                              error_norm_old)
            h_abs *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
            lu = None
            rejected = True

        recompute_jac = n_iter > 2 and rate > 1e-3
        factor = safety * _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
        factor = factor if factor < _MAX_FACTOR else _MAX_FACTOR
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
        self.y = (u_new, v_new)
        self.f = f_new
        self.J, self.current_jac = J, current_jac
        self.lu_h, self._lu = (None, None) if lu is None else (lu_h, lu)
        self._lpsi_t = lp[2]
        Q = [z0 * p0 + z1 * p1 + z2 * p2 for z0, z1, z2 in ((zu0, zu1, zu2),
                                                             (zv0, zv1, zv2))
             for p0, p1, p2 in _P_COLUMNS]
        self.cubic = (t, h, u, v, *Q)
        self.steps.extend(self.cubic)
        self._check_stop(t_new, u_new)

    def piece(self):
        """The run's dense output."""
        return _radau_piece(self.steps)

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
    steps at once: kernel is the numpy instance of the equations, and the
    stages and sums D are generated straight-line code (_DENSE_STAGES),
    whose sums run left to right on arrays as on floats. Against a
    per-step build on Python floats the only difference is the last-bit
    rounding of numpy's exp and log, on every Python version.
    """
    rec = np.frombuffer(steps).reshape(-1, _RECORD)
    t, h, u, v, u_new, v_new = rec[:, :6].T
    ku, kv, *d = _DENSE_STAGES(kernel, rec[:, 6 + 2 * _NK:].T, u, v, h,
                               rec[:, 6:6 + _NK].T, rec[:, 6 + _NK:6 + 2 * _NK].T)
    du, dv = u_new - u, v_new - v
    fu, fv = ku[_NK - 1], kv[_NK - 1]
    F = [(du, dv), (h * ku[0] - du, h * kv[0] - dv),
         (2 * du - h * (fu + ku[0]), 2 * dv - h * (fv + kv[0]))]
    F += [(h * du_d, h * dv_d) for du_d, dv_d in zip(d[::2], d[1::2])]
    # t + h is the step end exactly: h = t_new - t is exact for t_new < 2t
    return (np.append(t, t[-1] + h[-1]), h, rec[:, 2:4],
            np.array(F).transpose(2, 0, 1))


def _trim_to_underflow(piece, u_floor):
    """Move the last knot of a piece back to the least float of its last
    step where the step's dense output of u is at or below u_floor, found
    by bisection (models._bisect): u lies above the floor one float
    earlier."""
    ts, h, y_old, F = piece
    last = _DenseTable([(ts[-2:], h[-1:], y_old[-1:], F[-1:])])
    ts[-1] = _bisect(lambda r: last(r)[0] <= u_floor, float(ts[-2]), float(ts[-1]))[1]


def _radial_equations(prob, model):
    """The radial equations in the state (u, v = log(-w)).

    Returns (lpsi, kernel, dense_kernel, jacobian). lpsi(r) is (n-1)
    log psi on an array of radii. The equations are
    u' = -exp(min((v - lpsi)/(p-1), _EXP_CAP)), so exponentially large psi
    never overflows, and v' = exp(min(lpsi + q log max(u, u_floor) - v,
    _EXP_CAP)), u being floored at 1e-12 alpha inside the logarithm.
    kernel(lpsi, u, v) -> (u', v') is their instance on Python floats, with
    builtin min(a, b) written as `b if b < a else a` and max(a, b) as
    `b if b > a else a` (the same floats, NaN included, without a call);
    dense_kernel is the same on numpy arrays (np.minimum, np.maximum), and
    jacobian(u, u', v') is the Jacobian at a state from its derivative, on
    floats.
    """
    n, q = prob.n, prob.q
    mu = 1.0 / (prob.p - 1.0)
    u_floor = _U_FLOOR * prob.alpha
    exp, log, cap = math.exp, math.log, _EXP_CAP

    def lpsi(r):
        return (n - 1) * model.log_psi(r)

    def kernel(lp, u, v):
        du = mu * (v - lp)
        dv = lp + q * log(u_floor if u_floor > u else u) - v
        return -exp(cap if cap < du else du), exp(cap if cap < dv else dv)

    def dense_kernel(lp, u, v):
        du = -np.exp(np.minimum(mu * (v - lp), _EXP_CAP))
        dv = np.exp(np.minimum(lp + q * np.log(np.maximum(u, u_floor)) - v, _EXP_CAP))
        return du, dv

    def jacobian(u, du, dv):
        return [[0.0, mu * du], [q * dv / (u_floor if u_floor > u else u), -dv]]

    return lpsi, kernel, dense_kernel, jacobian


def _check_carry(prob, model, config, carry):
    """Refuse (InvalidParameter) a carry that integrate cannot continue."""
    if carry.termination != "stopped":
        raise InvalidParameter(f"only a stopped run can be continued; this "
                               f"one ended {carry.termination!r}")
    r_last = carry.r_last
    if r_last not in model.joins():
        raise InvalidParameter(f"the carry ends at r={r_last!r}, which is not "
                               "a join of the model")
    if carry.problem.to_dict() != prob.to_dict():
        raise InvalidParameter(f"the carry solves {carry.problem!r}, not {prob!r}")
    if not config.r_max > r_last:
        raise InvalidParameter(f"horizon {config.r_max:g} is not past the "
                               f"carry's last radius {r_last:g}")


def integrate(prob, model, config, stop=None, carry=None):
    """Integrate the radial problem from the pole to config.r_max.

    State variables are (u, log(-w)), with the equations of
    _radial_equations. The run ends at the horizon ("reached-horizon"), or
    at the first accepted step end where u hits the underflow floor
    1e-12 alpha ("underflow"; u = 0 is never attained in exact arithmetic,
    and the last radius is moved back to the least float where the dense
    output of u is at or below the floor), or where stop(r, u) holds ("stopped", on that step
    end). Each piece runs on _RadialDOP853; a piece on which it stops for
    stiffness is finished by Radau. The solution's rows are not built
    here: NonMonotone is raised by their first read, not by integrate.

    Given as `carry` a stopped RadialSolution of the same problem whose
    last radius is a join of `model`, the run starts there instead: it
    keeps the carry's dense output, skips series_startup, and goes on from
    the carry's state as at any join, DOP853 starting from the carry's
    last accepted step. Where `model` equals the carry's model below that
    join (Glued.extended keeps those evaluations bit-identical), the
    solution is, to the bit, that of a run from the pole on `model` with
    the carry's startup radius. Any other carry is refused with
    InvalidParameter, as is a horizon not past the carry's last radius.
    """
    if config.r_max > model.valid_to:
        raise GeometryOverflow(
            f"horizon {config.r_max:g} exceeds model trusted range "
            f"{model.valid_to:g}"
        )
    u_floor = _U_FLOOR * prob.alpha
    lpsi, kernel, dense_kernel, jacobian = _radial_equations(prob, model)

    def ends_run(r, u):
        """The label that ends a run at an accepted step end, if any."""
        if u <= u_floor:
            return "underflow"
        if stop is not None and stop(r, u):
            return "stopped"

    # the first piece starts at the r/10 cap; a join, a carry and the
    # hand-off to Radau from the last accepted step
    if carry is None:
        start = min(default_startup_radius(prob), 0.01 * config.r_max)
        if not start >= np.finfo(float).smallest_normal:
            raise StartupFailure(f"startup radius {start:g} is not a positive normal float")
        y0, h, pieces = series_startup(prob, model, start), math.inf, []
    else:
        _check_carry(prob, model, config, carry)
        start, y0, h, pieces = carry.r_last, carry._y, carry._h, [carry._dense.piece()]
    # one stepper run per smooth piece of the model: a step across a join,
    # where derivatives of psi past psi'' jump, is accepted at the knots
    # but its dense output is not (1.6e-10 against 7e-13 in u next to the
    # first join of the oscillating construction)
    ends = [j for j in model.joins() if start < j < config.r_max] + [config.r_max]

    def run(method, start, end, y0, **options):
        sol = solve_ivp(method, (start, end), y0, rtol=config.rel_tol,
                        atol=config.abs_tol, lpsi=lpsi, kernel=kernel,
                        stop=ends_run, **options)
        if sol.ended == "failed":
            raise StepSizeCollapse(f"stepper failed at r={sol.t[-1]:g}: step "
                                   "size below the float spacing")
        return sol

    for end in ends:
        sol = run(_RadialDOP853, start, end, y0, first_step=min(h, end - start))
        pieces.append(sol.piece(dense_kernel))
        if sol.ended == "stiff":
            sol = run(_RadialRadau, sol.t[-1], end, sol.y,
                      first_step=sol.t[-1] - sol.t[-2], jacobian=jacobian)
            pieces.append(sol.piece())
        if sol.ended != "end":
            break
        start, y0, h = end, sol.y, sol.t[-1] - sol.t[-2]
    if sol.ended == "underflow":
        _trim_to_underflow(pieces[-1], u_floor)
    termination = "reached-horizon" if sol.ended == "end" else sol.ended
    return RadialSolution(prob, model, config, termination, _DenseTable(pieces),
                          sol.y, sol.t[-1] - sol.t[-2])


def flux_residual(sol):
    """Max relative defect of w(b) - w(a) + int_a^b psi^{n-1} u^q over rows.

    This is the integrated form of the equation; it is the natural a
    posteriori check because it only involves quantities the solver carries.
    The defect is read between the sampled rows (_sampled_rows), relative
    to |w(b)| and in log space from v = log(-w):
    -1 + e^{v_a - v_b} + int_a^b e^{(n-1) log psi + q log u - v_b}, so it
    stays finite where w itself overflows. The integral is _integrals, with
    u from the dense output. It agrees with adaptive quadrature at
    epsrel=2e-14 on each row interval to about 1e-14 |w| (tests require
    1e-12 |w|), so the residual measures the solver rather than the
    quadrature.
    """
    prob = sol.problem
    x = sol.r[sol._sampled_rows()]
    v = sol._uv(x)[1]

    def exponent(s):
        lpsi = np.asarray(sol.model.log_psi(s), dtype=float)
        return (prob.n - 1) * lpsi + prob.q * np.log(sol._uv(s, 0))

    defect = -1.0 + np.exp(v[:-1] - v[1:]) + sol._integrals(x, exponent, v[1:])
    return float(np.max(np.abs(defect)))
