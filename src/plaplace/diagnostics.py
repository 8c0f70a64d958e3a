"""Functionals along a radial solution and horizon adjudication.

Given a trajectory u and the geometry profile of its model, this module
computes the energy function F, the weighted monotone combination P (with
its multiplier K), the normalized decay ratio Q, and the cumulative
gradient energy E, then judges the quantitative claims: monotonicity,
decay envelopes, asymptotic limits, plateau values, and energy growth.
"""

import math

import numpy as np

from . import extrapolate, runio
from .models import GeometryOverflow, detect_regime
from .quadrature import panel_integrals

_ENVELOPE_R_MIN, _ENVELOPE_PER_DECADE = 1.0, 64  # decay_envelope_check's grid


class GridMismatch(Exception):
    """Solution and geometry profile disagree on model or dimension."""


class RegimeMismatch(Exception):
    """Requested limit is proven to fail (or is unproven) in this regime."""


class NoPlateau(Exception):
    """The solution has not flattened by the horizon."""


class EuclideanCritical(Exception):
    """Signals the single configuration where the gradient energy converges."""


def unit_ball_volume(n):
    """Volume of the unit ball in n dimensions."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _check_pair(sol, profile):
    if sol.problem.n != profile.n or abs(sol.problem.p - profile.p) > 1e-12:
        raise GridMismatch("solution and profile use different (n, p)")
    if sol.model.descriptor() != profile.model.descriptor():
        raise GridMismatch("solution and profile use different models")


class DiagnosticsReport:
    """Traces of F, P, K, Q, E on the solution grid plus named verdicts."""

    def __init__(self, sol, profile, r, F, P, K, Q, E):
        self.sol = sol
        self.profile = profile
        self.r = r
        self.F = F
        self.P = P
        self.K = K
        self.Q = Q
        self.E = E
        self.lambda_hat = None
        self.verdicts = []

    def add_verdict(self, name, passed, margin, **extra):
        entry = {"name": name, "passed": bool(passed), "margin": float(margin)}
        entry.update(extra)
        self.verdicts.append(entry)
        return entry

    def passed(self):
        return all(v["passed"] for v in self.verdicts)

    def export_csv(self, path):
        return runio.write_csv(path, ["r", "F", "P", "K", "Q", "E"],
                               [self.r, self.F, self.P, self.K, self.Q, self.E])

    def export_json(self, path):
        data = {
            "problem": self.sol.problem.to_dict(),
            "model": self.sol.model.descriptor(),
            "lambda_hat": self.lambda_hat,
            "verdicts": self.verdicts,
        }
        return runio.write_json(path, data)


def _pohozaev_identity_defect(sol, profile, num=80):
    """Defects of P(b) - P(a) = int_a^b K |u'|^p between audit radii.

    The identity is checked in integrated form between `num` geometric
    radii: P is read from the steppers' dense output and profile.I, and
    the integral is quadrature.panel_integrals of K |u'|^p = bracket w u',
    formed in log space relative to each interval's scale
    S = max(|I F| + |w u/(q+1)|) over its two ends. An interval is
    resolved where the integral exceeds 1e-6 S.

    Returns (max_rel_defect, max_scaled_defect, resolved_intervals,
    audited_radii): the largest |dP - int| / |int| over resolved intervals
    and the largest |dP - int| / S over all of them.
    """
    prob = sol.problem
    n, p, q = prob.n, prob.p, prob.q
    mu = 1.0 / (p - 1.0)
    c1 = (p - 1.0) / p + 1.0 / (q + 1.0)

    def lpsi(x):
        return (n - 1) * np.asarray(profile.model.log_psi(x), dtype=float)

    lo = max(10.0 * sol.r[1], 2e-3 * sol.r_last)
    x = np.geomspace(lo, 0.99 * sol.r_last, num)
    u, du, w = sol._state(x)
    F = ((p - 1.0) / p) * np.abs(du) ** p + u ** (q + 1.0) / (q + 1.0)
    IF = profile.I(x) * F
    wu = w * u / (q + 1.0)
    scale = np.abs(IF) + np.abs(wu)
    S = np.maximum(scale[:-1], scale[1:])
    log_S = np.log(S)

    def density(s, k):
        v = sol._uv(s)[1]
        slope = np.asarray(profile.model.slope_ratio(s), dtype=float)
        bracket = c1 - (n - 1) * slope * profile.theta(s)
        # w u' = psi^{n-1} |u'|^p = e^{v + mu (v - (n-1) log psi)}
        return bracket * np.exp(v + mu * (v - lpsi(s)) - log_S[k][:, None])

    integral = panel_integrals(density, x, lpsi(x))  # in units of S
    err = np.abs(np.diff(IF + wu) / S - integral)
    resolved = np.abs(integral) > 1e-6
    rel = err[resolved] / np.abs(integral[resolved])
    worst = float(np.max(rel)) if rel.size else 0.0
    return worst, float(np.max(err)), int(np.count_nonzero(resolved)), int(num)


def functional_traces(sol, profile):
    """Populate F, P, K, E (and Q) along the solution grid.

    F(r) = ((p-1)/p)|u'|^p + u^{q+1}/(q+1)        (nonincreasing)
    P(r) = I(r) F(r) + w(r) u(r)/(q+1)            (<= 0, nonincreasing)
    K(r) = psi^{n-1} [ (p-1)/p + 1/(q+1) - (n-1)(psi'/psi) Theta ]
    Q(r) = J(r)^{(p-1)/(q+1-p)} u(r)
    E(R) = n omega_n int_0^R |u'|^p psi^{n-1}

    K is assembled through Theta = I/psi^{n-1} so the difference in the
    bracket is computed before any large factor. E and the integrated
    identity P(b) - P(a) = int_a^b K |u'|^p, recorded as the
    "pohozaev-identity" verdict, are integrals of the dense output by
    quadrature.panel_integrals.

    K, P (through I = Theta psi^{n-1}) and E grow with psi^{n-1}; where
    one of them leaves the double range the traces are refused with
    GeometryOverflow, naming the first such radius.
    """
    _check_pair(sol, profile)
    prob = sol.problem
    n, p, q = prob.n, prob.p, prob.q
    r = sol.r
    u = sol.u
    du = sol.du
    w = sol.w

    F = ((p - 1.0) / p) * np.abs(du) ** p + u ** (q + 1.0) / (q + 1.0)

    rr = np.maximum(r, 1e-300)
    lpsi_pow = (n - 1) * np.asarray(profile.model.log_psi(rr), dtype=float)
    theta, J = np.zeros_like(r), np.zeros_like(r)
    theta[1:], J[1:] = profile.theta_J(r[1:])
    slope = np.asarray(profile.model.slope_ratio(rr), dtype=float)
    bracket = (p - 1.0) / p + 1.0 / (q + 1.0) - (n - 1) * slope * theta
    Q = J ** ((p - 1.0) / (q + 1.0 - p)) * u

    # E' = n omega_n |u'|^p psi^{n-1} = n omega_n w u', from the dense output
    def energy_density(x, k):
        _, du_x, w_x = sol._state(x)
        return n * unit_ball_volume(n) * w_x * du_x

    # past the double range these turn inf or nan, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        psi_pow = np.exp(lpsi_pow)
        psi_pow[0] = 0.0
        I = theta * psi_pow
        P = I * F + w * u / (q + 1.0)
        K = psi_pow * bracket
        # E only up to the first row where K or P has left the range
        out = ~(np.isfinite(K) & np.isfinite(P))
        end = int(np.argmax(out)) + 1 if np.any(out) else len(r)
        E = np.concatenate([[0.0], np.cumsum(
            panel_integrals(energy_density, r[:end], lpsi_pow[:end]))])
    traces = {"K": K[:end], "P": P[:end], "E": E}
    finite = np.all([np.isfinite(x) for x in traces.values()], axis=0)
    if not np.all(finite):
        k = int(np.argmin(finite))
        names = [name for name, x in traces.items() if not np.isfinite(x[k])]
        raise GeometryOverflow(
            f"{', '.join(names)} leave the double range at r = {float(r[k])!r} "
            f"((n-1) log psi = {lpsi_pow[k]:.6g})")

    report = DiagnosticsReport(sol, profile, r, F, P, K, Q, E)

    defect, scaled, resolved, audited = _pohozaev_identity_defect(sol, profile)
    # margin: the share of the tighter of the two gates still unused; a nan
    # defect fails its gate with no margin left
    margin = min(-math.inf if math.isnan(m) else m
                 for m in (1.0 - defect / 1e-3, 1.0 - scaled / 1e-9))
    report.add_verdict("pohozaev-identity", defect < 1e-3 and scaled < 1e-9, margin,
                       max_rel_defect=defect, max_scaled_defect=scaled,
                       resolved_radii=resolved, audited_radii=audited)

    # Monotonicity and sign claims.
    f_scale = float(F[0])
    f_increase = float(np.max(np.diff(F))) if len(F) > 1 else 0.0
    report.add_verdict("F-nonincreasing", f_increase <= 1e-9 * f_scale,
                       1e-9 * f_scale - f_increase)
    p_scale = float(prob.alpha ** (q + 1.0) * max(I[-1], 1.0))
    p_max = float(np.max(P))
    report.add_verdict("P-nonpositive", p_max <= 1e-8 * p_scale,
                       1e-8 * p_scale - p_max)
    p_increase = float(np.max(np.diff(P))) if len(P) > 1 else 0.0
    report.add_verdict("P-nonincreasing", p_increase <= 1e-8 * p_scale,
                       1e-8 * p_scale - p_increase)
    return report


def envelope_constant(p, q):
    """Prefactor of the universal decay envelope in J."""
    ex = (p - 1.0) / (q + p - 1.0)
    return ex ** ex


def decay_envelope_check(sol, profile):
    """Assert u(r) <= C J(r)^{-(p-1)/(q+1-p)} on audit radii r >= 1."""
    _check_pair(sol, profile)
    p, q = sol.problem.p, sol.problem.q
    r_hi = sol.r_last
    if r_hi <= _ENVELOPE_R_MIN:
        raise GridMismatch(f"horizon {r_hi:g} does not reach r = {_ENVELOPE_R_MIN:g}")
    num = max(8, int(_ENVELOPE_PER_DECADE * math.log10(r_hi / _ENVELOPE_R_MIN)) + 1)
    r = np.geomspace(_ENVELOPE_R_MIN, r_hi, num)
    env = envelope_constant(p, q) * profile.J(r) ** (-(p - 1.0) / (q + 1.0 - p))
    u = sol.eval_u(r)
    slack = env - u
    i = int(np.argmin(slack / env))
    return {
        "passed": bool(np.all(slack >= 0.0)),
        "min_rel_slack": float(slack[i] / env[i]),
        "r_at_min": float(r[i]),
        "violations": int(np.sum(slack < 0.0)),
    }


def q_limit_constant(p, q):
    """Limit of Q(r) when the sharp decay law holds."""
    ex = (p - 1.0) / (q + 1.0 - p)
    return ex ** ex


def asymptotic_ratio_sc(sol, profile):
    """Dyadic Q samples, extrapolated limit, deviation from the sharp value.

    Only meaningful in regimes where the decay law is proven; refuses
    otherwise (in particular whenever the liminf failure condition holds,
    e.g. the power-like gamma = 1 case).
    """
    _check_pair(sol, profile)
    if profile.tail_converged:
        raise RegimeMismatch(
            "geometry is p-stochastically incomplete: u plateaus and the "
            "sharp decay ratio has no limit"
        )
    regime = detect_regime(profile)
    if not regime.supports_decay_law():
        raise RegimeMismatch(
            f"sharp decay limit not available in regime {regime.name!r}"
            + (" (decay-law failure case)" if regime.hp_fail else "")
        )
    p, q = sol.problem.p, sol.problem.q
    R = sol.r_last
    radii = [R / 4.0, R / 2.0, R]
    Qs = [profile.J(r) ** ((p - 1.0) / (q + 1.0 - p)) * sol.eval_u(r)
          for r in radii]
    limit, err = extrapolate.richardson(Qs)
    const = q_limit_constant(p, q)
    return {
        "radii": radii,
        "Q": Qs,
        "limit": limit,
        "error_bar": err,
        "target": const,
        "rel_deviation": abs(limit - const) / const,
    }


def asymptotic_ratio_si(sol, profile, plateau_tol=0.05):
    """Plateau value and refined convergence ratio in the integrable case.

    Estimates lambda = lim u by the tail corrector
    lambda ~ u(R) - tailJ(R) lambda^{q/(p-1)} iterated twice, then reports
    the refined ratio (u(r) - lambda)/tailJ(r) against lambda^{q/(p-1)}
    and the universal upper bound on lambda.
    """
    _check_pair(sol, profile)
    if not profile.tail_converged:
        raise RegimeMismatch("tail of the geometry does not converge: not pSI")
    p, q = sol.problem.p, sol.problem.q
    R = sol.r_last
    uR = sol.eval_u(R)
    duR = sol.eval_du(R)
    if abs(duR) * R > plateau_tol * uR:
        raise NoPlateau(
            f"|u'(R)| R / u(R) = {abs(duR) * R / uR:.3g} > {plateau_tol}"
        )
    ex = q / (p - 1.0)
    tail = profile.tailJ(R)
    lam = uR - tail * uR ** ex
    for _ in range(2):
        lam = uR - tail * lam ** ex
    radii = [R / 4.0, R / 2.0, R]
    ratios = [(sol.eval_u(r) - lam) / profile.tailJ(r) for r in radii]
    bound = envelope_constant(p, q) * profile.J_inf ** (-(p - 1.0) / (q + 1.0 - p))
    return {
        "lambda_hat": lam,
        "radii": radii,
        "refined_ratio": ratios,
        "target": lam ** ex,
        "rel_deviation": abs(ratios[-1] - lam ** ex) / lam ** ex,
        "universal_bound": bound,
        "bound_slack": bound - lam,
    }


def energy_divergence_probe(sol, profile, report=None):
    """Certify growth of the gradient energy E(R) at the horizon.

    In the non-integrable (pSC) case fits E against log(1/u) and certifies
    a positive slope; in the integrable (pSI) case certifies E keeps
    growing across horizon doublings. The single convergent configuration
    (Euclidean geometry at the critical power) is signaled as an error
    since the probe would be meaningless there. The model counts as flat
    where |psi''/psi| < 1e-12 at every row of the solution past the pole,
    so a glued model that curves anywhere on the solved range is not.
    """
    _check_pair(sol, profile)
    prob = sol.problem
    if report is None:
        report = functional_traces(sol, profile)
    flat = bool(np.all(np.abs(sol.model.curvature_ratio(sol.r[1:])) < 1e-12))
    if flat and prob.is_critical:
        raise EuclideanCritical(
            "gradient energy converges for flat geometry at the critical power"
        )
    R = sol.r_last
    radii = np.array([R / 8.0, R / 4.0, R / 2.0, R])
    E_vals = np.interp(radii, report.r, report.E)
    if profile.tail_converged:
        ratios = [float(E_vals[i + 1] / E_vals[i]) for i in range(3)]
        # reference growth trend f^{(2p-1)/(p-1)} / (f')^{p/(p-1)} with
        # f = I, carried in log form since both factors overflow doubles
        mu = (2 * prob.p - 1.0) / (prob.p - 1.0)
        nu = prob.p / (prob.p - 1.0)
        log_trend = []
        for r in radii:
            log_f = profile.logI(r)
            log_fp = (prob.n - 1) * float(profile.model.log_psi(r))
            log_trend.append(float(mu * log_f - nu * log_fp))
        return {
            "case": "pSI",
            "radii": radii.tolist(),
            "E": E_vals.tolist(),
            "doubling_ratios": ratios,
            "log_trend_reference": log_trend,
            "trend_increasing": bool(np.all(np.diff(log_trend) > 0.0)),
            "unbounded": bool(min(ratios) > 1.0),
        }
    u_vals = np.array([sol.eval_u(r) for r in radii])
    x = np.log(1.0 / u_vals)
    slope, intercept = extrapolate.log_slope(np.exp(x), E_vals)
    return {
        "case": "pSC",
        "radii": radii.tolist(),
        "E": E_vals.tolist(),
        "log_inv_u": x.tolist(),
        "fitted_slope": slope,
        "intercept": intercept,
        "positive_slope": bool(slope > 0.0),
    }


def lemma_limit_checks(sol, profile):
    """Convergence diagnostics for the two auxiliary asymptotic limits.

    ratio_a(r) = u'(r) psi(r) / (u(r) psi'(r))                    -> 0
    ratio_b(r) = (-u') u^{-q/(p-1)} (psi'/psi)^{1/(p-1)}  -> (1/(n-1))^{1/(p-1)}
    """
    _check_pair(sol, profile)
    if profile.tail_converged:
        raise RegimeMismatch(
            "geometry is p-stochastically incomplete: the auxiliary limits "
            "concern decaying solutions"
        )
    regime = detect_regime(profile)
    if not regime.supports_decay_law():
        raise RegimeMismatch(
            f"auxiliary limits not proven in regime {regime.name!r}"
        )
    prob = sol.problem
    n, p, q = prob.n, prob.p, prob.q
    R = sol.r_last
    radii = [R / 4.0, R / 2.0, R]
    a_vals, b_vals = [], []
    for r in radii:
        u = sol.eval_u(r)
        du = sol.eval_du(r)
        f = float(profile.model.slope_ratio(r))
        a_vals.append(du / (u * f))
        b_vals.append((-du) / u ** (q / (p - 1.0)) * f ** (1.0 / (p - 1.0)))
    a_lim, a_err = extrapolate.richardson(a_vals)
    b_lim, b_err = extrapolate.richardson(b_vals)
    target_b = (1.0 / (n - 1.0)) ** (1.0 / (p - 1.0))
    return {
        "radii": radii,
        "ratio_a": a_vals,
        "ratio_a_limit": a_lim,
        "ratio_a_error_bar": a_err,
        "ratio_b": b_vals,
        "ratio_b_limit": b_lim,
        "ratio_b_error_bar": b_err,
        "ratio_b_target": target_b,
        "ratio_b_rel_deviation": abs(b_lim - target_b) / target_b,
    }
