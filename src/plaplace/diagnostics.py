"""Functionals along a radial solution and horizon adjudication.

Given a trajectory u and the geometry profile of its model, this module
computes the energy function F, the weighted monotone combination P (with
its multiplier K), the normalized decay ratio Q, and the cumulative
gradient energy E, then judges the quantitative claims: monotonicity,
decay envelopes, asymptotic limits, plateau values, and energy growth.
"""

import json
import math

import numpy as np

from . import extrapolate, runio
from .models import _EXP_CAP
from .quadrature import gauss_legendre


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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
        return path


def _pohozaev_identity_defect(sol, profile, num=80):
    """Max relative defect of P' = K |u'|^p on interior audit radii.

    P and its multiplier grow with psi^{n-1}, so differences on the
    solution rows lose digits; instead P is rebuilt from the stepper's
    dense output at r(1 +- 1e-3) where the truncation error of a central
    difference is ~1e-6 of the derivative. All radii are evaluated at once.

    Returns (max_rel_defect, resolved_radii, audited_radii): only radii
    whose defect exceeds the resolution limit below contribute.
    """
    prob = sol.problem
    n, p, q = prob.n, prob.p, prob.q
    c1 = (p - 1.0) / p + 1.0 / (q + 1.0)

    def pieces(x):
        u, du, w = sol._state(x)
        F = ((p - 1.0) / p) * np.abs(du) ** p + u ** (q + 1.0) / (q + 1.0)
        return profile.I(x) * F, w * u / (q + 1.0)

    r_first = sol.r[1]
    lo = max(10.0 * r_first, 2e-3 * sol.r_last)
    hi = 0.99 * sol.r_last
    x = np.geomspace(lo, hi, num)
    # step sized against the local logarithmic derivative of P, which
    # is dominated by psi^{n-1} growth; keeps FD truncation ~1e-5
    f = np.asarray(profile.model.slope_ratio(x), dtype=float)
    u, du, _ = sol._state(x)
    du_abs = np.abs(du)
    rate = (n - 1) * f + q * du_abs / u + 2.0 / x
    h = np.minimum(1e-3 * x, 1e-2 / rate)
    ap, bp = pieces(x + h)
    am, bm = pieces(x - h)
    dP = ((ap - am) + (bp - bm)) / (2.0 * h)
    # scale of the two piece derivatives whose near-cancellation forms
    # P'; the check cannot resolve defects far below roundoff of these
    S = (np.abs(ap - am) + np.abs(bp - bm)) / (2.0 * h)
    psi_pow = np.exp(np.minimum(
        (n - 1) * np.asarray(profile.model.log_psi(x), dtype=float), _EXP_CAP))
    t = psi_pow * (c1 - (n - 1) * f * profile.theta(x)) * du_abs ** p
    # resolution limit of the difference quotient: the interpolated
    # piece values carry ~1e3 x rtol relative error, which the 1/(2h)
    # amplifies; a defect below that scale cannot be distinguished
    # from stepper noise (relevant where the exact derivative is 0)
    resolution = 1e-8 * (np.abs(ap) + np.abs(am) + np.abs(bp) + np.abs(bm)) \
        / (2.0 * h)
    err = np.abs(dP - t)
    resolved = err > resolution
    # the S floor marks where P' emerges from an S-sized cancellation
    rel = err[resolved] / (np.abs(t[resolved]) + 1e-2 * S[resolved] + 1e-300)
    worst = float(np.max(rel)) if rel.size else 0.0
    return worst, int(np.count_nonzero(resolved)), int(num)


def functional_traces(sol, profile):
    """Populate F, P, K, E (and Q) along the solution grid.

    F(r) = ((p-1)/p)|u'|^p + u^{q+1}/(q+1)        (nonincreasing)
    P(r) = I(r) F(r) + w(r) u(r)/(q+1)            (<= 0, nonincreasing)
    K(r) = psi^{n-1} [ (p-1)/p + 1/(q+1) - (n-1)(psi'/psi) Theta ]
    Q(r) = J(r)^{(p-1)/(q+1-p)} u(r)
    E(R) = n omega_n int_0^R |u'|^p psi^{n-1}

    K is assembled through Theta = I/psi^{n-1} so the difference in the
    bracket is computed before any large factor; the identity
    P' = K |u'|^p is checked by finite differences and recorded.
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
    psi_pow = np.exp(np.minimum(lpsi_pow, _EXP_CAP))
    psi_pow[0] = 0.0
    theta = np.empty_like(r)
    theta[0] = 0.0
    theta[1:] = profile.theta(r[1:])
    I = theta * psi_pow

    P = I * F + w * u / (q + 1.0)

    slope = np.asarray(profile.model.slope_ratio(rr), dtype=float)
    bracket = (p - 1.0) / p + 1.0 / (q + 1.0) - (n - 1) * slope * theta
    K = psi_pow * bracket
    K[0] = 0.0

    Q = np.zeros_like(r)
    Q[1:] = profile.J(r[1:]) ** ((p - 1.0) / (q + 1.0 - p)) * u[1:]

    # E' = n omega_n |u'|^p psi^{n-1} = n omega_n w u', from the dense output
    # by Gauss-Legendre on each row interval
    def energy_density(x):
        _, du_x, w_x = sol._state(x)
        return n * unit_ball_volume(n) * w_x * du_x

    E = np.concatenate([[0.0], np.cumsum(gauss_legendre(energy_density,
                                                        r[:-1], r[1:]))])

    report = DiagnosticsReport(sol, profile, r, F, P, K, Q, E)

    defect, resolved, audited = _pohozaev_identity_defect(sol, profile)
    report.add_verdict("pohozaev-identity", defect < 1e-3, 1e-3 - defect,
                       max_rel_defect=defect, resolved_radii=resolved,
                       audited_radii=audited)

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


def decay_envelope_check(sol, profile, r_min=1.0, points_per_decade=64):
    """Assert u(r) <= C J(r)^{-(p-1)/(q+1-p)} on audit radii r >= r_min."""
    _check_pair(sol, profile)
    p, q = sol.problem.p, sol.problem.q
    r_hi = sol.r_last
    if r_hi <= r_min:
        raise GridMismatch(f"horizon {r_hi:g} does not reach r_min={r_min:g}")
    num = max(8, int(points_per_decade * math.log10(r_hi / r_min)) + 1)
    r = np.geomspace(r_min, r_hi, num)
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


def asymptotic_ratio_sc(sol, profile, regime=None):
    """Dyadic Q samples, extrapolated limit, deviation from the sharp value.

    Only meaningful in regimes where the decay law is proven; refuses
    otherwise (in particular whenever the liminf failure condition holds,
    e.g. the power-like gamma = 1 case).
    """
    from .models import detect_regime

    _check_pair(sol, profile)
    if profile.tail_converged:
        raise RegimeMismatch(
            "geometry is p-stochastically incomplete: u plateaus and the "
            "sharp decay ratio has no limit"
        )
    if regime is None:
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
    since the probe would be meaningless there.
    """
    _check_pair(sol, profile)
    prob = sol.problem
    if report is None:
        report = functional_traces(sol, profile)
    flat = bool(np.all(np.abs(sol.model.ddpsi(np.linspace(0.1, min(sol.r_last, 10.0), 64))) < 1e-12))
    if flat and prob.is_critical:
        raise EuclideanCritical(
            "gradient energy converges for flat geometry at the critical power"
        )
    R = sol.r_last
    radii = np.array([R / 8.0, R / 4.0, R / 2.0, R])
    E_vals = np.interp(radii, report.r, report.E)
    if profile.tail_converged:
        ratios = [float(E_vals[i + 1] / E_vals[i]) for i in range(3)]
        # reference growth trend from the volume primitive f = I
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


def lemma_limit_checks(sol, profile, regime=None):
    """Convergence diagnostics for the two auxiliary asymptotic limits.

    ratio_a(r) = u'(r) psi(r) / (u(r) psi'(r))                    -> 0
    ratio_b(r) = (-u') u^{-q/(p-1)} (psi'/psi)^{1/(p-1)}  -> (1/(n-1))^{1/(p-1)}
    """
    from .models import detect_regime

    _check_pair(sol, profile)
    if profile.tail_converged:
        raise RegimeMismatch(
            "geometry is p-stochastically incomplete: the auxiliary limits "
            "concern decaying solutions"
        )
    if regime is None:
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
