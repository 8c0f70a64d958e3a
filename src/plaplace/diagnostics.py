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
from .models import GeometryOverflow, RegimeError, SolverError, _ladder
from .quadrature import panel_integrals

_ENVELOPE_R_MIN, _ENVELOPE_PER_DECADE = 1.0, 64  # decay_envelope_check's grid
_PLATEAU_TOL = 0.05  # asymptotic_ratio_si needs |u'(R)| R <= _PLATEAU_TOL u(R)


class GridMismatch(RegimeError):
    """Solution and geometry profile disagree on model or dimension."""


class RegimeMismatch(RegimeError):
    """Requested limit is proven to fail (or is unproven) in this regime."""


class NoPlateau(RegimeError):
    """The solution has not flattened by the horizon."""


class EuclideanCritical(RegimeError):
    """Signals the single configuration where the gradient energy converges."""


class UnresolvedPlateau(SolverError):
    """u - lambda is not resolved above the solver's tolerance on u."""


def unit_ball_volume(n):
    """Volume of the unit ball in n dimensions."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _check_pair(sol, profile):
    if sol.problem.n != profile.n or abs(sol.problem.p - profile.p) > 1e-12:
        raise GridMismatch("solution and profile use different (n, p)")
    if sol.model.descriptor() != profile.model.descriptor():
        raise GridMismatch("solution and profile use different models")


def _check_decay_law(sol, profile, claim):
    """_check_pair, then refuse (RegimeMismatch) a claim about decaying
    solutions on a pSI profile, where u plateaus, and in a regime where
    the sharp decay law is not proven."""
    _check_pair(sol, profile)
    if profile.tail_converged:
        raise RegimeMismatch(f"{claim}: the geometry is p-stochastically incomplete, "
                             "so u plateaus")
    regime = profile.regime
    if not regime.supports_decay_law():
        raise RegimeMismatch(f"{claim}: not proven in regime {regime.name!r}"
                             + (" (decay-law failure case)" if regime.hp_fail else ""))


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


def _energy_exponent(sol, r):
    """log(w u') = (1 + mu) v - mu (n-1) log psi at radii r > 0, from the
    dense output's v = log(-w): w u' = psi^{n-1} |u'|^p with
    |u'| = (|w| / psi^{n-1})^mu, mu = 1/(p-1)."""
    prob = sol.problem
    mu = 1.0 / (prob.p - 1.0)
    E = sol._uv(r, 1) * (1.0 + mu)
    E -= mu * ((prob.n - 1) * np.asarray(sol.model.log_psi(r), dtype=float))
    return E


def _pohozaev_identity_defect(sol, profile, IF, wu):
    """Defects of P(b) - P(a) = int_a^b K |u'|^p between the sampled rows.

    The identity is checked in integrated form between the rows the flux
    residual samples (RadialSolution._sampled_rows), P = IF + wu being read
    from I F and w u/(q+1) on the solution's rows. The integral of
    K |u'|^p = bracket w u' is RadialSolution._integrals of
    bracket e^{E - log S}: the fitted rule follows the exponent
    E = log(w u') (_energy_exponent), formed in log space from v, and the
    bracket is a plain factor. S = max(|I F| + |w u/(q+1)|) over the
    interval's two ends is its scale. An interval is resolved where the
    integral exceeds 1e-6 S.

    Returns (max_rel_defect, max_scaled_defect, resolved_intervals,
    audited_radii): the largest |dP - int| / |int| over resolved intervals,
    the largest |dP - int| / S over all of them, and how many rows were
    audited.
    """
    n, p, q = sol.problem.n, sol.problem.p, sol.problem.q
    c1 = (p - 1.0) / p + 1.0 / (q + 1.0)
    idx = sol._sampled_rows()
    IF, wu = IF[idx], wu[idx]
    scale = np.abs(IF) + np.abs(wu)
    S = np.maximum(scale[:-1], scale[1:])

    def bracket(s):
        slope = np.asarray(profile.model.slope_ratio(s), dtype=float)
        return c1 - (n - 1) * slope * profile.theta(s)

    # in units of S
    integral = sol._integrals(sol.r[idx], lambda s: _energy_exponent(sol, s),
                              np.log(S), bracket)
    err = np.abs(np.diff(IF + wu) / S - integral)
    resolved = np.abs(integral) > 1e-6
    rel = err[resolved] / np.abs(integral[resolved])
    worst = float(np.max(rel)) if rel.size else 0.0
    return worst, float(np.max(err)), int(np.count_nonzero(resolved)), idx.size


def functional_traces(sol, profile):
    """Populate F, P, K, E (and Q) along the solution grid.

    F(r) = ((p-1)/p)|u'|^p + u^{q+1}/(q+1)        (nonincreasing)
    P(r) = I(r) F(r) + w(r) u(r)/(q+1)            (<= 0, nonincreasing)
    K(r) = psi^{n-1} [ (p-1)/p + 1/(q+1) - (n-1)(psi'/psi) Theta ]
    Q(r) = J(r)^{(p-1)/(q+1-p)} u(r)
    E(R) = n omega_n int_0^R |u'|^p psi^{n-1}

    K is assembled through Theta = I/psi^{n-1} so the difference in the
    bracket is computed before any large factor. E is an integral of the
    dense output by quadrature.panel_integrals, one panel per row interval,
    fitted to the exponent log(w u') = (1 + mu) v - mu (n-1) log psi formed
    from v = log(-w); the integrated identity P(b) - P(a) = int_a^b K |u'|^p,
    the "pohozaev-identity" verdict, is checked on the same exponent
    (_pohozaev_identity_defect).

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

    # past the double range these turn inf or nan, which is refused below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        psi_pow = np.exp(lpsi_pow)
        psi_pow[0] = 0.0
        I = theta * psi_pow
        IF, wu = I * F, w * u / (q + 1.0)
        P = IF + wu
        K = psi_pow * bracket
        # E only up to the first row where K or P has left the range
        out = ~(np.isfinite(K) & np.isfinite(P))
        end = int(np.argmax(out)) + 1 if np.any(out) else len(r)
        mu = 1.0 / (p - 1.0)
        E_rows = (1.0 + mu) * np.log(-w[:end]) - mu * lpsi_pow[:end]
        E = n * unit_ball_volume(n) * np.concatenate([[0.0], np.cumsum(
            panel_integrals(lambda x, k: _energy_exponent(sol, x), r[:end], E_rows))])
    traces = {"K": K[:end], "P": P[:end], "E": E}
    finite = np.all([np.isfinite(x) for x in traces.values()], axis=0)
    if not np.all(finite):
        k = int(np.argmin(finite))
        names = [name for name, x in traces.items() if not np.isfinite(x[k])]
        raise GeometryOverflow(
            f"{', '.join(names)} leave the double range at r = {float(r[k])!r} "
            f"((n-1) log psi = {lpsi_pow[k]:.6g})")

    report = DiagnosticsReport(sol, profile, r, F, P, K, Q, E)

    defect, scaled, resolved, audited = _pohozaev_identity_defect(sol, profile, IF, wu)
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
    """Q on the dyadic ladder _ladder(R, 3), its extrapolated limit and the
    deviation from the sharp value; J and u are each one lookup there.

    Only meaningful in regimes where the decay law is proven; refuses
    otherwise (in particular whenever the liminf failure condition holds,
    e.g. the power-like gamma = 1 case).
    """
    _check_decay_law(sol, profile, "sharp decay limit")
    p, q = sol.problem.p, sol.problem.q
    radii = _ladder(sol.r_last, 3)
    Qs = profile.J(radii) ** ((p - 1.0) / (q + 1.0 - p)) * sol.eval_u(radii)
    limit, err = extrapolate.richardson(Qs)
    const = q_limit_constant(p, q)
    return {
        "radii": radii.tolist(),
        "Q": Qs.tolist(),
        "limit": limit,
        "error_bar": err,
        "target": const,
        "rel_deviation": abs(limit - const) / const,
    }


def asymptotic_ratio_si(sol, profile):
    """Plateau value and refined convergence ratio in the integrable case.

    Estimates lambda = lim u by the tail corrector
    lambda ~ u(R) - tailJ(R) lambda^{q/(p-1)} iterated three times from
    u(R), then reports the refined ratio (u(r) - lambda)/tailJ(r) on the
    dyadic ladder _ladder(R, 3), u, u' and tailJ each one lookup there,
    against lambda^{q/(p-1)}, and the universal upper bound on lambda.
    Refuses (NoPlateau) a solution still falling at R:
    |u'(R)| R > _PLATEAU_TOL u(R); and (UnresolvedPlateau) one whose
    u - lambda, on some rung, is at most sol.config.rel_tol u: unresolved.
    """
    _check_pair(sol, profile)
    if not profile.tail_converged:
        raise RegimeMismatch("tail of the geometry does not converge: not pSI")
    p, q = sol.problem.p, sol.problem.q
    R = sol.r_last
    radii = _ladder(R, 3)
    u, du, _ = sol._state(radii)
    uR, duR = u[-1], du[-1]
    if abs(duR) * R > _PLATEAU_TOL * uR:
        raise NoPlateau(
            f"|u'(R)| R / u(R) = {abs(duR) * R / uR:.3g} > {_PLATEAU_TOL}"
        )
    ex = q / (p - 1.0)
    tail = profile.tailJ(radii)
    lam = uR
    for _ in range(3):
        lam = uR - tail[-1] * lam ** ex
    excess = u - lam
    if not np.all(excess > sol.config.rel_tol * u):
        raise UnresolvedPlateau(
            f"(u - lambda_hat) / u = {np.min(excess / u):.3g} on the ladder at "
            f"R = {R:g}, not above rel_tol = {sol.config.rel_tol:g}")
    ratios = excess / tail
    bound = envelope_constant(p, q) * profile.J_inf ** (-(p - 1.0) / (q + 1.0 - p))
    return {
        "lambda_hat": lam,
        "radii": radii.tolist(),
        "refined_ratio": ratios.tolist(),
        "target": lam ** ex,
        "rel_deviation": abs(ratios[-1] - lam ** ex) / lam ** ex,
        "universal_bound": bound,
        "bound_slack": bound - lam,
    }


def energy_divergence_probe(sol, profile, report=None):
    """Certify growth of the gradient energy E(R) at the horizon.

    In the non-integrable (pSC) case fits E against log(1/u) and certifies
    a positive slope; in the integrable (pSI) case certifies E keeps
    growing across horizon doublings; both on the dyadic ladder
    _ladder(R, 4), u, log I and log psi each one lookup there. The single
    convergent configuration (Euclidean geometry at the critical power) is
    signaled as an error since the probe would be meaningless there. The
    model counts as flat where |psi''/psi| < 1e-12 at every row of the
    solution past the pole, so a glued model that curves anywhere on the
    solved range is not.
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
    radii = _ladder(sol.r_last, 4)
    E_vals = np.interp(radii, report.r, report.E)
    if profile.tail_converged:
        ratios = (E_vals[1:] / E_vals[:-1]).tolist()
        # reference growth trend f^{(2p-1)/(p-1)} / (f')^{p/(p-1)} with
        # f = I, carried in log form since both factors overflow doubles
        mu = (2 * prob.p - 1.0) / (prob.p - 1.0)
        nu = prob.p / (prob.p - 1.0)
        log_trend = mu * profile.logI(radii) - nu * profile._G(radii)
        return {
            "case": "pSI",
            "radii": radii.tolist(),
            "E": E_vals.tolist(),
            "doubling_ratios": ratios,
            "log_trend_reference": log_trend.tolist(),
            "trend_increasing": bool(np.all(np.diff(log_trend) > 0.0)),
            "unbounded": bool(min(ratios) > 1.0),
        }
    inv_u = 1.0 / sol.eval_u(radii)
    slope, intercept = extrapolate.log_slope(inv_u, E_vals)
    return {
        "case": "pSC",
        "radii": radii.tolist(),
        "E": E_vals.tolist(),
        "log_inv_u": np.log(inv_u).tolist(),
        "fitted_slope": slope,
        "intercept": intercept,
        "positive_slope": bool(slope > 0.0),
    }


def lemma_limit_checks(sol, profile):
    """Convergence diagnostics for the two auxiliary asymptotic limits, on
    the dyadic ladder _ladder(R, 3), u, u' and psi'/psi each one lookup:

    ratio_a(r) = u'(r) psi(r) / (u(r) psi'(r))                    -> 0
    ratio_b(r) = (-u') u^{-q/(p-1)} (psi'/psi)^{1/(p-1)}  -> (1/(n-1))^{1/(p-1)}
    """
    _check_decay_law(sol, profile, "auxiliary limits")
    prob = sol.problem
    n, p, q = prob.n, prob.p, prob.q
    radii = _ladder(sol.r_last, 3)
    u, du, _ = sol._state(radii)
    f = np.asarray(profile.model.slope_ratio(radii), dtype=float)
    a_vals = du / (u * f)
    b_vals = (-du) / u ** (q / (p - 1.0)) * f ** (1.0 / (p - 1.0))
    a_lim, a_err = extrapolate.richardson(a_vals)
    b_lim, b_err = extrapolate.richardson(b_vals)
    target_b = (1.0 / (n - 1.0)) ** (1.0 / (p - 1.0))
    return {
        "radii": radii.tolist(),
        "ratio_a": a_vals.tolist(),
        "ratio_a_limit": a_lim,
        "ratio_a_error_bar": a_err,
        "ratio_b": b_vals.tolist(),
        "ratio_b_limit": b_lim,
        "ratio_b_error_bar": b_err,
        "ratio_b_target": target_b,
        "ratio_b_rel_deviation": abs(b_lim - target_b) / target_b,
    }
