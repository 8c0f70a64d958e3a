"""Recursive glued-model construction making the decay ratio Q oscillate.

Starting from the flat cone psi = r, the model is extended stage by stage:
even stages continue linearly (psi'' = 0, so psi'/psi ~ 1/r and Q drifts
below its sharp limit), odd stages switch the curvature ratio to a
constant (2s)^2 so psi'/psi ramps to the exponential rate 2s and Q climbs
back above the limit. Each extension ramps psi''/psi between the two
constants over a window of width 0.5 at its join (Glued.extended with
float ends): the model is tabulated by DOP853 across the window and in
closed form past it. Stage s is one solver.integrate run on the model
glued so far: stage 0 from the pole, every later stage continuing the
previous stage's run from its trigger, which the extension made a join.
It ends at its trigger: the first accepted step end of the solution, at
least one unit past the previous trigger, where

  even s:  Q < T_low  and  u < 2^-s
  odd  s:  Q > T_high and  u < 2^-s  and  log psi >= s r

with Q = J^{(p-1)/(q+1-p)} u, J read from the geometry profile of that
model, T_low = C (1 - 1/n)^{1/(q+1-p)}, T_high = C (1 - 1/(2n))^{1/(q+1-p)}
and C the sharp limit constant of Q. The model is then extended at the
trigger. The emitted certificate records every trigger; since the
extension never touches psi below the join, re-running with more stages
reproduces the earlier stage log exactly. Each trigger is also logged as
it fires, at INFO on the "plaplace.oscillator" logger (silent unless the
caller configures logging).
"""

import logging
import time

from . import models, runio, solver
# kept importable: the benchmark tracer (perfbench/spans.py) wraps
# oscillator.solve_ivp by name, although the construction no longer calls it
from .dense import solve_ivp  # noqa: F401
from .diagnostics import q_limit_constant
from .models import ConvexityViolation, InvalidParameter

# width of the smoothstep that ramps the curvature ratio at each join
_BLEND_WIDTH = 0.5
# a stage's radius budget is at least this factor times (its join + 1)
_STAGE_CAP_FACTOR = 50.0
_VERIFY_REL_TOL = 2e-3  # verify_certificate's tolerance on each Q

_log = logging.getLogger(__name__)


class TriggerTimeout(Exception):
    """A stage trigger did not fire before the per-stage horizon cap."""


class Inconsistent(Exception):
    """Certificate recomputation deviates beyond tolerance."""


def thresholds(n, p, q):
    """Trigger bands (T_low, T_high) below/above the sharp Q limit."""
    c = q_limit_constant(p, q)
    ex = 1.0 / (q + 1.0 - p)
    return c * (1.0 - 1.0 / n) ** ex, c * (1.0 - 1.0 / (2.0 * n)) ** ex


class StagePlan:
    """Trigger data for one construction stage."""

    def __init__(self, index, n, p, q, rate_scale=2.0):
        self.index = index
        self.kind = "power-like" if index % 2 == 0 else "exponential"
        self.rate_scale = rate_scale
        self.rate = 0.0 if index % 2 == 0 else rate_scale * index
        self.u_ceiling = 2.0 ** (-index)
        t_low, t_high = thresholds(n, p, q)
        self.t_low = t_low
        self.t_high = t_high

    def fires(self, r, Q, u, log_psi):
        if self.index % 2 == 0:
            return Q < self.t_low and u < self.u_ceiling
        return (Q > self.t_high and u < self.u_ceiling
                and log_psi >= self.index * r)

    def curvature(self):
        """(m_from, m_to): the curvature ratios psi''/psi that this stage's
        piece ramps between across the blend window at its join."""
        if self.index % 2 == 0:
            # ramp the previous exponential curvature back down to zero
            prev_rate = (self.rate_scale * (self.index - 1)
                         if self.index > 0 else 0.0)
            return prev_rate ** 2, 0.0
        return 0.0, self.rate ** 2


class OscillationCertificate:
    """Stage log plus measured bands of the oscillating ratio Q."""

    def __init__(self, n, p, q, alpha, t_low, t_high, stages):
        self.n = n
        self.p = p
        self.q = q
        self.alpha = alpha
        self.t_low = t_low
        self.t_high = t_high
        self.stages = stages  # list of dicts per fired trigger

    @property
    def band_min_even(self):
        return min(s["Q"] for s in self.stages if s["index"] % 2 == 0)

    @property
    def band_max_odd(self):
        return max(s["Q"] for s in self.stages if s["index"] % 2 == 1)

    @property
    def separation(self):
        return self.band_max_odd - self.band_min_even

    def to_dict(self):
        return {
            "n": self.n, "p": self.p, "q": self.q, "alpha": self.alpha,
            "t_low": self.t_low, "t_high": self.t_high,
            "stages": [dict(s) for s in self.stages],
            "band_min_even": self.band_min_even,
            "band_max_odd": self.band_max_odd,
            "separation": self.separation,
        }

    def to_json(self, path):
        return runio.write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, data):
        return cls(data["n"], data["p"], data["q"], data["alpha"],
                   data["t_low"], data["t_high"],
                   [dict(s) for s in data["stages"]])


def _stage_budget(plan, n, p, q, J_now, r_here):
    """Radius budget for one stage.

    The u < 2^-s trigger needs J to reach roughly
    (C / 2^-s)^{(q+1-p)/(p-1)}, and J accrues at the rate Theta^{1/(p-1)}
    of the current piece, so the radius demand grows geometrically with
    the stage index; the flat 50 (r+1) budget is kept as a floor and the
    J-based estimate extends it.
    """
    mu = 1.0 / (p - 1.0)
    J_needed = (q_limit_constant(p, q) / plan.u_ceiling) \
        ** ((q + 1.0 - p) / (p - 1.0))
    if plan.kind == "exponential":
        theta_inf = 1.0 / ((n - 1) * max(plan.rate, 1e-6))
        dr_est = max(J_needed - J_now, 0.0) / theta_inf ** mu
    else:
        # linear piece: Theta ~ r/n so J ~ r^{1+mu} / (n^mu (1+mu))
        dr_est = (max(J_needed - J_now, 0.0) * n ** mu * (1.0 + mu)) \
            ** (1.0 / (1.0 + mu))
    return max(_STAGE_CAP_FACTOR * (r_here + 1.0), 4.0 * dr_est + 10.0)


def construct(n, p, q, alpha, stages, rate_scale=2.0):
    """Run the staged construction; returns (model, solution, certificate).

    Each stage glues its piece at the previous trigger (stage 0 keeps the
    flat cone), tabulates the geometry profile of the model glued so far,
    and runs solver.integrate on that model with the stage's trigger as
    the stop predicate, checked at every accepted step end: first
    r >= previous trigger + 1 and u < 2^-s, which cost nothing, then
    StagePlan.fires with J from the profile. The trigger is the step end
    where the run stopped. Stage 0 runs from the pole; every later stage
    continues the previous stage's solution (integrate(carry=sol)), since
    the extension keeps the model below the trigger bit-identical and
    makes the trigger a join, where the solver restarts its stepper
    anyway. So no step is taken twice, no stage builds rows (it reads
    r_last, u there and the dense output), and the returned solution, the
    last stage's, is to the bit a run from the pole on the final model;
    every trigger is one of its knots. Each trigger is logged at INFO as
    it fires, with its index, kind, r, Q, u, the solution's accepted steps
    so far and the seconds elapsed since the construction began.

    `stages` counts fired triggers and must be an even number >= 4 so the
    certificate ends with both bands populated. rate_scale <= 0 would ask
    the exponential stages to glue onto a flat slope target, which no
    convex continuation can do (ConvexityViolation). rate_scale <= 1 is
    refused too (InvalidParameter): stage 1 then keeps psi'/psi <= 1 from
    its join r_1 >= 1, so log psi(r) <= log r_1 + r - r_1 < r and its
    trigger log psi >= r never fires.
    """
    prob = solver.Problem(n, p, q, alpha)
    if stages < 4 or stages % 2 != 0:
        raise InvalidParameter("need an even number of stages >= 4")
    if rate_scale <= 0.0:
        raise ConvexityViolation(
            "exponential stages need a positive slope-ratio target; a flat "
            "(all power-like) plan cannot produce the upper band"
        )
    if rate_scale <= 1.0:
        raise InvalidParameter(f"rate_scale must exceed 1 for stage 1's trigger "
                               f"log psi >= r to fire, got {rate_scale:g}")
    t_low, t_high = thresholds(n, p, q)
    ex = (p - 1.0) / (q + 1.0 - p)

    began = time.perf_counter()
    model = models.as_glued(models.Euclidean())
    r_here, J_here = 0.0, 0.0
    sol = None
    stage_log = []
    for s_idx in range(stages):
        plan = StagePlan(s_idx, n, p, q, rate_scale)
        r_stop = r_here + _stage_budget(plan, n, p, q, J_here, r_here)
        if s_idx > 0:
            model = model.extended(r_here, r_stop + 10.0, *plan.curvature(),
                                   _BLEND_WIDTH)
        prof = models.geometry_profile(model, n, p, r_stop)
        r_min = r_here + 1.0

        def stop(r, u):
            return (r >= r_min and u < plan.u_ceiling
                    and plan.fires(r, prof.J(r) ** ex * u, u,
                                   float(model.log_psi(r))))

        sol = solver.integrate(prob, model, solver.SolverConfig(r_max=r_stop),
                               stop=stop, carry=sol)
        r_here = sol.r_last
        u = sol.eval_u(r_here)
        J_here = float(prof.J(r_here))
        Q = J_here ** ex * u
        if sol.termination != "stopped":
            raise TriggerTimeout(
                f"stage {s_idx} ({plan.kind}) trigger not reached by "
                f"r={r_here:.3g} ({sol.termination}); last Q={Q:.5f}, u={u:.3g}"
            )
        stage_log.append({
            "index": s_idx,
            "kind": plan.kind,
            "r": r_here,
            "Q": Q,
            "u": u,
            "log_psi": float(model.log_psi(r_here)),
            "threshold": plan.t_low if s_idx % 2 == 0 else plan.t_high,
        })
        _log.info("stage %d (%s) fired at r=%r: Q=%r, u=%r; %d accepted "
                  "steps, %.3f s elapsed", s_idx, plan.kind, r_here, Q, u,
                  len(sol._dense.h), time.perf_counter() - began)

    cert = OscillationCertificate(n, p, q, alpha, t_low, t_high, stage_log)
    return model, sol, cert


def verify_certificate(cert, sol, profile):
    """Recompute every logged trigger from the solution and geometry.

    Checks: Q values match within _VERIFY_REL_TOL; parity conditions hold at each
    trigger; joins are spaced at least one unit apart; the two bands are
    separated; and psi(r_k) e^{-l r_k} increases along the odd stages for
    l in {1, 2}. Any mismatch raises Inconsistent naming the stage.
    """
    p, q = cert.p, cert.q
    ex = (p - 1.0) / (q + 1.0 - p)
    prev_r = None
    odd_log_growth = {1: [], 2: []}
    for entry in cert.stages:
        r = entry["r"]
        Q_re = profile.J(r) ** ex * sol.eval_u(r)
        if abs(Q_re - entry["Q"]) > _VERIFY_REL_TOL * entry["Q"]:
            raise Inconsistent(
                f"stage {entry['index']}: recomputed Q={Q_re:.6f} deviates "
                f"from logged {entry['Q']:.6f}"
            )
        u_re = sol.eval_u(r)
        if entry["index"] % 2 == 0:
            if not (Q_re < cert.t_low and u_re < 2.0 ** (-entry["index"])):
                raise Inconsistent(
                    f"stage {entry['index']}: even trigger conditions fail"
                )
        else:
            lpsi = float(profile.model.log_psi(r))
            if not (Q_re > cert.t_high and u_re < 2.0 ** (-entry["index"])
                    and lpsi >= entry["index"] * r - 1e-6):
                raise Inconsistent(
                    f"stage {entry['index']}: odd trigger conditions fail"
                )
            for ell in (1, 2):
                odd_log_growth[ell].append(lpsi - ell * r)
        if prev_r is not None and r < prev_r + 1.0 - 1e-9:
            raise Inconsistent(
                f"stage {entry['index']}: join spacing below one unit"
            )
        prev_r = r
    for ell, seq in odd_log_growth.items():
        if any(b <= a for a, b in zip(seq, seq[1:])):
            raise Inconsistent(
                f"growth sequence psi(r_k) e^(-{ell} r_k) not increasing"
            )
    sep = cert.separation
    if not (cert.band_min_even < cert.t_low < cert.t_high < cert.band_max_odd):
        raise Inconsistent("measured bands do not bracket the thresholds")
    return {
        "passed": True,
        "separation": sep,
        "band_min_even": cert.band_min_even,
        "band_max_odd": cert.band_max_odd,
        "odd_growth_log": {k: list(v) for k, v in odd_log_growth.items()},
    }
