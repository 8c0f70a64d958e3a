"""Recursive glued-model construction making the decay ratio Q oscillate.

Starting from the flat cone psi = r, the model is extended stage by stage:
even stages continue linearly (psi'' = 0, so psi'/psi ~ 1/r and Q drifts
below its sharp limit), odd stages switch the curvature ratio to a
constant (2s)^2 so psi'/psi ramps to the exponential rate 2s and Q climbs
back above the limit. Stage s ends at the first radius (at least one unit
past the previous join) where

  even s:  Q < T_low  and  u < 2^-s
  odd  s:  Q > T_high and  u < 2^-s  and  log psi >= s r

with T_low = C (1 - 1/n)^{1/(q+1-p)}, T_high = C (1 - 1/(2n))^{1/(q+1-p)}
and C the sharp limit constant of Q. The emitted certificate records every
trigger; since the extension never touches psi below the join, re-running
with more stages reproduces the earlier stage log exactly.
"""

import json
import math

import numpy as np
from scipy.integrate import solve_ivp

from . import models, solver
from .diagnostics import q_limit_constant
from .models import ConvexityViolation, InvalidParameter, _smoothstep


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

    def __init__(self, index, n, p, q, blend_width=0.5, rate_scale=2.0):
        self.index = index
        self.kind = "power-like" if index % 2 == 0 else "exponential"
        self.rate_scale = rate_scale
        self.rate = 0.0 if index % 2 == 0 else rate_scale * index
        self.u_ceiling = 2.0 ** (-index)
        self.blend_width = blend_width
        t_low, t_high = thresholds(n, p, q)
        self.t_low = t_low
        self.t_high = t_high

    def fires(self, r, Q, u, log_psi):
        if self.index % 2 == 0:
            return Q < self.t_low and u < self.u_ceiling
        return (Q > self.t_high and u < self.u_ceiling
                and log_psi >= self.index * r)

    def curvature(self, join):
        """m(r) = psi''/psi for the piece beginning at this stage's join."""
        w = self.blend_width
        if self.index % 2 == 0:
            # ramp the previous exponential curvature back down to zero
            prev_rate = (self.rate_scale * (self.index - 1)
                         if self.index > 0 else 0.0)

            def m_fun(r):
                return prev_rate ** 2 * (1.0 - _smoothstep((r - join) / w))
        else:
            sigma = self.rate

            def m_fun(r):
                return sigma ** 2 * _smoothstep((r - join) / w)

        return m_fun


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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
        return path

    @classmethod
    def from_dict(cls, data):
        return cls(data["n"], data["p"], data["q"], data["alpha"],
                   data["t_low"], data["t_high"],
                   [dict(s) for s in data["stages"]])


def _stage_budget(plan, n, p, q, J_now, r_here, stage_cap_factor):
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
    return max(stage_cap_factor * (r_here + 1.0), 4.0 * dr_est + 10.0)


def _augmented_rhs(prob, model):
    """(log Theta, log J, u, log(-w))' on the glued model: the geometry
    kernel followed by the radial kernel, both read from one model lookup."""
    geometry = models.geometry_equations(prob.n, prob.p)
    radial = solver._radial_equations(prob, model)[1]

    def rhs(r, y):
        th, lJ, u, v = y
        L, s = model._state(r)
        return [*geometry(th, lJ, s), *radial((prob.n - 1) * L, u, v)]

    return rhs


def construct(n, p, q, alpha, stages, blend_width=0.5, rate_scale=2.0,
              stage_cap_factor=50.0, scan_points=4000):
    """Run the staged construction; returns (model, solution, certificate).

    `stages` counts fired triggers and must be an even number >= 4 so the
    certificate ends with both bands populated. rate_scale = 0 would ask
    the exponential stages to glue onto a flat slope target, which no
    convex continuation can do, and is refused.
    """
    prob = solver.Problem(n, p, q, alpha)
    if stages < 4 or stages % 2 != 0:
        raise InvalidParameter("need an even number of stages >= 4")
    if rate_scale <= 0.0:
        raise ConvexityViolation(
            "exponential stages need a positive slope-ratio target; a flat "
            "(all power-like) plan cannot produce the upper band"
        )
    t_low, t_high = thresholds(n, p, q)
    ex = (p - 1.0) / (q + 1.0 - p)

    model = models.as_glued(models.Euclidean())
    # series start for the augmented state (log Theta, log J, u, log(-w))
    r_start = 1e-6
    u0, w0 = solver.series_startup(prob, model, r_start)
    y = [*models.geometry_start(r_start, n, p), u0, math.log(-w0)]
    r_here = r_start

    stage_log = []
    for s_idx in range(stages):
        plan = StagePlan(s_idx, n, p, q, blend_width, rate_scale)
        cap = _stage_budget(plan, n, p, q, math.exp(y[1]), r_here,
                            stage_cap_factor)
        r_stop = r_here + cap
        if isinstance(model, models.Glued) and r_stop > model.valid_to:
            raise InvalidParameter("stage horizon exceeds glued model range")
        sol = solve_ivp(_augmented_rhs(prob, model),
                        (r_here, r_stop), y, method="LSODA",
                        rtol=1e-10, atol=1e-12, dense_output=True)
        if not sol.success:
            raise TriggerTimeout(
                f"stage {s_idx} integration failed at r={sol.t[-1]:g}"
            )
        scan_lo = max(r_here + 1.0, r_start + 1.0)
        grid = np.linspace(scan_lo, r_stop, scan_points)
        th_g, lJ_g, u_g, _ = sol.sol(grid)
        Q_g = np.exp(ex * lJ_g) * u_g
        lpsi_g = model.log_psi(grid)
        hits = [i for i in range(len(grid))
                if plan.fires(grid[i], Q_g[i], u_g[i], lpsi_g[i])]
        if not hits:
            raise TriggerTimeout(
                f"stage {s_idx} ({plan.kind}) trigger not reached by "
                f"r={r_stop:.3g}; last Q={Q_g[-1]:.5f}, u={u_g[-1]:.3g}"
            )
        i0 = hits[0]
        r_next = float(grid[i0])
        y = [float(v) for v in sol.sol(r_next)]
        stage_log.append({
            "index": s_idx,
            "kind": plan.kind,
            "r": r_next,
            "Q": float(Q_g[i0]),
            "u": float(u_g[i0]),
            "log_psi": float(lpsi_g[i0]),
            "threshold": plan.t_low if s_idx % 2 == 0 else plan.t_high,
        })
        r_here = r_next
        if s_idx + 1 < stages:
            nxt = StagePlan(s_idx + 1, n, p, q, blend_width, rate_scale)
            end = r_next + _stage_budget(nxt, n, p, q, math.exp(y[1]),
                                         r_next, stage_cap_factor) + 10.0
            model = models.as_glued(model).extended(
                nxt.curvature(r_next), r_next, end,
                meta_update={"stage": s_idx + 1, "kind": nxt.kind,
                             "rate": nxt.rate, "join": r_next},
            )

    cert = OscillationCertificate(n, p, q, alpha, t_low, t_high, stage_log)
    final_sol = solver.integrate(prob, model,
                                 solver.SolverConfig(r_max=r_here))
    return model, final_sol, cert


def verify_certificate(cert, sol, profile, rel_tol=2e-3):
    """Recompute every logged trigger from the solution and geometry.

    Checks: Q values match within rel_tol; parity conditions hold at each
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
        if abs(Q_re - entry["Q"]) > rel_tol * entry["Q"]:
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
