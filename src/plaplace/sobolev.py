"""Sobolev quotients of concentrating radial profiles on model manifolds.

The optimizing Euclidean profile (b + r^{p/(p-1)})^{-(n-p)/p} is evaluated
in closed form and transplanted radially onto arbitrary models, where its
Rayleigh quotient ||grad f||_p / ||f||_{p*} is computed on the fitted 8-node
rule (quadrature.fitted_rule), the rule of every e^{G} integral. On
any geometry that is not flat the quotient stays strictly above the
Euclidean value and approaches it as the profile concentrates (b -> 0) --
the numerical shadow of non-attainment of the sharp constant.
"""

import math

import numpy as np

from . import models, quadrature, runio
from .diagnostics import unit_ball_volume
from .models import InvalidParameter, _check_n_p, descriptor_string, make_model, safe_horizon


# a sweep row whose halved-layout error bar is this share of its quotient or
# more, or not finite, is unresolved and flagged
_UNRESOLVED = 1e-3
_R0 = 20.0  # the cutoff radius at scale b is _R0 b^{(p-1)/p} (truncation_radius)
# geometric panels per decade of the norms' layout over [1e-9 R, R], before
# the cuts that keep G's growth across a panel at most 1
_PANELS_PER_DECADE = 20


class TailDivergence(models.SolverError):
    """Truncated norm integrals overflow or fail to converge."""


class AubinTalenti:
    """The explicit Euclidean extremal profile (b + r^{p/(p-1)})^{-(n-p)/p}."""

    def __init__(self, n, p, b=1.0):
        _check_n_p(n, p)
        if not (0 < b < math.inf):
            raise InvalidParameter("need a finite scale b > 0")
        self.n = int(n)
        self.p = float(p)
        self.b = float(b)
        self.s = p / (p - 1.0)          # exponent of r inside
        self.m = (n - p) / p            # outer decay exponent

    def u(self, r):
        r = np.asarray(r, dtype=float)
        return (self.b + r ** self.s) ** (-self.m)

    def du(self, r):
        r = np.asarray(r, dtype=float)
        return (-self.m * self.s * r ** (self.s - 1.0)
                * (self.b + r ** self.s) ** (-self.m - 1.0))


def _cutoff(r, R):
    """C^1 cutoff: 1 on [0, R/2], smooth cubic descent to 0 at R."""
    x = np.clip((np.asarray(r, dtype=float) - R / 2.0) / (R / 2.0), 0.0, 1.0)
    eta = 1.0 - x * x * (3.0 - 2.0 * x)
    deta = -6.0 * x * (1.0 - x) / (R / 2.0)
    return eta, deta


def truncation_radius(model, n, p, b):
    """Support radius for the cutoff, _R0 b^{(p-1)/p}: scales with the
    profile so Euclidean quotients are exactly b-invariant, capped where
    psi^{n-1} would overflow."""
    return min(_R0 * b ** ((p - 1.0) / p), safe_horizon(model, n))


def sobolev_quotient(f, df, model, n, p, R):
    """Rayleigh quotient ||grad(f eta)||_p / ||f eta||_{p*} on the model.

    f, df: radial profile and derivative (callables); eta is the C^1
    cutoff supported in [0, R]. Both norms use the radial volume element
    n omega_n e^{G} dr, G = (n-1) log psi, and are integrated on
    quadrature.fitted_rule, fitted to e^{G}, with |grad(f eta)|^p and
    |f eta|^{p*} read at the same nodes. The panels are geometric in r
    over [1e-9 R, R] (_PANELS_PER_DECADE a decade) with an edge at
    R/2, where eta is only C^1, each cut until G grows by at most 1 across
    it. The error bar is the quotient's change on the halved layout, every
    other edge with R/2 and R kept; the tail estimate records the
    outer-half share of the denominator mass. Refuses (InvalidParameter)
    an R outside (0, model.valid_to] or not finite.
    """
    if not (0.0 < R <= model.valid_to and R < math.inf):
        raise InvalidParameter(
            f"cutoff radius R must be positive, finite and at most "
            f"{model.valid_to:g}, got {R}")
    vol = n * unit_ball_volume(n)
    p_star = n * p / (n - p)

    def G(r):
        return (n - 1) * np.asarray(model.log_psi(r), dtype=float)

    def norms(edges, G_edges):
        s, wt = quadrature.fitted_rule(edges[:-1], edges[1:], np.diff(G_edges))
        r = s.ravel()
        weight = vol * wt.ravel() * np.exp(G(r))
        eta, deta = _cutoff(r, R)
        fv = np.asarray(f(r), dtype=float)
        dfv = np.asarray(df(r), dtype=float)
        grad = weight * np.abs(dfv * eta + fv * deta) ** p
        den = weight * np.abs(fv * eta) ** p_star
        return grad.sum(), den.sum(), den[r >= R / 2.0].sum()

    # np.sort, not np.union1d, whose np.unique imports numpy.ma (20 ms)
    edges = np.geomspace(1e-9 * R, R, 9 * _PANELS_PER_DECADE + 1)
    edges = np.sort(np.append(edges, R / 2.0))
    # overflow to inf/nan here is the divergence signal, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        edges, G_edges = quadrature.unit_growth_edges(G, edges)
        halved = np.zeros(len(edges), dtype=bool)
        halved[::2] = True
        halved[[np.searchsorted(edges, R / 2.0), -1]] = True
        n2, d2, outer = norms(edges, G_edges)
        n1, d1, _ = norms(edges[halved], G_edges[halved])
    if not (np.isfinite(n2) and np.isfinite(d2) and d2 > 0.0 and n2 > 0.0):
        raise TailDivergence(
            f"norm integrals not representable at R={R:g} on {model.descriptor()}"
        )
    quot = n2 ** (1.0 / p) / d2 ** (1.0 / p_star)
    quot_coarse = n1 ** (1.0 / p) / d1 ** (1.0 / p_star)
    return {
        "quotient": float(quot),
        "err": abs(float(quot - quot_coarse)),
        "grad_norm_p": float(n2 ** (1.0 / p)),
        "lp_star_norm": float(d2 ** (1.0 / p_star)),
        "cutoff_radius": float(R),
        "outer_mass_fraction": float(outer / d2),
        "model": descriptor_string(model),
        "n": n,
        "p": p,
    }


def _unresolved(rep):
    """Whether a quotient's error bar leaves it unresolved (_UNRESOLVED)."""
    return not rep["err"] < _UNRESOLVED * rep["quotient"]


_euclid_reference_cache = {}


def euclidean_reference(n, p):
    """Euclidean quotient of the extremal family, computed once and cached,
    flagged where its error bar leaves it unresolved (_unresolved).

    By exact scale covariance of the truncation the value is independent
    of b; it is the yardstick every curved-model quotient is measured
    against (no literature constant is hardcoded).
    """
    key = (n, p)
    if key not in _euclid_reference_cache:
        eu = make_model("euclidean")
        prof = AubinTalenti(n, p)
        R = truncation_radius(eu, n, p, 1.0)
        ref = sobolev_quotient(prof.u, prof.du, eu, n, p, R)
        ref["flagged"] = _unresolved(ref)
        _euclid_reference_cache[key] = ref
    return _euclid_reference_cache[key]


def concentration_sweep(model, n, p, b_seq):
    """Quotients of the concentrating family b -> 0 on one model.

    Returns the swept rows plus the Euclidean reference; flagged are rows
    at or below it (on a curved model a numerics bug), rows with over half
    their L^{p*} mass beyond R/2 (they measure the cutoff) and unresolved
    rows (_unresolved), as the reference is by the last rule.
    """
    b_seq = list(b_seq)
    # inf > b_0 > b_1 > ... > 0, which a NaN fails
    if not all(a > b for a, b in zip([math.inf] + b_seq, b_seq + [0.0])):
        raise InvalidParameter("b sequence must be finite, positive, strictly decreasing")
    ref = euclidean_reference(n, p)
    rows = []
    for b in b_seq:
        prof = AubinTalenti(n, p, b=b)
        R = truncation_radius(model, n, p, b)
        rep = sobolev_quotient(prof.u, prof.du, model, n, p, R)
        rep["b"] = b
        rep["gap"] = rep["quotient"] - ref["quotient"]
        rep["flagged"] = bool(
            rep["outer_mass_fraction"] > 0.5
            or _unresolved(rep)
            or (rep["quotient"] <= ref["quotient"] and model.kind != "euclidean"))
        rows.append(rep)
    return {"rows": rows, "reference": ref}


def export_sweep_csv(sweep, path):
    """Write sweep rows as CSV: n,p,b,quotient,err,flagged (0 or 1). The
    model is the same for every row and is named in sweep.json."""
    rows = sweep["rows"]
    floats = ("p", "b", "quotient", "err")
    return runio.write_csv(
        path, ["n", *floats, "flagged"],
        [[int(row["n"]) for row in rows],
         *([float(row[k]) for row in rows] for k in floats),
         [int(row["flagged"]) for row in rows]])
