"""Sobolev quotients of concentrating radial profiles on model manifolds.

The optimizing Euclidean profile a (b + r^{p/(p-1)})^{-(n-p)/p} is evaluated
in closed form and transplanted radially onto arbitrary models, where its
Rayleigh quotient ||grad f||_p / ||f||_{p*} is computed by quadrature. On
any geometry that is not flat the quotient stays strictly above the
Euclidean value and approaches it as the profile concentrates (b -> 0) --
the numerical shadow of non-attainment of the sharp constant.
"""

import math

import numpy as np
from scipy.integrate import simpson

from . import runio
from .diagnostics import unit_ball_volume
from .models import InvalidParameter, descriptor_string, safe_horizon


# a sweep row whose halved-grid error bar is this share of its quotient or
# more is unresolved and flagged
_UNRESOLVED = 1e-3


class TailDivergence(Exception):
    """Truncated norm integrals overflow or fail to converge."""


class AubinTalenti:
    """The explicit Euclidean extremal profile a (b + r^{p/(p-1)})^{-(n-p)/p}."""

    def __init__(self, n, p, a=1.0, b=1.0):
        if int(n) != n or n < 2 or not (1.0 < p < n):
            raise InvalidParameter(f"need integer n >= 2 and p in (1, n)")
        if a == 0 or not (0 < b < math.inf):
            raise InvalidParameter("need amplitude a != 0 and finite scale b > 0")
        self.n = int(n)
        self.p = float(p)
        self.a = float(a)
        self.b = float(b)
        self.s = p / (p - 1.0)          # exponent of r inside
        self.m = (n - p) / p            # outer decay exponent

    def u(self, r):
        r = np.asarray(r, dtype=float)
        return self.a * (self.b + r ** self.s) ** (-self.m)

    def du(self, r):
        r = np.asarray(r, dtype=float)
        return (-self.a * self.m * self.s * r ** (self.s - 1.0)
                * (self.b + r ** self.s) ** (-self.m - 1.0))


def _cutoff(r, R):
    """C^1 cutoff: 1 on [0, R/2], smooth cubic descent to 0 at R."""
    x = np.clip((np.asarray(r, dtype=float) - R / 2.0) / (R / 2.0), 0.0, 1.0)
    eta = 1.0 - x * x * (3.0 - 2.0 * x)
    deta = -6.0 * x * (1.0 - x) / (R / 2.0)
    return eta, deta


def truncation_radius(model, n, p, b, R0=20.0):
    """Support radius for the cutoff: scales with the profile so Euclidean
    quotients are exactly b-invariant, capped where psi^{n-1} would
    overflow."""
    return min(R0 * b ** ((p - 1.0) / p), safe_horizon(model, n))


def sobolev_quotient(f, df, model, n, p, R, num=4000):
    """Rayleigh quotient ||grad(f eta)||_p / ||f eta||_{p*} on the model.

    f, df: radial profile and derivative (callables); eta is the C^1
    cutoff supported in [0, R]. Both norms use the radial volume element
    n omega_n psi^{n-1} dr. Error bars come from halving the quadrature
    grid; the tail estimate records the outer-half share of the
    denominator mass.
    """
    vol = n * unit_ball_volume(n)
    p_star = n * p / (n - p)

    def norms(npts):
        t = np.linspace(math.log(R * 1e-9), math.log(R), npts)
        r = np.exp(t)
        eta, deta = _cutoff(r, R)
        fv = np.asarray(f(r), dtype=float)
        dfv = np.asarray(df(r), dtype=float)
        weight = vol * np.exp((n - 1) * np.asarray(model.log_psi(r),
                                                   dtype=float))
        grad = np.abs(dfv * eta + fv * deta) ** p
        den = np.abs(fv * eta) ** p_star
        # integrate in t = log r (extra factor r from the substitution)
        num_int = simpson(grad * weight * r, x=t)
        den_int = simpson(den * weight * r, x=t)
        outer = r >= R / 2.0
        outer_share = simpson(np.where(outer, den * weight * r, 0.0), x=t)
        return num_int, den_int, outer_share

    # overflow to inf/nan here is the divergence signal, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        n2, d2, outer = norms(num)
        n1, d1, _ = norms(num // 2)
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


_euclid_reference_cache = {}


def euclidean_reference(n, p, R0=20.0, num=4000):
    """Euclidean quotient of the extremal family, computed once and cached.

    By exact scale covariance of the truncation the value is independent
    of b; it is the yardstick every curved-model quotient is measured
    against (no literature constant is hardcoded).
    """
    from .models import make_model

    key = (n, p, R0, num)
    if key not in _euclid_reference_cache:
        eu = make_model("euclidean")
        prof = AubinTalenti(n, p, a=1.0, b=1.0)
        R = truncation_radius(eu, n, p, 1.0, R0)
        _euclid_reference_cache[key] = sobolev_quotient(
            prof.u, prof.du, eu, n, p, R, num=num)
    return _euclid_reference_cache[key]


def concentration_sweep(model, n, p, b_seq, R0=20.0, num=4000):
    """Quotients of the concentrating family b -> 0 on one model.

    Returns the swept rows plus the Euclidean reference; flagged are rows
    at or below it (on a curved model a numerics bug), rows with over half
    their L^{p*} mass beyond R/2 (they measure the cutoff) and rows whose
    halved-grid error bar is _UNRESOLVED or more of the quotient.
    """
    b_seq = list(b_seq)
    # inf > b_0 > b_1 > ... > 0, which a NaN fails
    if not all(a > b for a, b in zip([math.inf] + b_seq, b_seq + [0.0])):
        raise InvalidParameter("b sequence must be finite, positive, strictly decreasing")
    ref = euclidean_reference(n, p, R0, num)
    rows = []
    for b in b_seq:
        prof = AubinTalenti(n, p, a=1.0, b=b)
        R = truncation_radius(model, n, p, b, R0)
        rep = sobolev_quotient(prof.u, prof.du, model, n, p, R, num=num)
        rep["b"] = b
        rep["gap"] = rep["quotient"] - ref["quotient"]
        rep["flagged"] = bool(
            rep["outer_mass_fraction"] > 0.5
            or rep["err"] >= _UNRESOLVED * rep["quotient"]
            or (rep["quotient"] <= ref["quotient"] and model.kind != "euclidean"))
        rows.append(rep)
    return {"rows": rows, "reference": ref}


def export_sweep_csv(sweep, path):
    """Write sweep rows as CSV: model,n,p,b,quotient,err,flagged (0 or 1)."""
    rows = sweep["rows"]
    floats = ("p", "b", "quotient", "err")
    return runio.write_csv(
        path, ["model", "n", *floats, "flagged"],
        [[row["model"] for row in rows], [int(row["n"]) for row in rows],
         *([float(row[k]) for row in rows] for k in floats),
         [int(row["flagged"]) for row in rows]])
