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

from . import runio
from .diagnostics import unit_ball_volume
from .models import InvalidParameter, descriptor_string, safe_horizon


# a sweep row whose halved-grid error bar is this share of its quotient or
# more, or not finite, is unresolved and flagged
_UNRESOLVED = 1e-3
# the least grid whose halved grid (num // 2 points) carries Simpson's rule
_MIN_NUM = 6


class TailDivergence(Exception):
    """Truncated norm integrals overflow or fail to converge."""


def _basic_simpson(y, h, stop):
    """Composite Simpson's rule for samples y spaced by h = diff(x) > 0 over
    the intervals [x_2k, x_2k+2] up to index stop, each parabola through
    its three points with unequal spacings h0, h1."""
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                        + y[1:stop + 1:2] * (hsum * (hsum / hprod))
                        + y[2:stop + 2:2] * (2.0 - h0divh1))
    return np.sum(tmp)


def _simpson(y, x):
    """The integral of samples y at strictly increasing x (1-D, at least 3
    points) by scipy.integrate.simpson's rule, in its operations and their
    order, so the value is simpson(y, x=x)'s to the bit.

    For an odd number N of points it is the composite rule over all
    intervals in pairs. For even N the pairs end one interval short, and the
    last interval [x_N-2, x_N-1] is integrated by the parabola through the
    last three points (Cartwright's correction, in the form of scipy's
    source): alpha y_N-1 + beta y_N-2 - eta y_N-3.
    """
    N, h = len(y), np.diff(x)
    if N % 2:
        return _basic_simpson(y, h, N - 2)
    result = _basic_simpson(y, h, N - 3)
    h0, h1 = h[-2:-1].squeeze(), h[-1:].squeeze()
    alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
    eta = h1 ** 3 / (6 * h0 * (h0 + h1))
    result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


class AubinTalenti:
    """The explicit Euclidean extremal profile a (b + r^{p/(p-1)})^{-(n-p)/p}."""

    def __init__(self, n, p, a=1.0, b=1.0):
        if not (2 <= n < math.inf) or int(n) != n or not (1.0 < p < n):
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
    overflow. Refuses (InvalidParameter) an R0 that is not positive and
    finite."""
    if not (0 < R0 < math.inf):
        raise InvalidParameter(f"R0 must be positive and finite, got {R0}")
    return min(R0 * b ** ((p - 1.0) / p), safe_horizon(model, n))


def sobolev_quotient(f, df, model, n, p, R, num=4000):
    """Rayleigh quotient ||grad(f eta)||_p / ||f eta||_{p*} on the model.

    f, df: radial profile and derivative (callables); eta is the C^1
    cutoff supported in [0, R]. Both norms use the radial volume element
    n omega_n psi^{n-1} dr. Error bars come from halving the quadrature
    grid; the tail estimate records the outer-half share of the
    denominator mass. Refuses (InvalidParameter) a num below _MIN_NUM,
    whose halved grid has fewer than the 3 points of Simpson's rule.
    """
    if not num >= _MIN_NUM:
        raise InvalidParameter(
            f"num must be at least {_MIN_NUM}, so that the halved grid has the "
            f"3 points of Simpson's rule; got {num}")
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
        num_int = _simpson(grad * weight * r, t)
        den_int = _simpson(den * weight * r, t)
        outer = r >= R / 2.0
        outer_share = _simpson(np.where(outer, den * weight * r, 0.0), t)
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


def _unresolved(rep):
    """Whether a quotient's error bar leaves it unresolved (_UNRESOLVED)."""
    return not rep["err"] < _UNRESOLVED * rep["quotient"]


_euclid_reference_cache = {}


def euclidean_reference(n, p, R0=20.0, num=4000):
    """Euclidean quotient of the extremal family, computed once and cached,
    flagged where its error bar leaves it unresolved (_unresolved).

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
        ref = sobolev_quotient(prof.u, prof.du, eu, n, p, R, num=num)
        ref["flagged"] = _unresolved(ref)
        _euclid_reference_cache[key] = ref
    return _euclid_reference_cache[key]


def concentration_sweep(model, n, p, b_seq, R0=20.0, num=4000):
    """Quotients of the concentrating family b -> 0 on one model.

    Returns the swept rows plus the Euclidean reference; flagged are rows
    at or below it (on a curved model a numerics bug), rows with over half
    their L^{p*} mass beyond R/2 (they measure the cutoff) and unresolved
    rows (_unresolved), as the reference is by the last rule. R0 and num
    are checked by truncation_radius and sobolev_quotient.
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
            or _unresolved(rep)
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
