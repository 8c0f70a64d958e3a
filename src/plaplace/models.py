"""Cartan-Hadamard model functions and their derived geometry.

A model manifold carries the metric dr^2 + psi(r)^2 g_{S^{n-1}} about a pole,
where psi(0) = 0, psi'(0) = 1 and psi is convex (nonpositive curvature).
This module provides the catalog of closed-form model functions, convex C^2
gluing, the volume-surface ratio Theta and its primitives, and the
completeness classification that decides whether radial solutions decay to
zero or plateau at a positive constant.

All quantities that can overflow for fast-growing psi (psi^(n-1) reaches
1e308 very quickly for exponential-power models) are handled in log space:
each model exposes log_psi and the slope ratio psi'/psi in closed form, and
the geometry integrals are propagated as ODEs for log Theta and log J.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp


class InvalidParameter(ValueError):
    """Model descriptor parameter outside its admissible range."""


class ConvexityViolation(RuntimeError):
    """A candidate model function fails psi'' >= 0 on the audit grid."""


class QuadratureFailure(RuntimeError):
    """Geometry quadrature did not reach its error target."""


class GeometryOverflow(RuntimeError):
    """psi^(n-1) leaves the representable range before the requested horizon."""


class AmbiguousRegime(RuntimeError):
    """No asymptotic growth regime could be fitted at the horizon."""


# Exponent ceiling used before exp() to keep intermediate floats finite.
_EXP_CAP = 700.0


def _smoothstep(x):
    """C^1 monotone ramp: 0 for x<=0, 1 for x>=1, 3x^2-2x^3 between."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


class ModelFunction:
    """Base class: evaluable psi with derivatives and log-space accessors.

    Subclasses implement psi, dpsi, ddpsi, log_psi and slope_ratio as numpy
    ufunc-compatible functions of r >= 0. Instances are immutable and safe
    to share across threads.
    """

    kind = "abstract"
    valid_to = math.inf

    def psi(self, r):
        raise NotImplementedError

    def dpsi(self, r):
        raise NotImplementedError

    def ddpsi(self, r):
        raise NotImplementedError

    def log_psi(self, r):
        """log psi(r), finite wherever psi(r) > 0 even if psi overflows."""
        raise NotImplementedError

    def slope_ratio(self, r):
        """psi'(r)/psi(r) in closed form (no overflow)."""
        raise NotImplementedError

    def curvature_ratio(self, r):
        """psi''(r)/psi(r); subclasses override when the naive ratio overflows."""
        r = np.asarray(r, dtype=float)
        return self.ddpsi(r) / self.psi(r)

    def eval(self, r):
        """Return (psi, psi', psi'') at r."""
        return self.psi(r), self.dpsi(r), self.ddpsi(r)

    def params(self):
        return {}

    def joins(self):
        """Radii where psi changes formula; smooth everywhere by default."""
        return ()

    def descriptor(self):
        """JSON-serializable {kind, params} descriptor."""
        return {"kind": self.kind, "params": self.params()}

    def to_json(self):
        return json.dumps(self.descriptor(), sort_keys=True)

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({ps})"


class Euclidean(ModelFunction):
    """psi(r) = r: flat space."""

    kind = "euclidean"

    def psi(self, r):
        return np.asarray(r, dtype=float)

    def dpsi(self, r):
        return np.ones_like(np.asarray(r, dtype=float))

    def ddpsi(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def log_psi(self, r):
        return np.log(np.asarray(r, dtype=float))

    def slope_ratio(self, r):
        return 1.0 / np.asarray(r, dtype=float)

    def curvature_ratio(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))


class Hyperbolic(ModelFunction):
    """psi(r) = sinh r: constant curvature -1."""

    kind = "hyperbolic"

    def psi(self, r):
        return np.sinh(np.asarray(r, dtype=float))

    def dpsi(self, r):
        return np.cosh(np.asarray(r, dtype=float))

    def ddpsi(self, r):
        return np.sinh(np.asarray(r, dtype=float))

    def log_psi(self, r):
        r = np.asarray(r, dtype=float)
        # log sinh r = r + log(1 - e^{-2r}) - log 2, stable for all r > 0
        with np.errstate(divide="ignore"):
            return r + np.log1p(-np.exp(-2.0 * r)) - math.log(2.0)

    def slope_ratio(self, r):
        return 1.0 / np.tanh(np.asarray(r, dtype=float))

    def curvature_ratio(self, r):
        return np.ones_like(np.asarray(r, dtype=float))


class ExpPower(ModelFunction):
    """psi(r) = r * exp(c r^m): super-exponential growth, c > 0, integer m >= 2."""

    kind = "exppower"

    def __init__(self, c, m):
        if not (c > 0):
            raise InvalidParameter(f"exppower requires c > 0, got c={c}")
        if int(m) != m or m < 2:
            raise InvalidParameter(f"exppower requires integer m >= 2, got m={m}")
        self.c = float(c)
        self.m = int(m)

    def params(self):
        return {"c": self.c, "m": self.m}

    def psi(self, r):
        r = np.asarray(r, dtype=float)
        return r * np.exp(np.minimum(self.c * r**self.m, _EXP_CAP))

    def dpsi(self, r):
        r = np.asarray(r, dtype=float)
        e = np.exp(np.minimum(self.c * r**self.m, _EXP_CAP))
        return e * (1.0 + self.c * self.m * r**self.m)

    def ddpsi(self, r):
        r = np.asarray(r, dtype=float)
        c, m = self.c, self.m
        e = np.exp(np.minimum(c * r**m, _EXP_CAP))
        return e * c * m * r ** (m - 1) * (1.0 + m + c * m * r**m)

    def log_psi(self, r):
        r = np.asarray(r, dtype=float)
        return np.log(r) + self.c * r**self.m

    def slope_ratio(self, r):
        r = np.asarray(r, dtype=float)
        return 1.0 / r + self.c * self.m * r ** (self.m - 1)

    def curvature_ratio(self, r):
        r = np.asarray(r, dtype=float)
        c, m = self.c, self.m
        return c * m * r ** (m - 2) * (1.0 + m + c * m * r**m)


class PowerLike(ModelFunction):
    """psi(r) = r (1+r^2)^((k-1)/2): polynomial growth of degree k >= 1."""

    kind = "powerlike"

    def __init__(self, k):
        if not (k >= 1):
            raise InvalidParameter(f"powerlike requires k >= 1, got k={k}")
        self.k = float(k)

    def params(self):
        return {"k": self.k}

    def psi(self, r):
        r = np.asarray(r, dtype=float)
        b = (self.k - 1.0) / 2.0
        return r * (1.0 + r * r) ** b

    def dpsi(self, r):
        r = np.asarray(r, dtype=float)
        b = (self.k - 1.0) / 2.0
        return (1.0 + r * r) ** (b - 1.0) * (1.0 + self.k * r * r)

    def ddpsi(self, r):
        r = np.asarray(r, dtype=float)
        k = self.k
        b = (k - 1.0) / 2.0
        return (
            2.0
            * r
            * (1.0 + r * r) ** (b - 2.0)
            * ((b - 1.0 + k) + k * b * r * r)
        )

    def log_psi(self, r):
        r = np.asarray(r, dtype=float)
        return np.log(r) + 0.5 * (self.k - 1.0) * np.log1p(r * r)

    def slope_ratio(self, r):
        r = np.asarray(r, dtype=float)
        return 1.0 / r + (self.k - 1.0) * r / (1.0 + r * r)

    def curvature_ratio(self, r):
        r = np.asarray(r, dtype=float)
        k = self.k
        b = (k - 1.0) / 2.0
        return 2.0 * (1.0 + r * r) ** (-2.0) * ((b - 1.0 + k) + k * b * r * r)


class ExpGamma(ModelFunction):
    """psi(r) = r exp(c ((1+r^2)^((1-g)/2) - 1)): stretched-exponential growth.

    Smooth global realization of psi ~ e^{c r^(1-g)} at infinity, with
    psi(0) = 0 and psi'(0) = 1; c > 0, g in (0,1).
    """

    kind = "expgamma"

    def __init__(self, c, gamma):
        if not (c > 0):
            raise InvalidParameter(f"expgamma requires c > 0, got c={c}")
        if not (0.0 < gamma < 1.0):
            raise InvalidParameter(f"expgamma requires gamma in (0,1), got {gamma}")
        self.c = float(c)
        self.gamma = float(gamma)

    def params(self):
        return {"c": self.c, "gamma": self.gamma}

    def _phi(self, r):
        nu = (1.0 - self.gamma) / 2.0
        return self.c * ((1.0 + r * r) ** nu - 1.0)

    def _dphi(self, r):
        nu = (1.0 - self.gamma) / 2.0
        return 2.0 * self.c * nu * r * (1.0 + r * r) ** (nu - 1.0)

    def _ddphi(self, r):
        nu = (1.0 - self.gamma) / 2.0
        return (
            2.0 * self.c * nu * (1.0 + r * r) ** (nu - 2.0)
            * (1.0 + (2.0 * nu - 1.0) * r * r)
        )

    def psi(self, r):
        r = np.asarray(r, dtype=float)
        return r * np.exp(np.minimum(self._phi(r), _EXP_CAP))

    def dpsi(self, r):
        r = np.asarray(r, dtype=float)
        return np.exp(np.minimum(self._phi(r), _EXP_CAP)) * (1.0 + r * self._dphi(r))

    def ddpsi(self, r):
        r = np.asarray(r, dtype=float)
        dp, ddp = self._dphi(r), self._ddphi(r)
        return np.exp(np.minimum(self._phi(r), _EXP_CAP)) * (
            2.0 * dp + r * dp * dp + r * ddp
        )

    def log_psi(self, r):
        r = np.asarray(r, dtype=float)
        return np.log(r) + self._phi(r)

    def slope_ratio(self, r):
        r = np.asarray(r, dtype=float)
        return 1.0 / r + self._dphi(r)

    def curvature_ratio(self, r):
        r = np.asarray(r, dtype=float)
        dp, ddp = self._dphi(r), self._ddphi(r)
        return (2.0 * dp + r * dp * dp + r * ddp) / r


@dataclass(frozen=True)
class _Segment:
    """One continuation segment of a glued model: psi'' = m(r) psi on [start, end]."""

    start: float
    end: float
    m_fun: object  # callable r -> psi''/psi >= 0
    dense: object  # solve_ivp dense output for (log psi, psi'/psi)


class Glued(ModelFunction):
    """Convex C^2 model built from a base piece plus curvature continuations.

    Each continuation prescribes a nonnegative curvature ratio m(r) and
    integrates psi'' = m psi forward (as log psi and psi'/psi, so values
    never overflow); convexity holds structurally, and psi, psi' are
    continuous at every join by construction.
    """

    kind = "glued"

    def __init__(self, base, segments, meta=None):
        self.base = base
        self.segments = tuple(segments)
        self.meta = dict(meta or {})
        self.valid_to = self.segments[-1].end if self.segments else base.valid_to
        self._joins = [seg.start for seg in self.segments]

    def params(self):
        return {
            "base": self.base.descriptor(),
            "joins": list(self._joins),
            "meta": self.meta,
        }

    def joins(self):
        return tuple(self._joins)

    def _segment_for(self, r):
        """The last segment starting at or before scalar r, or None (base)."""
        k = bisect.bisect_right(self._joins, r) - 1
        return self.segments[k] if k >= 0 else None

    def _state(self, r):
        """(log psi, psi'/psi) at r; radii past a segment's end read its end.

        Cost model: a scalar r costs one bisect on the join radii plus one
        scalar dense-output lookup and comes back as two Python floats. An
        array r costs one searchsorted plus one dense-output call per segment
        its points fall in (one base-model call for the points below the
        first join); both results keep the shape of r.
        """
        if np.ndim(r) == 0:
            r = float(r)
            seg = self._segment_for(r)
            if seg is None:
                return float(self.base.log_psi(r)), float(self.base.slope_ratio(r))
            L, s = seg.dense(min(r, seg.end))
            return float(L), float(s)
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        L, s = np.empty_like(flat), np.empty_like(flat)
        idx = np.searchsorted(self._joins, flat, side="right") - 1
        for k in np.unique(idx):
            pick = idx == k
            x = flat[pick]
            if k < 0:
                L[pick], s[pick] = self.base.log_psi(x), self.base.slope_ratio(x)
            else:
                seg = self.segments[k]
                L[pick], s[pick] = seg.dense(np.minimum(x, seg.end))
        return L.reshape(r.shape), s.reshape(r.shape)

    def log_psi(self, r):
        return self._state(r)[0]

    def slope_ratio(self, r):
        return self._state(r)[1]

    def psi(self, r):
        return np.exp(np.minimum(self.log_psi(r), _EXP_CAP))

    def dpsi(self, r):
        return self.slope_ratio(r) * self.psi(r)

    def ddpsi(self, r):
        return self.curvature_ratio(r) * self.psi(r)

    def curvature_ratio(self, r):
        def one(x):
            seg = self._segment_for(x)
            if seg is None:
                return float(self.base.curvature_ratio(x))
            return float(seg.m_fun(min(x, seg.end)))

        if np.ndim(r) == 0:
            return one(float(r))
        r = np.asarray(r, dtype=float)
        return np.array([one(x) for x in r.ravel()], dtype=float).reshape(r.shape)

    def extended(self, m_fun, start, end, meta_update=None):
        """New Glued model equal to self on [0, start], with psi''/psi = m_fun beyond.

        The prefix (base and earlier segments) is shared, so evaluations below
        `start` are bit-identical to the parent model's.
        """
        if start < (self.segments[-1].start if self.segments else 0.0):
            raise InvalidParameter("continuation must start after the last join")
        m0 = float(m_fun(start))
        if m0 < 0:
            raise ConvexityViolation(
                f"curvature ratio {m0:.3e} < 0 at join r={start:.6g}"
            )
        L0, s0 = self._state(start)

        def rhs(r, y):
            m = m_fun(r)
            if m < 0:
                raise ConvexityViolation(
                    f"curvature ratio {m:.3e} < 0 at r={r:.6g}"
                )
            return [y[1], m - y[1] * y[1]]

        sol = solve_ivp(
            rhs,
            (start, end),
            [L0, s0],
            method="LSODA",
            rtol=1e-11,
            atol=1e-12,
            dense_output=True,
        )
        if not sol.success:
            raise QuadratureFailure(f"continuation integration failed: {sol.message}")
        seg = _Segment(start=start, end=end, m_fun=m_fun, dense=sol.sol)
        meta = dict(self.meta)
        if meta_update:
            meta.update(meta_update)
        return Glued(self.base, self.segments + (seg,), meta)


def as_glued(model):
    """Wrap a plain catalog model as a Glued with no segments."""
    if isinstance(model, Glued):
        return model
    return Glued(model, ())


_KINDS = {
    "euclidean": lambda p: Euclidean(),
    "hyperbolic": lambda p: Hyperbolic(),
    "exppower": lambda p: ExpPower(p["c"], p["m"]),
    "powerlike": lambda p: PowerLike(p["k"]),
    "expgamma": lambda p: ExpGamma(p["c"], p["gamma"]),
}


def descriptor_string(model):
    """Compact parseable form of a catalog model: kind or kind:a=1,b=2.

    Inverse of parse_descriptor for the plain catalog kinds; glued models
    (whose params are structural) reduce to the bare kind name.
    """
    params = model.params()
    if model.kind == "glued" or not params:
        return model.kind
    body = ",".join(f"{k}={float(v):g}" for k, v in sorted(params.items()))
    return f"{model.kind}:{body}"


def parse_descriptor(text):
    """Parse 'kind' or 'kind:a=1,b=2' strings into a {kind, params} descriptor."""
    if ":" in text:
        kind, rest = text.split(":", 1)
        params = {}
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise InvalidParameter(f"malformed model parameter {item!r}")
            params[key.strip()] = float(val)
    else:
        kind, params = text, {}
    return {"kind": kind.strip().lower(), "params": params}


def make_model(descriptor, audit=True):
    """Build a catalog ModelFunction from a descriptor (dict or CLI string).

    The returned model has passed the structural audit: psi(0)=0, psi'(0)=1
    against the short series, psi'' >= 0, psi' >= 1 and psi >= r on a
    log-spaced grid.
    """
    if isinstance(descriptor, str):
        descriptor = parse_descriptor(descriptor)
    kind = descriptor["kind"]
    params = descriptor.get("params", {})
    if kind not in _KINDS:
        raise InvalidParameter(f"unknown model kind {kind!r}")
    try:
        model = _KINDS[kind](params)
    except KeyError as exc:
        raise InvalidParameter(f"missing parameter {exc} for kind {kind!r}") from exc
    if audit:
        audit_model(model)
    return model


def audit_model(model, horizon=None, points_per_decade=64):
    """Check the structural invariants of a model function on a log grid.

    Raises ConvexityViolation or InvalidParameter on failure; returns the
    audit radii on success.
    """
    if horizon is None:
        horizon = min(model.valid_to, 1e3)
    decades = math.log10(horizon) - (-6)
    npts = max(16, int(points_per_decade * decades))
    r = np.geomspace(1e-6, horizon * (1 - 1e-12), npts)
    with np.errstate(over="ignore"):
        psi, dpsi, ddpsi = model.eval(r)

    r0 = 1e-8
    p0, d0, _ = model.eval(r0)
    if abs(p0 / r0 - 1.0) > 1e-5 or abs(d0 - 1.0) > 1e-5:
        raise InvalidParameter(
            f"{model!r} violates psi(0)=0, psi'(0)=1 (psi/r={p0 / r0:.6g}, "
            f"psi'={d0:.6g} at r={r0:g})"
        )
    scale = np.maximum(np.abs(psi), 1.0)
    if np.any(ddpsi < -1e-12 * scale):
        bad = r[np.argmin(ddpsi / scale)]
        raise ConvexityViolation(f"{model!r}: psi'' < 0 near r={bad:.6g}")
    finite = np.isfinite(psi)
    if np.any(dpsi[finite] < 1.0 - 1e-9):
        raise ConvexityViolation(f"{model!r}: psi' < 1 on audit grid")
    if np.any(psi[finite] < r[finite] * (1.0 - 1e-9)):
        raise ConvexityViolation(f"{model!r}: psi < r on audit grid")
    return r


def glue_models(pieces, blend_width, horizon=None):
    """Glue catalog models at increasing join radii into one convex C^2 model.

    ``pieces`` is a sequence of (ModelFunction, start_radius): each piece
    takes over at its start radius (the first entry's start is 0 and is
    ignored); a single piece returns the piece itself. The glued psi follows
    the first piece exactly up to the second piece's start, then integrates
    psi'' = m(r) psi where m blends between the consecutive pieces'
    curvature ratios over ``blend_width``.
    """
    if blend_width <= 0:
        raise InvalidParameter("blend width must be positive")
    models = [p[0] for p in pieces]
    joins = [float(p[1]) for p in pieces[1:]]
    if len(models) == 1:
        return models[0]
    if any(j <= 0 for j in joins) or any(b <= a for a, b in zip(joins, joins[1:])):
        raise InvalidParameter("join radii must be positive and strictly increasing")
    if horizon is None:
        horizon = 10.0 * joins[-1] + 100.0

    glued = as_glued(models[0])
    bounds = joins + [horizon]
    for idx in range(1, len(models)):
        prev, nxt = models[idx - 1], models[idx]
        join, end = joins[idx - 1], bounds[idx]
        w = blend_width

        def m_fun(r, prev=prev, nxt=nxt, join=join, w=w):
            s = _smoothstep((r - join) / w)
            return (1.0 - s) * float(prev.curvature_ratio(r)) + s * float(
                nxt.curvature_ratio(r)
            )

        glued = glued.extended(m_fun, join, end)
    return glued


# --------------------------------------------------------------------------
# Geometry profile: Theta, J and friends
# --------------------------------------------------------------------------


class GeometryProfile:
    """Cached geometry quadratures for one (model, n, p).

    Exposes Theta = I/psi^(n-1) (I = int_0^r psi^(n-1)), its primitive
    J = int_0^r Theta^(1/(p-1)), and the liminf quotient W/J with
    W = U/I, U = int_0^r Theta^(1/(p-1)) I ds.

    Values come from an ODE integration in t = log r up to the radius where
    the relaxation rate r (n-1) psi'/psi becomes large, and from a
    quasi-equilibrium expansion of Theta beyond it (the ODE there is too
    stiff for the requested accuracy, while the expansion error is
    O(rate^-2)). The tabulated range [r_lo, r_hi] extends far beyond the
    user horizon R so tail convergence of J is decided by direct quadrature.
    """

    def __init__(self, model, n, p, R, tol, r_lo, r_hi, r_switch, dense1, dense2):
        self.model = model
        self.n = int(n)
        self.p = float(p)
        self.R = float(R)
        self.tol = float(tol)
        self.r_lo = float(r_lo)
        self.r_hi = float(r_hi)
        self.r_switch = float(r_switch)
        self._dense1 = dense1  # t -> (log Theta, log J, log W) for r <= r_switch
        self._dense2 = dense2  # t -> (log J,) for r > r_switch, or None
        self.tail_converged = False
        self.J_inf = math.inf

    def _check_range(self, r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r < self.r_lo * (1 - 1e-9)) or np.any(r > self.r_hi * (1 + 1e-9)):
            raise GeometryOverflow(
                f"radius outside tabulated range [{self.r_lo:g}, {self.r_hi:g}]"
            )
        return np.clip(r, self.r_lo, self.r_hi)

    def _theta_qe(self, r, order=2):
        """Quasi-equilibrium Theta for radii beyond the ODE switch."""

        def it(rr, k):
            f = self.model.slope_ratio(rr)
            base = 1.0 / ((self.n - 1) * f)
            if k == 0:
                return base
            h = rr * 1e-3
            d = (it(rr + h, k - 1) - it(rr - h, k - 1)) / (2.0 * h)
            return (1.0 - d) / ((self.n - 1) * f)

        return it(r, order)

    def log_theta(self, r):
        rr = self._check_range(r)
        out = np.empty_like(rr)
        lo = rr <= self.r_switch
        if np.any(lo):
            out[lo] = self._dense1(np.log(rr[lo]))[0]
        if np.any(~lo):
            out[~lo] = np.log(self._theta_qe(rr[~lo]))
        shape = np.asarray(r).shape
        return out.reshape(shape) if shape else float(out[0])

    def theta(self, r):
        return np.exp(self.log_theta(r))

    def logI(self, r):
        lt = self.log_theta(r)
        return lt + (self.n - 1) * self.model.log_psi(r)

    def I(self, r):
        return np.exp(np.minimum(self.logI(r), _EXP_CAP))

    def logJ(self, r):
        rr = self._check_range(r)
        out = np.empty_like(rr)
        lo = rr <= self.r_switch
        if np.any(lo):
            out[lo] = self._dense1(np.log(rr[lo]))[1]
        if np.any(~lo):
            out[~lo] = self._dense2(np.log(rr[~lo]))[0]
        shape = np.asarray(r).shape
        return out.reshape(shape) if shape else float(out[0])

    def J(self, r):
        return np.exp(self.logJ(r))

    def tailJ(self, r):
        """int_r^inf Theta^(1/(p-1)); finite only when the tail converged."""
        if not self.tail_converged:
            raise QuadratureFailure(
                "tail of Theta^(1/(p-1)) did not converge at the extended horizon"
            )
        return self.J_inf - self.J(r)

    def hp_fail_proxy(self, r):
        """The liminf quotient deciding failure of the sharp decay law: W/J."""
        rr = self._check_range(r)
        logW = np.empty_like(rr)
        lo = rr <= self.r_switch
        if np.any(lo):
            logW[lo] = self._dense1(np.log(rr[lo]))[2]
        if np.any(~lo):
            # quasi-equilibrium W ~ g Theta - (g Theta)' Theta, g = Theta^mu
            mu = 1.0 / (self.p - 1.0)
            x = rr[~lo]
            h = x * 1e-3
            th = self._theta_qe(x)
            gth = th ** (mu + 1.0)
            dgth = (self._theta_qe(x + h) ** (mu + 1.0)
                    - self._theta_qe(x - h) ** (mu + 1.0)) / (2.0 * h)
            logW[~lo] = np.log(gth - dgth * th)
        out = np.exp(logW - self.logJ(np.clip(rr, self.r_lo, self.r_hi)))
        shape = np.asarray(r).shape
        return out.reshape(shape) if shape else float(out[0])

    def export_csv(self, path, num=400):
        """Write r, psi, dpsi, ddpsi, I, theta, J rows up to the user horizon."""
        r = np.geomspace(max(self.r_lo * 10, self.R * 1e-6), self.R, num)
        psi, dpsi, ddpsi = self.model.eval(r)
        I = self.I(r)
        th = self.theta(r)
        J = self.J(r)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("r,psi,dpsi,ddpsi,I,theta,J\n")
            for row in zip(r, psi, dpsi, ddpsi, I, th, J):
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
        return path


def safe_horizon(model, n, margin=60.0):
    """Largest radius where psi^(n-1) (plus headroom) stays representable."""
    limit = (_EXP_CAP - margin) / max(n - 1, 1)

    lo, hi = 1.0, min(model.valid_to, 1e8)
    if model.log_psi(hi) <= limit:
        return hi
    while model.log_psi(lo) > limit:
        lo *= 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if model.log_psi(mid) > limit:
            hi = mid
        else:
            lo = mid
    return lo


def geometry_profile(model, n, p, R, tol=1e-9, extend_to=1e8):
    """Tabulate Theta, J (and the liminf proxy) for a model up to horizon R.

    The quadratures are propagated as ODEs in t = log r:

      Theta' = 1 - (n-1) (psi'/psi) Theta
      J'     = Theta^(1/(p-1))
      W'     = Theta^(1/(p-1)) - Theta^{-1} W      (W = U/I)

    integrated in log variables so that exponentially growing models never
    overflow. The range extends well past R (up to ``extend_to``) so the
    convergence of int^inf Theta^(1/(p-1)) is decided by direct quadrature.
    """
    if n < 2 or int(n) != n:
        raise InvalidParameter(f"dimension n must be an integer >= 2, got {n}")
    if not (1.0 < p < n):
        raise InvalidParameter(f"p must lie in (1, n), got p={p}")
    if R > model.valid_to:
        raise GeometryOverflow(
            f"horizon {R:g} exceeds the model's trusted range {model.valid_to:g}"
        )
    r_lo = 1e-8 * min(1.0, R)
    r_hi = min(extend_to, model.valid_to)
    if r_hi < R:
        r_hi = R
    mu = 1.0 / (p - 1.0)

    # Series initial data at r_lo where psi ~ r: Theta ~ r/n, J ~ c r^(1+mu).
    th0 = math.log(r_lo / n)
    logJ0 = (1.0 + mu) * math.log(r_lo) - mu * math.log(n) - math.log(1.0 + mu)
    logW0 = (1.0 + mu) * math.log(r_lo) - mu * math.log(n) - math.log(n + 1.0 + mu)

    # Stop the ODE once the relaxation rate r (n-1) psi'/psi gets large:
    # past that radius Theta hugs its quasi-equilibrium and the equation is
    # too stiff to meet rtol (roundoff in the rhs amplifies by the rate),
    # while the equilibrium expansion is accurate to O(rate^-2).
    rate_cap = 1e6
    grid = np.geomspace(max(r_lo, 1e-6), r_hi, 600)
    rates = grid * (n - 1) * np.asarray(model.slope_ratio(grid), dtype=float)
    stiff = np.nonzero(rates >= rate_cap)[0]
    r_switch = float(grid[stiff[0]]) if stiff.size else r_hi

    def rhs(t, y):
        r = math.exp(t)
        th, logJ, logW = y
        f = float(model.slope_ratio(r))
        dth = r * (math.exp(min(-th, _EXP_CAP)) - (n - 1) * f)
        g_log = th * mu  # log Theta^(1/(p-1))
        dlogJ = r * math.exp(min(g_log - logJ, _EXP_CAP))
        dlogW = r * (math.exp(min(g_log - logW, _EXP_CAP)) - math.exp(min(-th, _EXP_CAP)))
        return [dth, dlogJ, dlogW]

    sol = solve_ivp(
        rhs,
        (math.log(r_lo), math.log(r_switch)),
        [th0, logJ0, logW0],
        method="LSODA",
        rtol=tol,
        atol=1e-12,
        dense_output=True,
    )
    if not sol.success:
        raise QuadratureFailure(f"geometry quadrature failed: {sol.message}")

    prof = GeometryProfile(
        model=model,
        n=int(n),
        p=float(p),
        R=float(R),
        tol=float(tol),
        r_lo=r_lo,
        r_hi=r_hi,
        r_switch=r_switch,
        dense1=sol.sol,
        dense2=None,
    )
    if r_switch < r_hi:
        # Continue J alone with Theta from the equilibrium expansion; this
        # phase is not stiff because Theta is no longer a state variable.
        def rhs2(t, y):
            r = math.exp(t)
            g_log = mu * math.log(prof._theta_qe(np.asarray(r))[()])
            return [r * math.exp(min(g_log - y[0], _EXP_CAP))]

        sol2 = solve_ivp(
            rhs2,
            (math.log(r_switch), math.log(r_hi)),
            [float(sol.sol(math.log(r_switch))[1])],
            method="LSODA",
            rtol=tol,
            atol=1e-12,
            dense_output=True,
        )
        if not sol2.success:
            raise QuadratureFailure(f"geometry quadrature failed: {sol2.message}")
        prof._dense2 = sol2.sol
    # Tail convergence of J at the extended horizon.
    J_end = prof.J(r_hi)
    J_half = prof.J(r_hi / 2.0)
    if J_end - J_half < 1e-6 * J_end:
        prof.tail_converged = True
        prof.J_inf = J_end
    return prof


@dataclass
class RegimeTag:
    """Fitted asymptotic regime of psi'/psi at the horizon."""

    name: str  # 'hp-add-1', 'hp-add-2', 'power-like', 'unknown'
    gamma: float = math.nan
    ell: float = math.nan
    hp_fail: bool = False
    evidence: dict = field(default_factory=dict)

    def supports_decay_law(self):
        """True when the sharp decay-rate limit is proven for this regime."""
        if self.name == "hp-add-2":
            return True
        return self.name == "hp-add-1" and self.gamma < 1.0 - 1e-9

    def to_dict(self):
        return {
            "name": self.name,
            "gamma": None if math.isnan(self.gamma) else self.gamma,
            "ell": None if math.isnan(self.ell) else self.ell,
            "hp_fail": self.hp_fail,
            "evidence": self.evidence,
        }


@dataclass
class CompletenessVerdict:
    """Outcome of the Theta^(1/(p-1)) integrability test."""

    verdict: str  # 'pSC', 'pSI', 'Inconclusive'
    horizon: float
    J_at_horizon: float
    tail_estimate: float
    regime: RegimeTag

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "horizon": self.horizon,
            "J_at_horizon": self.J_at_horizon,
            "tail_estimate": self.tail_estimate,
            "regime": self.regime.to_dict(),
        }


def detect_regime(profile, window_decades=2.0):
    """Fit the asymptotic regime of psi'/psi near the extended horizon.

    Estimates gamma from the log-log slope of f = psi'/psi, distinguishes
    the plateau case (r^gamma f -> ell), the divergent case with vanishing
    relative drift of log f, and the power-like case gamma ~ 1; also samples
    the liminf quotient that certifies failure of the sharp decay law.
    """
    model = profile.model
    r_hi = profile.r_hi
    r = np.geomspace(r_hi / 10**window_decades, r_hi, 48)
    f = np.asarray(model.slope_ratio(r), dtype=float)
    logr, logf = np.log(r), np.log(f)
    slopes = -np.gradient(logf, logr)  # local gamma estimate
    gamma_hat = float(np.median(slopes[len(slopes) // 2 :]))
    spread = float(np.ptp(slopes[len(slopes) // 2 :]))

    proxy_r = np.geomspace(r_hi / 10**3, r_hi, 24)
    proxy = profile.hp_fail_proxy(proxy_r)
    proxy_floor = float(np.min(proxy))
    evidence = {
        "gamma_hat": gamma_hat,
        "slope_spread": spread,
        "f_at_horizon": float(f[-1]),
        "hp_fail_proxy_min": proxy_floor,
    }
    hp_fail = proxy_floor > 1e-2

    if gamma_hat < -0.05:
        # f diverges; check the relative drift condition (psi/psi')(log f)' -> 0
        drift = np.gradient(logf, r) / f
        evidence["drift_at_horizon"] = float(abs(drift[-1]))
        if f[-1] > 10.0 and abs(drift[-1]) < 1e-2:
            return RegimeTag("hp-add-2", evidence=evidence, hp_fail=hp_fail)
        raise AmbiguousRegime(f"divergent psi'/psi without drift control: {evidence}")
    if spread > 0.1:
        raise AmbiguousRegime(f"log-log slope of psi'/psi not stabilized: {evidence}")
    if abs(gamma_hat - 1.0) < 0.05:
        ell = float(np.median(r * f))
        return RegimeTag("power-like", gamma=1.0, ell=ell, hp_fail=True, evidence=evidence)
    gamma = 0.0 if abs(gamma_hat) < 0.05 else gamma_hat
    ell = float(np.median(r**gamma * f))
    return RegimeTag("hp-add-1", gamma=gamma, ell=ell, hp_fail=hp_fail, evidence=evidence)


def classify_completeness(profile):
    """Decide whether Theta^(1/(p-1)) is integrable on the half line.

    Convergence is certified by the extended-horizon quadrature stabilizing;
    divergence by a fitted growth law of J over the last two dyadic windows.
    """
    r_hi = profile.r_hi
    J_end = profile.J(r_hi)
    try:
        regime = detect_regime(profile)
    except AmbiguousRegime as exc:
        regime = RegimeTag("unknown", evidence={"error": str(exc)})

    if profile.tail_converged:
        tail = profile.J_inf - profile.J(profile.R)
        return CompletenessVerdict("pSI", r_hi, J_end, tail, regime)

    # growth-law fit over the last two dyadic windows
    g1 = math.log(J_end / profile.J(r_hi / 2.0)) / math.log(2.0)
    g2 = math.log(profile.J(r_hi / 2.0) / profile.J(r_hi / 4.0)) / math.log(2.0)
    if g1 > 0.25 and g2 > 0.25 and J_end >= 1.5 * profile.J(r_hi / 2.0):
        return CompletenessVerdict("pSC", r_hi, J_end, math.inf, regime)
    return CompletenessVerdict("Inconclusive", r_hi, J_end, math.nan, regime)
