"""Cartan-Hadamard model functions and their derived geometry.

A model manifold carries the metric dr^2 + psi(r)^2 g_{S^{n-1}} about a pole,
where psi(0) = 0, psi'(0) = 1 and psi is convex (nonpositive curvature).
This module provides the catalog of closed-form model functions, convex C^2
gluing, the volume-surface ratio Theta and its primitives, and the
completeness classification that decides whether radial solutions decay to
zero or plateau at a positive constant.

All quantities that can overflow for fast-growing psi (psi^(n-1) reaches
1e308 very quickly for exponential-power models) are handled in log space:
a model is its triple log_psi, slope ratio psi'/psi and curvature ratio
psi''/psi, in closed form, from which psi, psi' and psi'' derive. A glued
model continues psi'' = m psi past each join, with m ramped by a smoothstep
between two ends; where m is constant its triple is in closed form too, and
only the ramp windows (or a whole segment blending into a catalog model)
are tabulated, each by one run of the solver's DOP853 stepper, read as
its dense output. The geometry integrals Theta, J and W are cumulative
panel quadratures of e^{(n-1) log psi} fitted to its exponential growth
(quadrature.fitted_rule), tabulated once per profile; the oscillating
construction reads its J from the same profile.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import dense, quadrature, runio
from .dense import _DenseTable, solve_ivp


class UsageError(Exception):
    """A bad descriptor or a parameter outside its domain (CLI exit 2)."""


class SolverError(Exception):
    """A numerical failure of an otherwise well-posed run (CLI exit 3)."""


class RegimeError(Exception):
    """A check asked for outside its regime of validity (CLI exit 4)."""


class InvalidParameter(UsageError, ValueError):
    """Model descriptor parameter outside its admissible range."""


class ConvexityViolation(UsageError, RuntimeError):
    """A candidate model function fails psi'' >= 0 on the audit grid."""


class QuadratureFailure(SolverError, RuntimeError):
    """Geometry quadrature did not reach its error target."""


class GeometryOverflow(SolverError, RuntimeError):
    """psi^(n-1), or a quantity built from it, leaves the double range either
    way (past DBL_MAX, or below the normal doubles) before the horizon."""


class AmbiguousRegime(SolverError, RuntimeError):
    """No asymptotic growth regime could be fitted at the horizon."""


# Exponent ceiling used before exp() to keep intermediate floats finite.
_EXP_CAP = 700.0
# audit grid, safe_horizon headroom, detect_regime window, geometry.csv rows
_AUDIT_HORIZON, _AUDIT_PER_DECADE = 1e3, 64
_HORIZON_MARGIN, _REGIME_WINDOW_DECADES, _CSV_ROWS = 60.0, 2.0, 400


def _check_n_p(n, p):
    """Refuse (InvalidParameter) all but an integer n >= 2 and 1 < p < n:
    NaN fails every test, and inf fails before int() could raise."""
    if not (2 <= n < math.inf and int(n) == n and 1.0 < p < n):
        raise InvalidParameter(f"need an integer n >= 2 and p in (1, n), got n={n}, p={p}")


def _unique(x):
    """The sorted distinct values of x: np.unique's, by a sort and a mask,
    since np.unique imports numpy.ma (about 10 ms) on its first call."""
    x = np.sort(np.ravel(x))
    keep = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _median(x):
    """np.median of x's values as a float, NaN where any is NaN: the mean
    of the middle one or two sorted values, without np.median's import of
    numpy.ma."""
    x = np.sort(np.ravel(x))
    if np.isnan(x[-1]):  # NaN sorts last
        return math.nan
    return float(np.mean(x[(x.size - 1) // 2:x.size // 2 + 1]))


def _smoothstep(x):
    """C^1 monotone ramp: 0 for x<=0, 1 for x>=1, 3x^2-2x^3 between."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


class ModelFunction:
    """Base class: a model is its log-space triple.

    Subclasses implement log_psi, slope_ratio = psi'/psi and
    curvature_ratio = psi''/psi as numpy ufunc-compatible functions of
    r >= 0, each in a form that never overflows. psi, psi' and psi'' derive
    from them, with psi = exp(log psi) capped at e^700. Instances are
    immutable and safe to share across threads.
    """

    kind = "abstract"
    parameters = ()  # the constructor's keywords: with kind, all that names the model
    segments = ()  # a Glued model's continuations (_Segment); a catalog model has none
    valid_to = math.inf

    def log_psi(self, r):
        """log psi(r), finite wherever psi(r) > 0 even if psi overflows."""
        raise NotImplementedError

    def slope_ratio(self, r):
        """psi'(r)/psi(r) in closed form (no overflow)."""
        raise NotImplementedError

    def curvature_ratio(self, r):
        """psi''(r)/psi(r) in closed form (no overflow)."""
        raise NotImplementedError

    def psi(self, r):
        return np.exp(np.minimum(self.log_psi(r), _EXP_CAP))

    def eval(self, r):
        """Return (psi, psi', psi'') at r."""
        psi = self.psi(r)
        return psi, self.slope_ratio(r) * psi, self.curvature_ratio(r) * psi

    def params(self):
        return {name: getattr(self, name) for name in self.parameters}

    def joins(self):
        """Radii where psi changes formula; smooth everywhere by default."""
        return ()

    def descriptor(self):
        """JSON-serializable {kind, params} descriptor."""
        return {"kind": self.kind, "params": self.params()}

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({ps})"


class Euclidean(ModelFunction):
    """psi(r) = r: flat space."""

    kind = "euclidean"

    def log_psi(self, r):
        return np.log(np.asarray(r, dtype=float))

    def slope_ratio(self, r):
        return 1.0 / np.asarray(r, dtype=float)

    def curvature_ratio(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))


class Hyperbolic(ModelFunction):
    """psi(r) = sinh r: constant curvature -1."""

    kind = "hyperbolic"

    def log_psi(self, r):
        r = np.asarray(r, dtype=float)
        # log sinh r = r + log(1 - e^{-2r}) - log 2; expm1 keeps the digits
        # of 1 - e^{-2r} near the pole, where log1p(-exp(-2r)) loses them
        with np.errstate(divide="ignore"):
            return r + np.log(-np.expm1(-2.0 * r)) - math.log(2.0)

    def slope_ratio(self, r):
        return 1.0 / np.tanh(np.asarray(r, dtype=float))

    def curvature_ratio(self, r):
        return np.ones_like(np.asarray(r, dtype=float))


class ExpPower(ModelFunction):
    """psi(r) = r * exp(c r^m): super-exponential growth, c > 0, integer m >= 2."""

    kind = "exppower"
    parameters = ("c", "m")

    def __init__(self, c, m):
        if not (0 < c < math.inf):
            raise InvalidParameter(f"exppower requires finite c > 0, got c={c}")
        if not (2 <= m < math.inf) or int(m) != m:
            raise InvalidParameter(f"exppower requires integer m >= 2, got m={m}")
        self.c = float(c)
        self.m = int(m)

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
    parameters = ("k",)

    def __init__(self, k):
        if not (1 <= k < math.inf):
            raise InvalidParameter(f"powerlike requires finite k >= 1, got k={k}")
        self.k = float(k)

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
    parameters = ("c", "gamma")

    def __init__(self, c, gamma):
        if not (0 < c < math.inf):
            raise InvalidParameter(f"expgamma requires finite c > 0, got c={c}")
        if not (0.0 < gamma < 1.0):
            raise InvalidParameter(f"expgamma requires gamma in (0,1), got {gamma}")
        self.c = float(c)
        self.gamma = float(gamma)

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


# tolerances of the solver._RadialDOP853 runs that tabulate glued windows
_TABLE_RTOL, _TABLE_ATOL = 1e-13, 1e-15
# a Glued read of at most this many radii, the 15 of a DOP853 step, finds
# their range on a Python list (Glued._read)
_FEW_RADII = 15


def _window_kernel(m, L, s):
    """(L, s)' for (L, s) = (log psi, psi'/psi) and psi'' = m psi, on floats or arrays."""
    return s, m - s * s


def _curvature(m, r):
    """psi''/psi at r of a segment end: the float itself, or the model's."""
    return m if isinstance(m, float) else m.curvature_ratio(r)


@dataclass(frozen=True)
class _Segment:
    """One continuation of a glued model: psi'' = m psi on [start, end] with

      m = (1 - S) m_from + S m_to,   S = _smoothstep((r - start) / width),

    where m_from and m_to are each a float >= 0 or a catalog model, whose
    curvature_ratio is used.
    """

    start: float
    end: float
    width: float
    m_from: object
    m_to: object

    def curvature(self, r):
        S = _smoothstep((r - self.start) / self.width)
        return (1.0 - S) * _curvature(self.m_from, r) + S * _curvature(self.m_to, r)


class _Window:
    """(log psi, psi'/psi) of a segment from its start, as the dense output
    of one DOP853 run of (L, s)' = (s, m - s^2) (_window_kernel)."""

    def __init__(self, seg, table):
        self.seg, self.table = seg, table

    def log_psi(self, r):
        return self.table(r, 0)

    def slope_ratio(self, r):
        return self.table(r, 1)

    def curvature_ratio(self, r):
        return self.seg.curvature(r)


class _Tail:
    """(log psi, psi'/psi) of a segment past its window, where m is the
    constant m_to = sigma^2, in closed form from (L1, s1) at the window's
    end r1. With x = r - r1:

      sigma = 0:  L = L1 + log1p(s1 x),  s = s1 / (1 + s1 x);
      sigma > 0:  L = L1 + sigma x + log(a + b e^{-2 sigma x}),
                  s = sigma (a - b e^{-2 sigma x}) / (a + b e^{-2 sigma x}),

    with a, b = (1 +- s1/sigma) / 2: psi = e^L1 (cosh + (s1/sigma) sinh)
    of sigma x, written so that nothing overflows (a > 0 since s1 > 0).
    """

    def __init__(self, seg, r1, L1, s1):
        self.seg, self.r1, self.L1, self.s1 = seg, r1, L1, s1
        self.sigma = sigma = math.sqrt(seg.m_to)
        if sigma > 0.0:
            self.a, self.b = 0.5 * (1.0 + s1 / sigma), 0.5 * (1.0 - s1 / sigma)

    def log_psi(self, r):
        x = r - self.r1
        if self.sigma == 0.0:
            return self.L1 + np.log1p(self.s1 * x)
        return (self.L1 + self.sigma * x
                + np.log(self.a + self.b * np.exp(-2.0 * self.sigma * x)))

    def slope_ratio(self, r):
        x = r - self.r1
        if self.sigma == 0.0:
            return self.s1 / (1.0 + self.s1 * x)
        e = self.b * np.exp(-2.0 * self.sigma * x)
        return self.sigma * (self.a - e) / (self.a + e)

    def curvature_ratio(self, r):
        return np.full(np.shape(r), self.seg.m_to)


class Glued(ModelFunction):
    """Convex C^2 model built from a base piece plus curvature continuations.

    Each continuation (a _Segment) prescribes the curvature ratio
    m = psi''/psi >= 0 on [start, end] and continues psi'' = m psi from the
    model glued so far, as (L, s) = (log psi, psi'/psi), so values never
    overflow; convexity holds structurally, and psi, psi' are continuous at
    every join by construction. Past the blend window of a segment whose
    m_to is a float, m is constant and (L, s) is in closed form (_Tail);
    the window itself, or all of a segment that blends into a catalog
    model, is the dense output of one run of the solver's DOP853 stepper
    (_Window).

    A lookup bisects the piece starts (base, windows, closed-form
    stretches) at the smallest and the largest of its radii; only an array
    that spans several pieces is grouped, with one call per piece it
    touches. log_psi, slope_ratio and curvature_ratio each compute only
    their own quantity; radii past the last segment's end read its end.
    Its params, the data that fixes psi, are the base's descriptor and a
    [start, end, width, m_from, m_to] per segment (a catalog end by its
    descriptor).
    """

    kind = "glued"

    def __init__(self, base, segments, pieces=()):
        self.base = base
        self.segments = tuple(segments)
        self.valid_to = self.segments[-1].end if self.segments else base.valid_to
        self._joins = [seg.start for seg in self.segments]
        # (start radius, reader) of every piece past the base, in order
        self._pieces = tuple(pieces)
        self._starts = [r for r, _ in self._pieces]
        self._readers = (base,) + tuple(reader for _, reader in self._pieces)

    def params(self):
        def end(m):
            return m if isinstance(m, float) else m.descriptor()

        return {"base": self.base.descriptor(),
                "segments": [[seg.start, seg.end, seg.width, end(seg.m_from), end(seg.m_to)]
                             for seg in self.segments]}

    def joins(self):
        return tuple(self._joins)

    def _read(self, name, r):
        """The pieces' method `name` at r, radii past valid_to read there: a
        float for a scalar r, else an array of the shape of r.

        The piece comes from the smallest and the largest radius. On a few
        radii (a solver step's 3 or 15) they are read off a sorted list,
        which costs a fraction of numpy's min and max there; a NaN, which
        numpy's min and max carry and a sorted list may not, makes the sum
        of the list NaN, and such radii take numpy's reductions, which send
        the whole array to the last piece.
        """
        starts, readers = self._starts, self._readers
        if np.ndim(r) == 0:
            r = min(float(r), self.valid_to)
            return float(getattr(readers[bisect.bisect_right(starts, r)], name)(r))
        r = np.asarray(r, dtype=float)
        if r.size == 0:
            return np.empty(r.shape)
        few = r.ravel().tolist() if r.size <= _FEW_RADII else None
        if few and not math.isnan(sum(few)):
            few.sort()
            lo, hi = few[0], few[-1]
        else:
            lo, hi = r.min(), r.max()
        if hi > self.valid_to:
            r = np.minimum(r, self.valid_to)
        k = bisect.bisect_right(starts, lo)
        if k == bisect.bisect_right(starts, hi):
            return getattr(readers[k], name)(r)
        out = np.empty(r.shape)
        idx = np.searchsorted(starts, r, side="right")
        for k in _unique(idx):
            pick = idx == k
            out[pick] = getattr(readers[k], name)(r[pick])
        return out

    def log_psi(self, r):
        return self._read("log_psi", r)

    def slope_ratio(self, r):
        return self._read("slope_ratio", r)

    def curvature_ratio(self, r):
        return self._read("curvature_ratio", r)

    def extended(self, start, end, m_from, m_to, width):
        """New Glued model equal to self on [0, start], continued on
        [start, end] by psi'' = m psi with m = (1 - S) m_from + S m_to and
        S = _smoothstep((r - start) / width).

        m_from and m_to are each a float >= 0 or a catalog model (its
        curvature_ratio). With a float m_to, m is that constant past
        start + width and the model is in closed form there; the window
        before it, or with a model m_to the whole segment, is tabulated by
        one run of the solver's DOP853 stepper, whose first trial step is
        the whole window (the step control cuts it down). The pieces below
        `start` are shared, so evaluations below `start` are bit-identical
        to the parent model's; the new model's params list the segment
        after the parent's. Refuses (InvalidParameter) a start at or
        before the last join or past the model's range, an end at or before
        the start and a width <= 0, and (ConvexityViolation) a negative
        float m_from or m_to; raises QuadratureFailure when the run ends
        short of the window's end.
        """
        from . import solver  # solver imports this module at load

        start, end, width = float(start), float(end), float(width)
        last = self._joins[-1] if self._joins else 0.0
        if not last < start <= self.valid_to:
            raise InvalidParameter(
                f"continuation must start after the last join r={last:g} and "
                f"within the model's range, got start={start:g}")
        if not end > start:
            raise InvalidParameter(
                f"continuation must end after its start, got [{start:g}, {end:g}]")
        if not width > 0.0:
            raise InvalidParameter("blend width must be positive")
        ends = []
        for m in (m_from, m_to):
            if not isinstance(m, ModelFunction):
                m = float(m)
                if not m >= 0.0:
                    raise ConvexityViolation(
                        f"curvature ratio {m:.3e} < 0 on the continuation "
                        f"from r={start:.6g}")
            ends.append(m)
        seg = _Segment(start, end, width, *ends)
        stop = min(start + width, end) if isinstance(seg.m_to, float) else end
        run = solve_ivp(solver._RadialDOP853, (start, stop),
                        [self.log_psi(start), self.slope_ratio(start)],
                        first_step=stop - start, rtol=_TABLE_RTOL,
                        atol=_TABLE_ATOL, lpsi=seg.curvature, kernel=_window_kernel)
        if run.ended != "end":
            raise QuadratureFailure(f"continuation integration ended at "
                                    f"r={run.t[-1]:g} < {stop:g}: {run.ended}")
        pieces = [piece for piece in self._pieces if piece[0] < start]
        table = _DenseTable([run.piece(_window_kernel)])
        pieces.append((start, _Window(seg, table)))
        if stop < end:
            pieces.append((stop, _Tail(seg, stop, *run.y)))
        return Glued(self.base, self.segments + (seg,), pieces)


def as_glued(model):
    """Wrap a plain catalog model as a Glued with no segments."""
    if isinstance(model, Glued):
        return model
    return Glued(model, ())


_KINDS = {cls.kind: cls for cls in (Euclidean, Hyperbolic, ExpPower, PowerLike, ExpGamma)}


def _number(value):
    """value by %g where that reads back as the same float, else by repr."""
    text = f"{float(value):g}"
    return text if float(text) == value else repr(float(value))


def descriptor_string(model):
    """Compact parseable form of a catalog model: kind or kind:a=1,b=2.

    Inverse of make_model for the catalog kinds: each value is written by
    %g where that reads back as the same float, by repr otherwise. Glued
    models (whose params are structural) reduce to the bare kind name.
    """
    params = model.params()
    if model.kind == "glued" or not params:
        return model.kind
    body = ",".join(f"{k}={_number(v)}" for k, v in sorted(params.items()))
    return f"{model.kind}:{body}"


def parse_descriptor(text):
    """Parse 'kind' or 'kind:a=1,b=2' strings into a {kind, params} descriptor."""
    if ":" in text:
        kind, rest = text.split(":", 1)
        params = {}
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val or key.strip() in params:
                raise InvalidParameter(f"malformed or repeated model parameter {item!r}")
            try:
                params[key.strip()] = float(val)
            except ValueError:
                raise InvalidParameter(f"model parameter {item!r} is not a number") from None
    else:
        kind, params = text, {}
    return {"kind": kind.strip().lower(), "params": params}


def make_model(descriptor):
    """Build a catalog ModelFunction from a descriptor (dict or CLI string).

    The parameters must be exactly those the kind's class lists in
    `parameters`; an unknown kind, a parameter the kind does not take and a
    missing one raise InvalidParameter. The returned model has passed the
    structural audit: psi(0)=0, psi'(0)=1 against the short series,
    psi'' >= 0, psi' >= 1 and psi >= r on a log-spaced grid.
    """
    if isinstance(descriptor, str):
        descriptor = parse_descriptor(descriptor)
    kind = descriptor["kind"]
    params = descriptor.get("params", {})
    if kind not in _KINDS:
        raise InvalidParameter(f"unknown model kind {kind!r}")
    cls = _KINDS[kind]
    if set(params) != set(cls.parameters):
        raise InvalidParameter(f"{kind} takes parameters {list(cls.parameters)}, "
                               f"got {sorted(params)}")
    model = cls(**params)
    audit_model(model)
    return model


def audit_model(model):
    """Check the structural invariants of a model function on a log grid.

    Raises ConvexityViolation or InvalidParameter on failure; returns the
    audit radii on success.
    """
    horizon = min(model.valid_to, _AUDIT_HORIZON)
    npts = max(16, int(_AUDIT_PER_DECADE * (math.log10(horizon) + 6)))
    r = np.geomspace(1e-6, horizon * (1 - 1e-12), npts)
    with np.errstate(over="ignore"):
        psi, dpsi, ddpsi = model.eval(r)

    r0 = 1e-8
    p0, d0, _ = model.eval(r0)
    if not (abs(p0 / r0 - 1.0) <= 1e-5 and abs(d0 - 1.0) <= 1e-5):
        raise InvalidParameter(
            f"{model!r} violates psi(0)=0, psi'(0)=1 (psi/r={p0 / r0:.6g}, "
            f"psi'={d0:.6g} at r={r0:g})"
        )
    # each test is written so that NaN fails it (argmin finds the first NaN)
    scale = np.maximum(np.abs(psi), 1.0)
    if not np.all(ddpsi >= -1e-12 * scale):
        bad = r[np.argmin(ddpsi / scale)]
        raise ConvexityViolation(f"{model!r}: psi'' < 0 or NaN near r={bad:.6g}")
    if not np.all(dpsi >= 1.0 - 1e-9):
        raise ConvexityViolation(f"{model!r}: psi' < 1 or NaN on audit grid")
    if not np.all(psi >= r * (1.0 - 1e-9)):
        raise ConvexityViolation(f"{model!r}: psi < r or NaN on audit grid")
    return r


def glue_models(pieces, blend_width, horizon=None):
    """Glue catalog models at increasing join radii into one convex C^2 model.

    ``pieces`` is a sequence of (ModelFunction, start_radius): each piece
    takes over at its start radius (the first entry's start is 0 and is
    ignored); a single piece returns the piece itself. The glued psi follows
    the first piece exactly up to the second piece's start; from each later
    join it continues psi'' = m psi with m blending from the previous
    piece's curvature ratio to the next one's over ``blend_width``
    (Glued.extended with the two models as m_from and m_to), up to the next
    join or, for the last piece, to ``horizon``, which must lie past the
    last join. These segments never have a constant curvature, so each is
    tabulated whole by one DOP853 run.
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
    for prev, nxt, join, end in zip(models, models[1:], joins, joins[1:] + [horizon]):
        glued = glued.extended(join, end, prev, nxt, blend_width)
    return glued


# --------------------------------------------------------------------------
# Geometry profile: Theta, J and friends
# --------------------------------------------------------------------------


# Far end of every profile, or the model's trusted range if that is
# shorter: far past any user horizon, so the convergence of
# int^inf Theta^(1/(p-1)) is decided by direct quadrature.
_R_HI = 1e8
# Geometric panels per decade: the coarse grid every profile starts from.
_PANELS_PER_DECADE = 64
# Relaxation rate r (n-1) psi'/psi past which Theta is read from its
# quasi-equilibrium expansion. Below it the panels keep Delta G <= 1, so
# their number grows like G at the switch; at 3e3 the expansion meets the
# panels to 3e-12 in log Theta on exppower, the worst catalog case.
_QE_RATE = 3e3


def _ladder(R, rungs):
    """R/2^(rungs-1), ..., R/2, R: the dyadic radii every limit is sampled on."""
    return R / 2.0 ** np.arange(rungs - 1, -1, -1)


def _log_sum(x):
    """log sum_j exp(x[..., j]); -inf for a row of -inf."""
    top = np.max(x, axis=-1)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return top + np.log(np.exp(x - top[..., None]).sum(axis=-1))


def _row_dot(x, y):
    """sum_j x[i, j] y[i, j] for every row i."""
    return np.einsum("ij,ij->i", x, y)


def _relax(x0, decay, inc):
    """x_0 .. x_K of the recurrence x_{k+1} = x_k decay_k + inc_k.

    A doubling scan: after the round with stride s, (a_k, b_k) is the
    affine map x -> a x + b over the 2s steps ending at k. All terms are
    positive, so each of the log2(K) rounds adds about one rounding error.
    Products of decays are floored at 1e-200, which keeps every product
    out of the subnormal range; the contribution they carry is below
    1e-200 of x_0.
    """
    a, b = decay.copy(), inc.copy()
    step = 1
    while step < len(b):
        b[step:] = a[step:] * b[:-step] + b[step:]
        a[step:] = np.maximum(a[step:] * a[:-step], 1e-200)
        step *= 2
    return np.concatenate([[x0], a * x0 + b])


class GeometryProfile:
    """Tabulated geometry quadratures for one (model, n, p).

    With G = (n-1) log psi and mu = 1/(p-1), the profile gives
    Theta = I/psi^(n-1) (I = int_0^r e^G), its primitive J = int_0^r Theta^mu,
    and the liminf quotient W/J with W = U/I, U = int_0^r Theta^mu I.

    Up to r_switch, the first grid radius past the last one where the
    relaxation rate r (n-1) psi'/psi is below _QE_RATE, all three are
    panel quadratures. The panels start as the geometric grid (plus the
    model's joins) and are split until G grows by at most 1 across each.
    On each panel [a, b]

      Theta(b) = Theta(a) e^{-(G(b) - G(a))} + int_a^b e^{G(s) - G(b)} ds

    with the integral by quadrature.fitted_rule, run as one recurrence
    over the panels. Theta at the rule's nodes follows from the same node
    values (quadrature.partial_integrals), and the same rule applied to
    Theta^mu and Theta^mu I gives the increments of log J and log U.
    Beyond r_switch Theta and W are read from their relaxations'
    quasi-equilibrium (_relax_qe), and J continues by Gauss-Legendre in
    log r on the geometric panels. The tabulated range [r_lo, r_hi]
    extends far beyond the user horizon R so tail convergence of J is
    decided by direct quadrature: J_ladder is J on the dyadic ladder
    _ladder(r_hi, 3), tail_converged compares its last two rungs, and
    J_inf is J(r_hi) where the tail converged. The ladder is one lookup,
    made on its first read (of J_ladder, tail_converged or J_inf), not
    when the profile is built, and kept; so is the asymptotic regime
    (detect_regime), fitted on the first read of `regime`.

    Every read (theta, logI, I, J, theta_J, hp_fail_proxy) is one lookup,
    _logs. On each block of at most dense._BLOCK (2,048) radii it is one
    searchsorted into the panel edges, then the same rule on the partial
    panel from the edge below each radius: a fixed number of model array
    calls per block, none per radius, and memory that grows with the
    number of radii only in the outputs. A lookup that returns no W (J,
    theta_J) skips the U moment.
    """

    def __init__(self, model, n, p, R):
        self.model = model
        self.n = int(n)
        self.p = float(p)
        self.R = float(R)
        self.mu = 1.0 / (self.p - 1.0)
        self.r_lo = 1e-8 * min(1.0, self.R)
        self.r_hi = max(min(_R_HI, model.valid_to), self.R)
        num = math.ceil(_PANELS_PER_DECADE * math.log10(self.r_hi / self.r_lo)) + 1
        grid = _unique(np.append(np.geomspace(self.r_lo, self.r_hi, num),
                                 [j for j in model.joins() if self.r_lo < j < self.r_hi]))
        slope = (self.n - 1) * np.asarray(model.slope_ratio(grid), dtype=float)
        # the switch follows the last radius below the rate, so a join where
        # the rate falls back (a glued model turning flat) stays on the panels
        calm = np.nonzero(grid * slope < _QE_RATE)[0]
        k = min(int(calm[-1]) + 1, len(grid) - 1)
        self.r_switch = float(grid[k])
        # G' = slope is monotone across a grid panel, so the larger of its
        # end values bounds the growth of G on each equal part
        self._tabulate(grid[:k + 1],
                       np.diff(grid[:k + 1]) * np.maximum(slope[:k], slope[1:k + 1]))
        self._tail = tail = grid[k:]
        self._tail_logJ = np.logaddexp.accumulate(np.concatenate(
            [self._logJ[-1:], self._tail_increments(tail[:-1], tail[1:])[0]]))
        if not np.all(np.isfinite(self._tail_logJ)):
            raise QuadratureFailure("geometry quadrature: non-finite J beyond the switch")

    @functools.cached_property
    def J_ladder(self):
        """J at r_hi/4, r_hi/2 and r_hi (_ladder(r_hi, 3)), from one lookup."""
        return self.J(_ladder(self.r_hi, 3))

    @functools.cached_property
    def regime(self):
        """detect_regime of this profile; AmbiguousRegime, which is not
        kept, where no regime fits."""
        return detect_regime(self)

    @property
    def tail_converged(self):
        """Whether J grows by less than 1e-6 of itself over [r_hi/2, r_hi]."""
        J_half, J_end = self.J_ladder[1:]
        return bool(J_end - J_half < 1e-6 * J_end)

    @property
    def J_inf(self):
        """J(r_hi) where the tail converged, else inf."""
        return self.J_ladder[-1] if self.tail_converged else math.inf

    # -- tabulation ----------------------------------------------------

    def _G(self, r):
        return (self.n - 1) * np.asarray(self.model.log_psi(r), dtype=float)

    def _tabulate(self, edges, growth):
        """Theta, log J and log U at the fine panel edges below r_switch.

        Each panel of `edges` is cut into ceil(growth) equal parts, and
        again wherever G still grows by more than 1
        (quadrature.unit_growth_edges).
        """
        edges, G = quadrature.unit_growth_edges(self._G, edges, growth)
        if not np.all(np.isfinite(G)):
            raise QuadratureFailure("geometry quadrature: non-finite log psi")
        # the rule runs on blocks of panels, which bounds the memory of each
        # model call and of the (panels, 8) node arrays
        a, b, Ga, Gb = edges[:-1], edges[1:], G[:-1], G[1:]
        blocks = quadrature._blocks(len(a))
        rules = [self._panels(a[k], b[k], Ga[k], Gb[k]) for k in blocks]
        log_theta0, log_J0 = geometry_start(self.r_lo, self.n, self.p)
        theta = _relax(math.exp(log_theta0), np.concatenate([rule[0] for rule in rules]),
                       np.concatenate([rule[3] for rule in rules]))
        moments = [self._moments(theta[:-1][k], *rule[:3], Gb[k], U=True)
                   for k, rule in zip(blocks, rules)]
        dlogJ, dlogU = (np.concatenate(m) for m in zip(*moments))
        mu = self.mu
        # U ~ r^(n+1+mu) / (n^(1+mu) (n+1+mu)) where psi ~ r
        log_U0 = ((self.n + 1.0 + mu) * math.log(self.r_lo) - (1.0 + mu) * math.log(self.n)
                  - math.log(self.n + 1.0 + mu))
        self._edges, self._Gedge, self._theta = edges, G, theta
        self._logJ = np.logaddexp.accumulate(np.concatenate([[log_J0], dlogJ]))
        self._logU = np.logaddexp.accumulate(np.concatenate([[log_U0], dlogU]))
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(self._logJ))
                and np.all(np.isfinite(self._logU))):
            raise QuadratureFailure("geometry quadrature: non-finite panel sum")

    def _panels(self, a, b, Ga, Gb):
        """The fitted rule on panels [a, b] with e^{G(s) - G(b)} at its nodes.

        Returns (decay, wt, ker, inc): Theta(b) = Theta(a) decay + inc.
        """
        dG = Gb - Ga
        s, wt = quadrature.fitted_rule(a, b, dG)
        ker = self._G(s)
        ker -= Gb[:, None]
        np.exp(ker, out=ker)
        return np.exp(-dG), wt, ker, _row_dot(wt, ker)

    def _moments(self, theta_a, decay, wt, ker, Gb, U):
        """log int_a^b Theta^mu on each panel, and with U also
        log int_a^b Theta^mu I: a tuple of one or two arrays.

        Theta at the nodes is Theta(a) times a ratio of order 1, so the
        powers are taken of the ratio and Theta(a)^mu is added in log space.
        """
        ratio = quadrature.partial_integrals(wt * ker)
        ratio += (theta_a * decay)[:, None]
        ratio /= ker
        ratio /= theta_a[:, None]
        power = ratio ** self.mu
        dJ = _row_dot(wt, power)
        log_a = np.log(theta_a)
        with np.errstate(divide="ignore"):
            dlogJ = self.mu * log_a + np.log(dJ)
            if not U:
                return (dlogJ,)
            power *= wt
            ratio *= ker
            return dlogJ, Gb + (1.0 + self.mu) * log_a + np.log(_row_dot(power, ratio))

    def _tail_increments(self, a, b, r=()):
        """(log int_a^b Theta^mu by Gauss-Legendre in log r, Theta at radii r),
        Theta at r and at the nodes from one _theta_qe call (elementwise)."""
        t, wt = quadrature.fitted_rule(np.log(a), np.log(b), np.zeros(len(a)))
        nodes = np.exp(t)
        with np.errstate(divide="ignore"):
            log_wt = np.log(wt * nodes)
        theta = self._theta_qe(np.concatenate([np.ravel(r), nodes.ravel()]))
        k = np.size(r)
        return _log_sum(log_wt + self.mu * np.log(theta[k:].reshape(nodes.shape))), theta[:k]

    def _theta_qe(self, r):
        """Quasi-equilibrium Theta for radii beyond the switch, from its
        relaxation Theta' = 1 - G' Theta (_relax_qe)."""
        return self._relax_qe(r, lambda x: (1.0, (self.n - 1) * self.model.slope_ratio(x)))

    @staticmethod
    def _relax_qe(r, coefficients):
        """x at radii r for a fast relaxation x' = s - k x, k >> 1/r.

        x = (s - x')/k is iterated three rounds from x = s/k, each x' a
        central difference of step 1e-4 r. coefficients(radii) returns
        (s, k); it is called once, on every radius the rounds read stacked
        into one array: r, then each level's radii x +- 1e-4 x.
        """
        r = np.asarray(r, dtype=float)
        levels = [r.ravel()]
        for _ in range(3):
            x = levels[-1]
            h = x * 1e-4
            levels.append(np.concatenate([x + h, x - h]))
        s, k = coefficients(np.concatenate(levels))
        cuts = np.cumsum([len(x) for x in levels[:-1]])
        s, k = np.split(np.broadcast_to(s, k.shape), cuts), np.split(k, cuts)
        x = s[-1] / k[-1]
        for level, sj, kj in zip(levels[-2::-1], s[-2::-1], k[-2::-1]):
            d = (x[:len(level)] - x[len(level):]) / (2.0 * (level * 1e-4))
            x = (sj - d) / kj
        return x.reshape(r.shape)

    # -- lookups -------------------------------------------------------

    def _logs(self, r, moments=0):
        """[log Theta] at radii r; with moments=1 [log Theta, log J], with
        moments=2 [log Theta, log J, log W/J]: each of r's shape, a float
        for a scalar r.

        One range check, (0, r_hi], which NaN fails (GeometryOverflow), then
        one split of the radii: those below r_lo read the series the table
        starts from (_start), those up to r_switch the panels (_fine), those
        beyond the quasi-equilibrium tail (_beyond). Each side of n
        radii is read in ceil(n / dense._BLOCK) near-equal blocks written
        into the outputs: a side of at most dense._BLOCK radii is one call,
        and a split side's blocks hold at least dense._BLOCK / 2, never the
        one radius whose (1, 8) product in quadrature.partial_integrals
        takes another BLAS path than a row of a larger one, and differs
        from it in the last bit.
        """
        x = np.asarray(r, dtype=float).ravel()
        if not (np.all(x > 0.0) and np.all(x <= self.r_hi * (1 + 1e-9))):
            raise GeometryOverflow(f"radius outside tabulated range (0, {self.r_hi:g}]")
        x = np.minimum(x, self.r_hi)
        out = np.empty((moments + 1, x.size))
        sides = (x < self.r_lo, (x >= self.r_lo) & (x <= self.r_switch), x > self.r_switch)
        for side, read in zip(sides, (self._start, self._fine, self._beyond)):
            idx = np.flatnonzero(side)
            if idx.size:
                for block in np.array_split(idx, -(-idx.size // dense._BLOCK)):
                    out[:, block] = read(x[block], moments)
        return [o.reshape(np.shape(r)) if np.ndim(r) else float(o[0]) for o in out]

    def _start(self, r, moments):
        """_logs at radii r < r_lo, from the series where psi ~ r that
        _tabulate starts from: geometry_start, and W/J = (1+mu)/(n+1+mu)
        from the series of U, I and J."""
        log_WJ = math.log((1.0 + self.mu) / (self.n + 1.0 + self.mu))
        return [*geometry_start(r, self.n, self.p), np.full(r.shape, log_WJ)][:moments + 1]

    def _fine(self, r, moments):
        """_logs at radii r <= r_switch, from the panel edge below each."""
        edges = self._edges
        k = np.clip(np.searchsorted(edges, r, side="right") - 1, 0, len(edges) - 2)
        Gr = self._G(r)
        decay, wt, ker, inc = self._panels(edges[k], r, self._Gedge[k], Gr)
        log_theta = np.log(self._theta[k] * decay + inc)
        if not moments:
            return [log_theta]
        dlog = self._moments(self._theta[k], decay, wt, ker, Gr, U=moments == 2)
        log_J = np.logaddexp(self._logJ[k], dlog[0])
        if moments == 1:
            return [log_theta, log_J]
        log_W = np.logaddexp(self._logU[k], dlog[1]) - log_theta - Gr
        return [log_theta, log_J, log_W - log_J]

    def _beyond(self, r, moments):
        """_logs at radii r > r_switch: Theta from _theta_qe, and J at the
        tail edge below each radius plus _tail_increments from there, which
        also forms Theta at r.

        W relaxes as W' = Theta^mu - W/Theta. It is read as
        W = Theta^(1+mu) V, where V stays near 1 and relaxes as
        V' = 1/Theta - (1 + (1+mu) Theta') V/Theta (_relax_qe), with
        Theta' = 1 - G' Theta from Theta's relaxation. The central
        differences of V cost about 3e-11 in log W at the switch, where
        those of W itself cost 1e-10.
        """
        if not moments:
            return [np.log(self._theta_qe(r))]
        tail = self._tail
        k = np.clip(np.searchsorted(tail, r, side="right") - 1, 0, len(tail) - 2)
        dlog_J, theta = self._tail_increments(tail[k], r, r)
        log_theta = np.log(theta)
        log_J = np.logaddexp(self._tail_logJ[k], dlog_J)
        if moments == 1:
            return [log_theta, log_J]
        mu = self.mu

        def coefficients(x):
            theta = self._theta_qe(x)
            dtheta = 1.0 - (self.n - 1) * self.model.slope_ratio(x) * theta
            return 1.0 / theta, (1.0 + (1.0 + mu) * dtheta) / theta

        return [log_theta, log_J, (1.0 + mu) * log_theta
                + np.log(self._relax_qe(r, coefficients)) - log_J]

    def theta(self, r):
        return np.exp(self._logs(r)[0])

    def logI(self, r):
        return self._logs(r)[0] + self._G(np.atleast_1d(r)).reshape(np.shape(r))

    def I(self, r):
        return np.exp(np.minimum(self.logI(r), _EXP_CAP))

    def J(self, r):
        return np.exp(self._logs(r, 1)[1])

    def theta_J(self, r):
        """(Theta, J) at radii r from one lookup: the floats of theta(r) and J(r)."""
        return tuple(map(np.exp, self._logs(r, 1)))

    def tailJ(self, r):
        """int_r^inf Theta^(1/(p-1)); finite only when the tail converged."""
        if not self.tail_converged:
            raise QuadratureFailure(
                "tail of Theta^(1/(p-1)) did not converge at the extended horizon"
            )
        return self.J_inf - self.J(r)

    def hp_fail_proxy(self, r):
        """The liminf quotient deciding failure of the sharp decay law: W/J."""
        return np.exp(self._logs(r, 2)[2])

    def export_csv(self, path):
        """Write r, psi, dpsi, ddpsi, I, theta, J rows up to the user horizon."""
        r = np.geomspace(max(self.r_lo * 10, self.R * 1e-6), self.R, _CSV_ROWS)
        log_theta, log_J = self._logs(r, 1)
        I = np.exp(np.minimum(log_theta + self._G(r), _EXP_CAP))
        return runio.write_csv(
            path, ["r", "psi", "dpsi", "ddpsi", "I", "theta", "J"],
            [r, *self.model.eval(r), I, np.exp(log_theta), np.exp(log_J)])


def safe_horizon(model, n):
    """Largest radius where psi^(n-1) (plus headroom) stays representable."""
    limit = (_EXP_CAP - _HORIZON_MARGIN) / max(n - 1, 1)

    lo, hi = 1.0, min(model.valid_to, 1e8)
    if model.log_psi(hi) <= limit:
        return hi
    while model.log_psi(lo) > limit:
        lo *= 0.5
    return _bisect(lambda r: model.log_psi(r) > limit, lo, hi)[0]


def _bisect(holds, lo, hi):
    """Halve [lo, hi], where holds(lo) is false and holds(hi) true, until
    the midpoint equals an end (no later step would move either), and
    return that (lo, hi): holds(hi) is still true and holds(lo) false."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo, hi
        if holds(mid):
            hi = mid
        else:
            lo = mid


def geometry_start(r, n, p):
    """(log Theta, log J) at small r from the series where psi ~ r:
    Theta ~ r/n and J ~ r^(1+mu) / (n^mu (1+mu)), mu = 1/(p-1)."""
    mu = 1.0 / (p - 1.0)
    return (np.log(r / n),
            (1.0 + mu) * np.log(r) - mu * math.log(n) - math.log(1.0 + mu))


def geometry_profile(model, n, p, R):
    """Tabulate Theta, J (and the liminf proxy) for a model up to horizon R.

    Theta = I/psi^(n-1), J = int_0^r Theta^(1/(p-1)) and W = U/I are
    cumulative quadratures of functions the model evaluates as arrays; see
    GeometryProfile for the panel rule and the range it covers.
    """
    _check_n_p(n, p)
    if R > model.valid_to:
        raise GeometryOverflow(
            f"horizon {R:g} exceeds the model's trusted range {model.valid_to:g}"
        )
    return GeometryProfile(model, n, p, R)


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


def detect_regime(profile):
    """Fit the asymptotic regime of psi'/psi near the extended horizon.

    Estimates gamma from the log-log slope of f = psi'/psi, distinguishes
    the plateau case (r^gamma f -> ell), the divergent case with vanishing
    relative drift of log f, and the power-like case gamma ~ 1; also samples
    the liminf quotient that certifies failure of the sharp decay law.
    """
    model = profile.model
    r_hi = profile.r_hi
    r = np.geomspace(r_hi / 10**_REGIME_WINDOW_DECADES, r_hi, 48)
    f = np.asarray(model.slope_ratio(r), dtype=float)
    logr, logf = np.log(r), np.log(f)
    slopes = -np.gradient(logf, logr)  # local gamma estimate
    gamma_hat = _median(slopes[len(slopes) // 2 :])
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
        ell = _median(r * f)
        return RegimeTag("power-like", gamma=1.0, ell=ell, hp_fail=True, evidence=evidence)
    gamma = 0.0 if abs(gamma_hat) < 0.05 else gamma_hat
    ell = _median(r**gamma * f)
    return RegimeTag("hp-add-1", gamma=gamma, ell=ell, hp_fail=hp_fail, evidence=evidence)


def classify_completeness(profile):
    """Decide whether Theta^(1/(p-1)) is integrable on the half line.

    Convergence is certified by the extended-horizon quadrature stabilizing
    (profile.tail_converged); divergence by a fitted growth law of J over
    the last two dyadic windows, read off the profile's kept J_ladder. Only
    J(R) is looked up here; the regime is the profile's kept one, "unknown"
    where none fits.
    """
    r_hi = profile.r_hi
    J_quarter, J_half, J_end = profile.J_ladder
    try:
        regime = profile.regime
    except AmbiguousRegime as exc:
        regime = RegimeTag("unknown", evidence={"error": str(exc)})

    if profile.tail_converged:
        tail = profile.J_inf - profile.J(profile.R)
        return CompletenessVerdict("pSI", r_hi, J_end, tail, regime)

    # growth-law fit over the last two dyadic windows
    g1 = math.log(J_end / J_half) / math.log(2.0)
    g2 = math.log(J_half / J_quarter) / math.log(2.0)
    if g1 > 0.25 and g2 > 0.25 and J_end >= 1.5 * J_half:
        return CompletenessVerdict("pSC", r_hi, J_end, math.inf, regime)
    return CompletenessVerdict("Inconclusive", r_hi, J_end, math.nan, regime)
