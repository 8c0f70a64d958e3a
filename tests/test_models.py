"""Model catalog, gluing, geometry quadratures and the dichotomy verdict."""

import bisect
import math
import tracemalloc

import numpy as np
import pytest

import plaplace as pl
from plaplace import dense, models, solver


# ---------------------------------------------------------------------------
# catalog closed forms
# ---------------------------------------------------------------------------

def test_euclidean_values():
    eu = pl.make_model("euclidean")
    psi, dpsi, ddpsi = eu.eval(2.0)
    assert psi == 2.0
    assert dpsi == 1.0
    assert ddpsi == 0.0


def test_hyperbolic_is_sinh():
    hy = pl.make_model("hyperbolic")
    r = np.array([0.1, 1.0, 5.0])
    assert np.allclose(hy.psi(r), np.sinh(r), rtol=1e-14)
    assert np.allclose(hy.eval(r)[1], np.cosh(r), rtol=1e-14)
    assert np.allclose(hy.eval(r)[2], np.sinh(r), rtol=1e-14)


def test_exppower_closed_form():
    m = pl.make_model("exppower:c=1,m=3")
    r = np.array([0.5, 1.0, 2.0])
    assert np.allclose(m.psi(r), r * np.exp(r ** 3), rtol=1e-13)
    # psi' = (1 + 3 c r^3) e^{c r^3}
    assert np.allclose(m.eval(r)[1], (1 + 3 * r ** 3) * np.exp(r ** 3),
                       rtol=1e-13)


def test_powerlike_closed_form():
    m = pl.make_model("powerlike:k=3")
    r = np.array([0.5, 1.0, 4.0])
    assert np.allclose(m.psi(r), r * (1 + r ** 2), rtol=1e-13)


def test_catalog_audit_passes():
    for desc in ["euclidean", "hyperbolic", "exppower:c=1,m=3",
                 "powerlike:k=2", "expgamma:c=1,gamma=0.5"]:
        model = pl.make_model(desc)  # audit runs inside make_model
        pl.audit_model(model)


def _expgamma_closed_form(r):
    # psi = r e^phi, phi = (1+r^2)^(1/4) - 1 (c = 1, gamma = 1/2)
    e = np.exp((1 + r * r) ** 0.25 - 1)
    d1 = 0.5 * r * (1 + r * r) ** -0.75
    d2 = (0.5 - 0.25 * r * r) * (1 + r * r) ** -1.75
    return r * e, e * (1 + r * d1), e * (2 * d1 + r * d1 * d1 + r * d2)


# psi, psi', psi'' of each catalog model, written out by hand
_CLOSED_FORMS = {
    "euclidean": lambda r: (r, np.ones_like(r), np.zeros_like(r)),
    "hyperbolic": lambda r: (np.sinh(r), np.cosh(r), np.sinh(r)),
    "exppower:c=1,m=3": lambda r: (
        r * np.exp(r ** 3), (1 + 3 * r ** 3) * np.exp(r ** 3),
        3 * r ** 2 * (4 + 3 * r ** 3) * np.exp(r ** 3)),
    "powerlike:k=2": lambda r: (
        r * np.sqrt(1 + r * r), (1 + 2 * r * r) / np.sqrt(1 + r * r),
        r * (3 + 2 * r * r) / (1 + r * r) ** 1.5),
    "expgamma:c=1,gamma=0.5": _expgamma_closed_form,
}


def test_log_psi_consistent_with_psi():
    """The log-space triple of every catalog model, and the psi, psi', psi''
    derived from it, match the closed forms."""
    r = np.geomspace(1e-6, 5.0, 200)
    for desc, closed_form in _CLOSED_FORMS.items():
        m = pl.make_model(desc)
        psi, dpsi, ddpsi = closed_form(r)
        assert np.allclose(m.log_psi(r), np.log(psi), rtol=0.0, atol=1e-13), desc
        assert np.allclose(m.slope_ratio(r), dpsi / psi, rtol=1e-13, atol=0.0), desc
        assert np.allclose(m.curvature_ratio(r), ddpsi / psi, rtol=1e-13,
                           atol=0.0), desc
        for got, want in zip(m.eval(r), (psi, dpsi, ddpsi)):
            assert np.allclose(got, want, rtol=1e-13, atol=0.0), desc


def test_hyperbolic_log_psi_near_the_pole():
    """log sinh r keeps its digits down to the geometry quadrature's first
    radius, 1e-8."""
    r = np.geomspace(1e-8, 300.0, 2000)
    lp = pl.make_model("hyperbolic").log_psi(r)
    assert np.max(np.abs(lp - np.log(np.sinh(r)))) <= 1e-14


def test_descriptor_roundtrip():
    for desc in ["euclidean", "exppower:c=1,m=3", "powerlike:k=2",
                 "expgamma:c=1,gamma=0.5", "exppower:c=1.0000001,m=3"]:
        m = pl.make_model(desc)
        again = pl.make_model(pl.descriptor_string(m))
        assert type(again) is type(m)
        assert again.params() == m.params()


def test_parse_descriptor_errors():
    with pytest.raises(pl.InvalidParameter):
        pl.make_model("nosuchkind")
    with pytest.raises(pl.InvalidParameter):
        pl.make_model("exppower:c=1")  # missing m
    for extra in ("hyperbolic:x=1", "exppower:c=1,m=3,k=9", "powerlike:k=2,c=5"):
        with pytest.raises(pl.InvalidParameter):
            pl.make_model(extra)  # a parameter the kind does not take
    with pytest.raises(pl.InvalidParameter):
        pl.parse_descriptor("exppower:c=1,c=2,m=3")
    with pytest.raises(pl.InvalidParameter):
        pl.parse_descriptor("exppower:c")


def test_invalid_model_parameters():
    with pytest.raises(pl.InvalidParameter):
        pl.make_model("exppower:c=-1,m=3")
    with pytest.raises(pl.InvalidParameter):
        pl.make_model("expgamma:c=1,gamma=1.5")
    with pytest.raises(pl.InvalidParameter):
        pl.make_model("powerlike:k=0.5")


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_dimension_is_invalid(bad):
    """Every integer test on n refuses inf and NaN as InvalidParameter,
    before int() could raise OverflowError or ValueError; and p = 1, p = n
    and p = NaN are refused alike, by the three constructors' one check."""
    for n, p in ((bad, 2.0), (3, 1.0), (3, 3.0), (3, math.nan)):
        with pytest.raises(pl.InvalidParameter):
            pl.Problem(n, p, 5.0, 1.0)
        with pytest.raises(pl.InvalidParameter):
            pl.geometry_profile(pl.make_model("euclidean"), n, p, 10.0)
        with pytest.raises(pl.InvalidParameter):
            pl.AubinTalenti(n, p)


def test_audit_refuses_nan_at_the_pole():
    """The psi(0) = 0, psi'(0) = 1 audit fails NaN: an infinite c makes
    psi/r NaN at r = 1e-8 on expgamma."""
    model = models.ExpGamma(1.0, 0.5)
    model.c = math.inf
    with np.errstate(invalid="ignore"), pytest.raises(pl.InvalidParameter,
                                                      match="violates"):
        pl.audit_model(model)


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------

def test_glue_euclidean_hyperbolic():
    glued = pl.glue_models(
        [(pl.make_model("euclidean"), 0.0), (pl.make_model("hyperbolic"), 1.0)],
        blend_width=0.1,
    )
    r = np.geomspace(1e-3, 20.0, 400)
    psi, dpsi, ddpsi = glued.eval(r)
    assert np.all(ddpsi >= -1e-12 * np.maximum(psi, 1.0))
    # psi and psi' continuous across the join: audit on a fine straddle
    eps = 1e-7
    for x in (1.0, 1.05, 1.1):
        lo, hi = glued.psi(x - eps), glued.psi(x + eps)
        assert abs(hi - lo) / hi < 1e-6
        lo, hi = glued.eval(x - eps)[1], glued.eval(x + eps)[1]
        assert abs(hi - lo) / hi < 1e-6
    # below the join the glued model equals its first piece exactly
    below = r[r < 1.0]
    assert np.allclose(glued.psi(below), below, rtol=1e-12)


def test_single_piece_and_glued_models_pass_through():
    """glue_models of one piece returns that model, and as_glued returns a
    Glued model itself rather than wrapping it again."""
    hy = pl.make_model("hyperbolic")
    assert pl.glue_models([(hy, 0.0)], blend_width=0.1) is hy
    glued = models.as_glued(hy)
    assert isinstance(glued, pl.Glued) and models.as_glued(glued) is glued


def test_glue_rejects_bad_joins():
    eu = pl.make_model("euclidean")
    hy = pl.make_model("hyperbolic")
    with pytest.raises(pl.InvalidParameter):
        pl.glue_models([(eu, 0.0), (hy, 2.0), (eu, 1.0)], blend_width=0.1)
    with pytest.raises(pl.InvalidParameter):
        pl.glue_models([(eu, 0.0), (hy, 1.0)], blend_width=0.0)


def test_glue_refuses_horizon_before_last_join():
    """A horizon at or before the last join would continue the last piece
    backward; it is refused instead of returning a model whose log psi
    falls past the join."""
    eu, hy = pl.make_model("euclidean"), pl.make_model("hyperbolic")
    for horizon in (3.0, 5.0):
        with pytest.raises(pl.InvalidParameter):
            pl.glue_models([(eu, 0.0), (hy, 5.0)], 0.1, horizon=horizon)


def test_glued_prefix_sharing():
    base = models.as_glued(pl.make_model("euclidean"))
    ext = base.extended(2.0, 30.0, 0.0, 4.0, 0.5)
    r = np.geomspace(1e-3, 1.9, 50)
    assert np.allclose(ext.psi(r), base.psi(r), rtol=0.0, atol=0.0)


def test_extension_refuses_backward_range():
    """An end at or before the start, a start at or before the last join
    or past the model's range, and a width <= 0 are refused."""
    base = models.as_glued(pl.make_model("euclidean"))
    for start, end in ((5.0, 2.0), (5.0, 5.0)):
        with pytest.raises(pl.InvalidParameter):
            base.extended(start, end, 1.0, 1.0, 0.5)
    ext = base.extended(2.0, 10.0, 0.0, 1.0, 0.5)
    for start in (2.0, 1.0, 10.5):
        with pytest.raises(pl.InvalidParameter):
            ext.extended(start, 20.0, 1.0, 0.0, 0.5)
    with pytest.raises(pl.InvalidParameter):
        base.extended(1.0, 5.0, 0.0, 1.0, 0.0)


class _CurvatureNanPast(models.Hyperbolic):
    """The hyperbolic model with psi''/psi turned NaN past r = 1.5."""

    def curvature_ratio(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 1.5, np.nan, super().curvature_ratio(r))


def test_glue_refuses_window_run_that_fails():
    """A segment whose target curvature ratio turns NaN past r = 1.5 stops
    its window run there, the step size collapsing: the gluing raises
    QuadratureFailure at that radius, short of the segment's end."""
    eu = pl.make_model("euclidean")
    with pytest.raises(pl.QuadratureFailure, match=r"ended at r=1\.5 < 5: failed"):
        pl.glue_models([(eu, 0.0), (_CurvatureNanPast(), 1.0)], 0.5, horizon=5.0)


def test_extension_refuses_negative_curvature():
    base = models.as_glued(pl.make_model("euclidean"))
    for m_from, m_to in ((-1.0, -1.0), (-1.0, 0.0), (0.0, -1.0), (0.0, math.nan)):
        with pytest.raises(pl.ConvexityViolation):
            base.extended(1.0, 5.0, m_from, m_to, 0.5)


class _FlatPast2(models.Euclidean):
    """psi = r up to r = 2; past it, the method named `name` (log_psi,
    slope_ratio or curvature_ratio) reads `value`."""

    def __init__(self, name, value):
        self.name, self.value = name, value

    def _past(self, name, r, base):
        return np.where(np.asarray(r) > 2.0, self.value, base) if name == self.name else base

    def log_psi(self, r):
        return self._past("log_psi", r, super().log_psi(r))

    def slope_ratio(self, r):
        return self._past("slope_ratio", r, super().slope_ratio(r))

    def curvature_ratio(self, r):
        return self._past("curvature_ratio", r, super().curvature_ratio(r))


class _HalfPast2(models.Euclidean):
    """psi = r/2 past r = 2, with psi' = 1 there: below r, not below 1."""

    def log_psi(self, r):
        r = np.asarray(r, dtype=float)
        return np.log(np.where(r > 2.0, r / 2.0, r))

    def slope_ratio(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 2.0, 2.0, 1.0) / r


@pytest.mark.parametrize("model, message", [
    (_FlatPast2("curvature_ratio", -1.0), r"psi'' < 0 or NaN near r=2\."),
    (_FlatPast2("slope_ratio", 0.25), r"psi' < 1 or NaN"),
    (_HalfPast2(), r"psi < r or NaN"),
    (_FlatPast2("curvature_ratio", math.nan), r"psi'' < 0 or NaN near r=2\."),
    (_FlatPast2("slope_ratio", math.nan), r"psi' < 1 or NaN"),
    (_FlatPast2("log_psi", math.nan), r"psi'' < 0 or NaN near r=2\."),
], ids=["concave", "slope-below-1", "psi-below-r", "curvature-nan", "slope-nan",
        "log-psi-nan"])
def test_audit_refuses_each_violation_and_nan(model, message):
    """Each ConvexityViolation branch of audit_model fires on a flat model
    that breaks it past r = 2, and NaN in any ratio fails the audit too."""
    with pytest.raises(pl.ConvexityViolation, match=message):
        pl.audit_model(model)


# ---------------------------------------------------------------------------
# glued-model evaluation: scalar and array lookups
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def glued3():
    """Euclidean base plus three continuations joined at r = 1, 2, 3."""
    pieces = [(pl.make_model("euclidean"), 0.0), (pl.make_model("hyperbolic"), 1.0),
              (pl.make_model("powerlike:k=2"), 2.0), (pl.make_model("hyperbolic"), 3.0)]
    glued = pl.glue_models(pieces, blend_width=0.2, horizon=6.0)
    assert len(glued.segments) == 3
    return glued


def _within_ulps(a, b, ulps):
    return np.all(np.abs(a - b) <= ulps * np.spacing(np.abs(b)))


def test_glued_scalar_and_array_agree(glued3):
    r = np.concatenate([np.linspace(1e-3, 8.0, 997), [1.0, 2.0, 3.0, 6.0]])
    for name in ("log_psi", "slope_ratio"):
        f = getattr(glued3, name)
        scalar = np.array([f(float(x)) for x in r])
        assert _within_ulps(f(r), scalar, 4), name


def test_glued_equals_base_below_first_join(glued3):
    base = glued3.base
    r = np.geomspace(1e-4, 1.0, 200, endpoint=False)
    assert np.array_equal(glued3.log_psi(r), base.log_psi(r))
    assert np.array_equal(glued3.slope_ratio(r), base.slope_ratio(r))
    for x in r[::37]:
        assert glued3.log_psi(float(x)) == base.log_psi(float(x))
        assert glued3.slope_ratio(float(x)) == base.slope_ratio(float(x))


class _Spy:
    """A glued model's piece reader that logs its index on every method read."""

    def __init__(self, reader, k, log):
        self._reader, self._k, self._log = reader, k, log

    def __getattr__(self, name):
        self._log.append(self._k)
        return getattr(self._reader, name)


def test_glued_joins_and_horizon_clamp(glued3):
    """A piece's start radius reads that piece and the radius just below it
    the previous piece, as a scalar and in an array; radii past the last
    segment's end read that end. On glued3 (one tabulated piece per
    segment) and on a segment whose window is followed by a closed-form
    stretch; _readers[k] is the piece starting at _starts[k - 1],
    _readers[0] the base."""
    import copy

    stretch = models.as_glued(pl.make_model("euclidean")).extended(
        1.0, 9.0, 0.0, 4.0, 0.5)
    assert glued3._starts == [1.0, 2.0, 3.0] and stretch._starts == [1.0, 1.5]
    names = ("log_psi", "slope_ratio", "curvature_ratio")
    for model in (glued3, stretch):
        read = []
        spied = copy.copy(model)
        spied._readers = tuple(_Spy(reader, k, read) for k, reader in enumerate(model._readers))
        for k, start in enumerate(model._starts, start=1):
            below = np.nextafter(start, 0.0)
            for name in names:
                for r, expect in ((start, [k]), (below, [k - 1]),
                                  (np.array([start, below]), [k - 1, k])):
                    read.clear()
                    assert np.array_equal(getattr(spied, name)(r), getattr(model, name)(r))
                    assert read == expect, (name, r)
        end = model.segments[-1].end
        for x in (end + 1e-9, end + 1.0, 1e3):
            for name in names:
                assert getattr(model, name)(x) == getattr(model, name)(end)
        past = model.log_psi(np.array([end, end + 1.0, 1e3]))
        assert _within_ulps(past, np.full(3, model.log_psi(end)), 4)


def test_glued_output_shapes(glued3):
    for r in (2.5, np.float64(2.5), np.array(2.5), 0.5, np.array(7.0)):
        assert type(glued3.log_psi(r)) is float
        assert type(glued3.slope_ratio(r)) is float
        assert type(glued3.curvature_ratio(r)) is float
    flat = np.linspace(0.5, 7.0, 12)
    grid = flat.reshape(3, 4)
    for name in ("log_psi", "slope_ratio", "curvature_ratio"):
        f = getattr(glued3, name)
        assert f(flat).shape == (12,)
        assert f(grid).shape == (3, 4)
        assert np.array_equal(f(grid), f(flat).reshape(3, 4))
        assert f(np.empty(0)).shape == (0,)


def test_glued_array_lookup_is_one_call_per_segment(glued3, monkeypatch):
    """An array lookup evaluates each numeric table it touches once, and
    none for radii that lie only in closed-form stretches."""
    from plaplace import dense

    calls = []
    original = dense._DenseTable.__call__

    def counting(self, t, c=None):
        calls.append(self)
        return original(self, t, c)

    monkeypatch.setattr(dense._DenseTable, "__call__", counting)
    tables = [reader.table for reader in glued3._readers[1:]]
    for lo, hi, touched in ((0.1, 0.9, []), (0.5, 2.5, tables[:2]),
                            (0.5, 9.0, tables), (3.5, 9.0, tables[2:])):
        calls.clear()
        glued3.log_psi(np.linspace(lo, hi, 10_000))
        assert calls == touched, (lo, hi)

    flat = pl.make_model("euclidean")
    model = models.as_glued(flat).extended(1.0, 30.0, 0.0, 4.0, 0.5) \
        .extended(5.0, 40.0, 4.0, 0.0, 0.5)
    windows = [model._readers[1].table, model._readers[3].table]
    for lo, hi, touched in ((0.1, 0.9, []), (1.5, 4.9, []), (6.0, 50.0, []),
                            (0.5, 1.2, windows[:1]), (1.2, 12.0, windows)):
        for name in ("log_psi", "slope_ratio"):
            calls.clear()
            getattr(model, name)(np.linspace(lo, hi, 10_000))
            assert calls == touched, (name, lo, hi)



def _read_by_reductions(model, name, r):
    """Glued._read on an array as it read before few radii were sorted: the
    piece from numpy's min and max of the radii."""
    r = np.asarray(r, dtype=float)
    starts, readers = model._starts, model._readers
    lo, hi = r.min(), r.max()
    if hi > model.valid_to:
        r = np.minimum(r, model.valid_to)
    k = bisect.bisect_right(starts, lo)
    if k == bisect.bisect_right(starts, hi):
        return getattr(readers[k], name)(r)
    out = np.empty(r.shape)
    idx = np.searchsorted(starts, r, side="right")
    for k in np.unique(idx):
        pick = idx == k
        out[pick] = getattr(readers[k], name)(r[pick])
    return out


def test_glued_few_radii_read_as_by_reductions(glued3):
    """The 3 radii of a Radau step and the 15 of a DOP853 step (in the
    stepper's order, not sorted) read the floats of the piece numpy's min
    and max pick: inside one piece, across two, past the model's end, and
    with a NaN, which sends all the radii to the last piece."""
    stretch = models.as_glued(pl.make_model("euclidean")).extended(
        1.0, 9.0, 0.0, 4.0, 0.5)
    nan = math.nan
    for model in (glued3, stretch):
        end = model.segments[-1].end
        arrays = []
        for t, h in ((1.1, 0.1), (0.9, 0.2), (1.45, 0.1), (end - 0.5, 1.0)):
            arrays += [t + h * solver._RADAU_C, t + h * solver._FRACTIONS]
        arrays += [np.array([1.1, nan, 1.2]), np.array([nan, 0.5, 0.7]),
                   np.append(np.linspace(0.5, 2.5, 14), nan),
                   np.array([end + 1.0, nan, 0.5]), np.array([-math.inf, 1.2, math.inf])]
        for r in arrays:
            for name in ("log_psi", "slope_ratio", "curvature_ratio"):
                with np.errstate(invalid="ignore", divide="ignore"):
                    got, want = getattr(model, name)(r), _read_by_reductions(model, name, r)
                assert np.array_equal(got, want, equal_nan=True), (name, r)

def _smooth(x):
    x = min(max(x, 0.0), 1.0)
    return x * x * (3.0 - 2.0 * x)


def _oracle_misfit(model, pieces):
    """Largest misfit of model.log_psi and slope_ratio, in units of their
    bounds 1e-11 max(1, |L|) and 1e-11 |s|, against a stock DOP853 solve of
    (L, s)' = (s, m - s^2) at rtol 1e-13, on pieces (join, end, width, m)
    after a flat start psi = r. The solve restarts at each join and at each
    window's end, where m'' jumps, and is compared at 201 radii on each."""
    from scipy.integrate import solve_ivp

    worst = 0.0
    y = [math.log(pieces[0][0]), 1.0 / pieces[0][0]]
    for join, end, width, m in pieces:
        for a, b in ((join, join + width), (join + width, end)):
            ode = solve_ivp(lambda r, y, m=m: [y[1], m(r) - y[1] ** 2], (a, b), y,
                            method="DOP853", rtol=1e-13, atol=1e-16,
                            dense_output=True)
            r = np.linspace(a, b, 201)
            L, s = ode.sol(r)
            worst = max(worst,
                        np.max(np.abs(model.log_psi(r) - L) / np.maximum(1.0, np.abs(L))),
                        np.max(np.abs(model.slope_ratio(r) - s) / s))
            y = ode.y[:, -1]
    return worst / 1e-11


def _oscillation_pieces(cert, scale=1.0):
    """The construction's continuations from its certificate: stage k joins
    at trigger k-1 and ramps psi''/psi over 0.5 from (2(k-1))^2 down to 0
    (even k) or from 0 up to (2k)^2 (odd k); sigma is scaled by `scale`."""
    joins = [entry["r"] for entry in cert.stages[:-1]]
    ends = joins[1:] + [cert.stages[-1]["r"]]
    pieces = []
    for k, (join, end) in enumerate(zip(joins, ends), start=1):
        if k % 2:
            def m(r, j=join, s2=(2.0 * k * scale) ** 2):
                return s2 * _smooth((r - j) / 0.5)
        else:
            def m(r, j=join, s2=(2.0 * (k - 1) * scale) ** 2):
                return s2 * (1.0 - _smooth((r - j) / 0.5))
        pieces.append((join, end, 0.5, m))
    return pieces


def test_glued_geometry_against_oracle(oscillation, glued3):
    """log psi and psi'/psi of the 4-stage construction's model (inside every
    window and along every closed-form tail, up to the last trigger) and of
    glued3 match an independent DOP853 solve within 1e-11; with sigma
    scaled by 1 + 1e-9 the oscillation's oracle misses by far."""
    cert = oscillation.cert
    assert _oracle_misfit(oscillation.model, _oscillation_pieces(cert)) < 1.0
    assert _oracle_misfit(oscillation.model, _oscillation_pieces(cert, 1 + 1e-9)) > 10.0

    eu, hy, pk = (pl.make_model(d) for d in ("euclidean", "hyperbolic", "powerlike:k=2"))

    def blend(join, a, b):
        def m(r):
            S = _smooth((r - join) / 0.2)
            return (1.0 - S) * float(a.curvature_ratio(r)) + S * float(b.curvature_ratio(r))
        return m

    pieces = [(1.0, 2.0, 0.2, blend(1.0, eu, hy)), (2.0, 3.0, 0.2, blend(2.0, hy, pk)),
              (3.0, 6.0, 0.2, blend(3.0, pk, hy))]
    assert _oracle_misfit(glued3, pieces) < 1.0


# ---------------------------------------------------------------------------
# geometry profile
# ---------------------------------------------------------------------------

def test_euclidean_theta_is_r_over_n():
    eu = pl.make_model("euclidean")
    prof = pl.geometry_profile(eu, 3, 2.0, 10.0)
    assert abs(prof.theta(2.0) - 2.0 / 3.0) < 1e-14
    r = np.geomspace(0.01, 10.0, 30)
    assert np.allclose(prof.theta(r), r / 3.0, rtol=1e-13, atol=0.0)
    # J = r^2 / (2n) for p = 2
    assert np.allclose(prof.J(r), r ** 2 / 6.0, rtol=1e-13, atol=0.0)


def test_profile_range_guard():
    """Every read refuses a radius past the tabulated range, and NaN alone
    or among good radii, without a warning."""
    eu = pl.make_model("euclidean")
    prof = pl.geometry_profile(eu, 3, 2.0, 10.0)
    for read in (prof.theta, prof.J, prof.I, prof.theta_J, prof.hp_fail_proxy):
        for r in (prof.r_hi * 10.0, math.nan, [0.5, math.nan]):
            with pytest.raises(pl.GeometryOverflow):
                read(r)


def test_hyperbolic_theta_saturates():
    hy = pl.make_model("hyperbolic")
    prof = pl.geometry_profile(hy, 3, 2.0, 50.0)
    # Theta -> 1/(n-1) since psi'/psi -> 1; at r = 40 the gap is e^-80
    assert abs(prof.theta(40.0) - 0.5) < 1e-13


def _hyperbolic_theta(r, n):
    """Theta = int_0^r sinh^(n-1) / sinh^(n-1) r in closed form, n = 3 or 5.

    int sinh^2 = (sinh 2r - 2r)/4 and int sinh^4 = sinh 4r/32 - sinh 2r/4 +
    3r/8. Below r = 1 the integral is summed from its Taylor series (the
    closed forms cancel there); above, numerator and denominator are
    scaled by e^{-(n-1) r} so nothing overflows.
    """
    r = np.asarray(r, dtype=float)
    small = np.minimum(r, 1.0)
    num = np.zeros_like(r)
    for j in range(1 if n == 3 else 2, 30):
        c = 2.0 ** (2 * j - 1) if n == 3 else 2.0 ** (4 * j - 3) - 2.0 ** (2 * j - 1)
        num += c * small ** (2 * j + 1) / math.factorial(2 * j + 1)
    e = np.exp(-2.0 * r)
    if n == 3:
        big = ((1.0 - e * e) / 2.0 - 2.0 * r * e) / (1.0 - e) ** 2
    else:
        big = ((1.0 - e ** 4) / 4.0 - 2.0 * (e - e ** 3) + 6.0 * r * e * e) / (1.0 - e) ** 4
    return np.where(r < 1.0, num / np.sinh(small) ** (n - 1), big)


@pytest.mark.parametrize("n", [3, 5])
def test_hyperbolic_theta_and_I_oracle(n):
    """Theta and log I against the elementary closed forms on [1e-3, 200],
    at the accuracy the panel quadrature reaches (about 2e-14)."""
    hy = pl.make_model("hyperbolic")
    prof = pl.geometry_profile(hy, n, 2.0, 200.0)
    r = np.geomspace(1e-3, 200.0, 400)
    log_theta = np.log(_hyperbolic_theta(r, n))
    log_sinh = r + np.log(-np.expm1(-2.0 * r)) - math.log(2.0)
    assert np.max(np.abs(np.log(prof.theta(r)) - log_theta)) < 1e-13
    assert np.max(np.abs(prof.logI(r) - (log_theta + (n - 1) * log_sinh))) < 1e-13


@pytest.mark.parametrize("n", [3, 5])
def test_exppower_theta_against_quad(n):
    """Theta = int_0^r e^{G(s) - G(r)} ds by adaptive quadrature, with
    breakpoints where G has dropped by 1, 2, 4, ... 32 below G(r), on both
    sides of the switch to the quasi-equilibrium expansion."""
    from scipy.integrate import quad

    ep = pl.make_model("exppower:c=1,m=3")
    prof = pl.geometry_profile(ep, n, 2.0, 5.0)

    def G(s):
        return (n - 1) * float(ep.log_psi(s))

    def theta(x):
        g = (n - 1) * float(ep.slope_ratio(x))
        points = sorted(b for b in (x - k / g for k in (1, 2, 4, 8, 16, 32)) if 0 < b < x)
        return quad(lambda s: math.exp(G(s) - G(x)), 0.0, x, points=points,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]

    switch = prof.r_switch
    panels = [0.01, 0.5, 1.0, 2.0, pl.safe_horizon(ep, n), 0.9 * switch]
    expansion = [1.5 * switch, 3.0 * switch]
    assert max(abs(np.log(prof.theta(x)) - math.log(theta(x))) for x in panels) < 1e-12
    assert max(abs(np.log(prof.theta(x)) - math.log(theta(x))) for x in expansion) < 1e-10
    # the expansion takes over from the panels without a visible step
    assert abs(np.log(prof.theta(switch * (1 + 1e-12))) - np.log(prof.theta(switch))) < 1e-9


def test_hp_fail_proxy_has_no_seam_at_the_switch():
    """W/J read from the panels at r_switch and from the quasi-equilibrium
    expansion one float past it agree to 1e-10 in log, on every catalog
    model that switches, at (n, p) in (2,1.5), (3,2), (4,3), (5,1.5), (5,4)."""
    switching = 0
    for descriptor in ("euclidean", "hyperbolic", "exppower:c=1,m=3", "powerlike:k=2",
                       "expgamma:c=1,gamma=0.5"):
        model = pl.make_model(descriptor)
        for n, p in ((2, 1.5), (3, 2.0), (4, 3.0), (5, 1.5), (5, 4.0)):
            prof = pl.geometry_profile(model, n, p, 20.0)
            if prof.r_switch == prof.r_hi:
                continue
            switching += 1
            past = np.nextafter(prof.r_switch, math.inf)
            seam = math.log(prof.hp_fail_proxy(past) / prof.hp_fail_proxy(prof.r_switch))
            assert abs(seam) < 1e-10, (descriptor, n, p)
    assert switching >= 10


def test_glued_theta_against_ode():
    """Across the join of a euclidean -> hyperbolic gluing, Theta matches a
    tight DOP853 solve of Theta' = 1 - (n-1) (psi'/psi) Theta."""
    from scipy.integrate import solve_ivp

    glued = pl.glue_models([(pl.make_model("euclidean"), 0.0),
                            (pl.make_model("hyperbolic"), 2.0)], blend_width=0.5)
    prof = pl.geometry_profile(glued, 3, 2.0, 20.0)
    r0 = 1e-4  # Theta = r/3 there to 1e-16 on the flat piece
    ref = solve_ivp(lambda t, y: [1.0 - 2.0 * float(glued.slope_ratio(t)) * y[0]],
                    (r0, 6.0), [r0 / 3.0], method="DOP853", rtol=1e-13,
                    atol=1e-16, dense_output=True)
    r = np.linspace(0.5, 6.0, 56)
    assert np.max(np.abs(prof.theta(r) / ref.sol(r)[0] - 1.0)) < 1e-9


def test_theta_past_a_late_flat_join():
    """psi flat, then e^{6 r}-like from r = 1, then flat again from r = 300:
    the rate r (n-1) psi'/psi passes _QE_RATE inside the exponential piece
    and falls back at the late join, past which Theta must still come from
    the panels and match a tight LSODA solve of
    Theta' = 1 - (n-1)(psi'/psi) Theta."""
    from scipy.integrate import solve_ivp

    model = (models.as_glued(pl.make_model("euclidean"))
             .extended(1.0, 300.0, 36.0, 36.0, 0.5)
             .extended(300.0, 400.0, 0.0, 0.0, 0.5))
    prof = pl.geometry_profile(model, 3, 2.0, 350.0)
    ref = solve_ivp(lambda t, y: [1.0 - 2.0 * float(model.slope_ratio(t)) * y[0]],
                    (1.0, 340.0), [1.0 / 3.0], method="LSODA", rtol=1e-13,
                    atol=1e-15, dense_output=True)
    r = np.array([301.0, 310.0, 340.0])
    assert np.max(np.abs(prof.theta(r) / ref.sol(r)[0] - 1.0)) < 1e-9


def test_theta_J_matches_separate_lookups(oscillation):
    """One joint lookup gives the floats of theta() and J(), on the
    oscillation's knots on both sides of its profile's r_switch."""
    prof, r = oscillation.prof, oscillation.sol.r[1:]
    assert np.any(r < prof.r_switch) and np.any(r > prof.r_switch)
    theta, J = prof.theta_J(r)
    assert np.array_equal(theta, prof.theta(r))
    assert np.array_equal(J, prof.J(r))
    assert prof.theta_J(r[5]) == (prof.theta(r[5]), prof.J(r[5]))


def test_non_finite_geometry_is_refused():
    """A model whose log psi turns NaN inside the tabulated range makes
    geometry_profile raise instead of returning a profile."""

    class Broken(models.Euclidean):
        def log_psi(self, r):
            return np.where(np.asarray(r) > 5.0, np.nan, super().log_psi(r))

    with pytest.raises(pl.QuadratureFailure):
        pl.geometry_profile(Broken(), 3, 2.0, 1.0)


def test_relax_scan_matches_loop():
    """The doubling scan of x_{k+1} = x_k d_k + c_k against the plain loop,
    with decays down to e^-1 as on the panels and some that underflow."""
    rng = np.random.default_rng(5)
    decay = np.exp(-rng.uniform(0.0, 1.0, 1000))
    decay[::97] = 1e-250
    inc = rng.uniform(0.0, 2.0, 1000)
    x = [0.3]
    for d, c in zip(decay, inc):
        x.append(x[-1] * d + c)
    assert np.allclose(models._relax(0.3, decay, inc), x, rtol=1e-14, atol=0.0)


class _CountingHyperbolic(models.Hyperbolic):
    """Hyperbolic model that records whether each evaluation got an array."""

    def __init__(self):
        self.calls = []

    def log_psi(self, r):
        self.calls.append(isinstance(r, np.ndarray) and r.ndim > 0)
        return super().log_psi(r)

    def slope_ratio(self, r):
        self.calls.append(isinstance(r, np.ndarray) and r.ndim > 0)
        return super().slope_ratio(r)


@pytest.mark.parametrize("x", [
    [3.0, 1.0, 2.0], [4.0, 1.0, 3.0, 2.0], [-0.0], [-0.0, -0.0], [0.0, -0.0, 0.0],
    [2.0, 2.0, 1.0, 1.0], [1.0, math.nan, 2.0]])
def test_median_and_unique_match_numpy(x):
    """models._median and models._unique, which avoid numpy.ma, give
    np.median's and np.unique's floats, the sign of a zero median and a
    NaN among the values included."""
    want = float(np.median(x))
    got = models._median(x)
    assert (got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
            or math.isnan(got) and math.isnan(want))
    if not any(map(math.isnan, x)):
        assert models._unique(x).tolist() == np.unique(x).tolist()


def test_lookup_cost_is_independent_of_radii(monkeypatch):
    """A lookup's model calls grow with its blocks, never with its radii:
    10,000 radii make at most ceil(10,000 / dense._BLOCK) + 1 times the
    array calls of 10 radii over the same range (a block more for the split
    at r_switch), and none at a scalar radius; the profile is built without
    an ODE solve."""

    def no_ode(*args, **kwargs):
        raise AssertionError("geometry_profile called solve_ivp")

    monkeypatch.setattr(models, "solve_ivp", no_ode)
    model = _CountingHyperbolic()
    prof = pl.geometry_profile(model, 3, 2.0, 10.0)
    assert all(model.calls)
    for lookup in (prof.theta, prof.logI, prof.J, prof.theta_J, prof.hp_fail_proxy):
        counts = []
        for num in (10, 10_000):
            # both sizes reach past the switch to the expansion
            r = np.geomspace(1e-3, prof.r_hi, num)
            model.calls.clear()
            lookup(r)
            assert all(model.calls), lookup.__name__
            counts.append(len(model.calls))
        assert counts[1] <= (-(-10_000 // dense._BLOCK) + 1) * counts[0], lookup.__name__
        model.calls.clear()
        lookup(2.0)
        assert all(model.calls), lookup.__name__


def _peak_mb(call):
    """tracemalloc's peak, in MB, of the allocations made by call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_lookup_memory_grows_only_with_its_outputs():
    """A read of 20,000 radii holds its outputs and one block's scratch,
    not (radii, 8) node arrays over all of them: theta_J on a Euclidean
    profile peaked at 7.2 MB as one pass, and J past r_switch on the
    hyperbolic one, whose quasi-equilibrium reads stack 225 radii for
    each, at 94 MB."""
    flat = pl.geometry_profile(pl.make_model("euclidean"), 4, 2.0, 10.0)
    r = np.geomspace(1e-3, 10.0, 20_000)
    assert _peak_mb(lambda: flat.theta_J(r)) < 2.5
    prof = pl.geometry_profile(pl.make_model("hyperbolic"), 3, 2.0, 10.0)
    r = np.geomspace(2.0 * prof.r_switch, prof.r_hi, 20_000)
    assert _peak_mb(lambda: prof.J(r)) < 25.0


def _pieces(size, length, start):
    """Slices of `length` covering start .. start + size, the last one
    longer rather than a one-element remainder."""
    cuts = list(range(start, start + size, length)) + [start + size]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


@pytest.mark.parametrize("descriptor, n, p", [
    ("hyperbolic", 3, 2.0), ("exppower:c=1,m=3", 4, 3.0), ("euclidean", 5, 1.5)])
def test_blocked_lookup_matches_reads_in_pieces(descriptor, n, p):
    """A read in blocks of dense._BLOCK gives, at every moment, the floats
    of reading each side of r_switch in pieces of 61 radii (never 1, whose
    (1, 8) product in partial_integrals rounds differently), at sizes about
    one and a few blocks, with radii interleaved across the switch."""
    prof = pl.geometry_profile(pl.make_model(descriptor), n, p, 10.0)
    both = prof.r_switch < prof.r_hi
    for size in (2_047, 2_048, 2_049, 4_097, 6_149):
        for above in ((3, size - 3) if both else (0,)):
            r = np.concatenate([np.geomspace(prof.r_lo, prof.r_switch, size - above),
                                np.geomspace(prof.r_switch * 1.001, prof.r_hi, above)])
            order = np.random.default_rng(size).permutation(size)
            for moments in (0, 1, 2):
                got = np.empty((moments + 1, size))
                got[:, order] = prof._logs(r[order], moments)
                want = [prof._logs(r[k], moments)
                        for side in (slice(0, size - above), slice(size - above, size))
                        for k in _pieces(side.stop - side.start, 61, side.start)]
                assert np.array_equal(got, np.concatenate(want, axis=1)), (size, above, moments)


def test_blocked_lookup_leaves_no_single_radius():
    """A radius whose one-radius read differs in the last bit from its read
    among others (the (1, 8) product in partial_integrals) keeps the floats
    of a group read as the last of dense._BLOCK + 1 radii, where blocks of
    dense._BLOCK would leave it alone. Where this BLAS rounds both products
    alike, there is no such radius and nothing to check."""
    prof = pl.geometry_profile(pl.make_model("hyperbolic"), 3, 2.0, 10.0)
    r = np.geomspace(prof.r_lo, prof.r_switch, 2_000)
    group = prof._logs(r, 2)[2]
    odd = next((x for x, w in zip(r, group) if prof._logs(np.array([x]), 2)[2][0] != w), None)
    if odd is not None:
        x = np.append(np.geomspace(prof.r_lo, prof.r_switch, dense._BLOCK), odd)
        assert prof._logs(x, 2)[2][-1] == group[r == odd][0]


def test_tail_lookup_forms_theta_once():
    """A J read past r_switch forms Theta at its radius and at the tail
    rule's nodes in one model call, not one for each."""
    model = _CountingHyperbolic()
    prof = pl.geometry_profile(model, 3, 2.0, 10.0)
    assert prof.r_switch < 5000.0
    for lookup in (prof.J, prof.theta_J):
        model.calls.clear()
        lookup(5000.0)
        assert len(model.calls) == 1, lookup.__name__


def test_profile_export_is_one_lookup(tmp_path, monkeypatch):
    """export_csv reads Theta and J in one lookup, and writes the floats of
    I, theta and J."""
    prof = pl.geometry_profile(pl.make_model("hyperbolic"), 3, 2.0, 10.0)
    calls = []
    logs = prof._logs
    monkeypatch.setattr(prof, "_logs", lambda *args: calls.append(args) or logs(*args))
    data = pl.read_csv(prof.export_csv(tmp_path / "geometry.csv"))
    assert len(calls) == 1
    r = data["r"]
    for name in ("I", "theta", "J"):
        assert np.array_equal(data[name], getattr(prof, name)(r)), name


def test_window_reads_one_component():
    """A glued window reads only the component asked for from its table,
    at the floats of reading both."""
    model = models.as_glued(pl.make_model("euclidean")).extended(2.0, 30.0, 0.0, 4.0, 0.5)
    window = next(reader for _, reader in model._pieces if isinstance(reader, models._Window))
    table, components = window.table, []
    window.table = lambda r, c=None: components.append(c) or table(r, c)
    r = np.linspace(2.05, 2.45, 15)
    for k, read in enumerate((model.log_psi, model.slope_ratio)):
        components.clear()
        assert np.array_equal(read(r), table(r)[k])
        assert components == [k]


def test_classification_inconclusive():
    """The abstention: at (4, 3) on exppower:c=1,m=3, Theta^(1/2) ~ 1/(3r),
    so J diverges like (log r)/3 (the model is pSC), which the dyadic
    growth rule (g > 0.25 over each of the last two windows) cannot see.
    The verdict is Inconclusive, in the hp-add-2 regime, where the decay
    law is proven; a rule that sees logarithmic growth turns it into pSC."""
    prof = pl.geometry_profile(pl.make_model("exppower:c=1,m=3"), 4, 3.0, 20.0)
    out = pl.classify_completeness(prof)
    J_half, J_end = prof.J_ladder[1:]
    assert J_end - J_half == pytest.approx(math.log(2.0) / 3.0, rel=1e-3)
    assert out.verdict == "Inconclusive"
    assert out.regime.name == "hp-add-2" and out.regime.supports_decay_law()
    assert math.isnan(out.tail_estimate)


def test_unfitted_regime_is_unknown():
    """A model whose psi'/psi turns from hyperbolic to power-like inside the
    fitting window fits no regime: classify_completeness records it as
    "unknown" with the AmbiguousRegime message, and a horizon past the
    glue's range is refused."""
    glue = pl.glue_models([(pl.make_model("hyperbolic"), 0),
                           (pl.make_model("powerlike:k=2"), 5)], 0.5, horizon=40)
    prof = pl.geometry_profile(glue, 3, 2.0, 10.0)
    with pytest.raises(pl.AmbiguousRegime):
        prof.regime
    out = pl.classify_completeness(prof)
    assert out.regime.name == "unknown"
    assert "not stabilized" in out.regime.evidence["error"]
    with pytest.raises(pl.GeometryOverflow):
        pl.geometry_profile(glue, 3, 2.0, 50.0)


@pytest.mark.parametrize("desc,n,p,verdict,regime", [
    ("euclidean", 3, 2.0, "pSC", "power-like"),
    ("hyperbolic", 3, 2.0, "pSC", "hp-add-1"),
    ("exppower:c=1,m=3", 3, 2.0, "pSI", "hp-add-2"),
    ("expgamma:c=1,gamma=0.5", 3, 2.0, "pSC", "hp-add-1"),
    ("powerlike:k=3", 3, 2.0, "pSC", "power-like"),
])
def test_classification_matrix(desc, n, p, verdict, regime):
    model = pl.make_model(desc)
    prof = pl.geometry_profile(model, n, p, min(10.0, pl.safe_horizon(model, n)))
    out = pl.classify_completeness(prof)
    assert out.verdict == verdict
    assert out.regime.name == regime


def test_regime_parameters():
    hy = pl.make_model("hyperbolic")
    tag = pl.detect_regime(pl.geometry_profile(hy, 3, 2.0, 10.0))
    assert tag.name == "hp-add-1"
    assert tag.gamma == 0.0
    assert abs(tag.ell - 1.0) < 1e-3
    assert not tag.hp_fail

    eg = pl.make_model("expgamma:c=1,gamma=0.5")
    tag = pl.detect_regime(pl.geometry_profile(eg, 3, 2.0, 10.0))
    assert tag.name == "hp-add-1"
    assert abs(tag.gamma - 0.5) < 0.05
    assert abs(tag.ell - 0.5) < 0.05

    eu = pl.make_model("euclidean")
    tag = pl.detect_regime(pl.geometry_profile(eu, 3, 2.0, 10.0))
    assert tag.name == "power-like"
    assert tag.hp_fail
    assert not tag.supports_decay_law()


def test_psi_incompleteness_tail():
    ep = pl.make_model("exppower:c=1,m=3")
    prof = pl.geometry_profile(ep, 3, 2.0, 5.0)
    assert prof.tail_converged
    assert prof.J_inf < math.inf
    assert prof.tailJ(3.0) > 0.0
    # complete geometry refuses the tail quadrature
    hy = pl.make_model("hyperbolic")
    prof2 = pl.geometry_profile(hy, 3, 2.0, 10.0)
    assert not prof2.tail_converged
    with pytest.raises(pl.QuadratureFailure):
        prof2.tailJ(3.0)


@pytest.mark.parametrize("desc", ["euclidean", "hyperbolic", "exppower:c=1,m=3",
                                  "powerlike:k=2", "expgamma:c=1,gamma=0.5"])
def test_profile_reads_its_tail_on_demand(desc, monkeypatch):
    """Building a profile makes no J lookup; tail_converged and J_inf,
    read later, come from one lookup of J on the ladder r_hi/4, r_hi/2,
    r_hi, whose rungs are the floats of J looked up at each radius alone,
    and a second read looks up nothing. A lookup without W gives the
    floats of one that computes it."""
    lookups = []
    J = models.GeometryProfile.J
    monkeypatch.setattr(models.GeometryProfile, "J",
                        lambda self, r: lookups.append(r) or J(self, r))
    model = pl.make_model(desc)
    for n, p in ((3, 2.0), (4, 3.0), (2, 1.5)):
        prof = pl.geometry_profile(model, n, p, min(10.0, pl.safe_horizon(model, n)))
        assert lookups == []
        rungs = [J(prof, prof.r_hi / k) for k in (4.0, 2.0, 1.0)]
        J_half, J_end = rungs[1:]
        converged = bool(J_end - J_half < 1e-6 * J_end)
        assert prof.tail_converged is converged
        assert prof.J_inf == (J_end if converged else math.inf)
        assert len(lookups) == 1
        assert prof.J_ladder.tolist() == rungs
        prof.tail_converged, prof.J_inf, prof.J_ladder
        assert len(lookups) == 1
        lookups.clear()
        r = np.geomspace(prof.r_lo, prof.r_switch, 50)
        full = prof._fine(r, moments=2)
        assert all(np.array_equal(a, b) for a, b in zip(prof._fine(r, moments=1), full[:2]))


def test_safe_horizon_bounds():
    hy = pl.make_model("hyperbolic")
    R = pl.safe_horizon(hy, 3)
    assert 100.0 < R < 700.0
    assert (3 - 1) * hy.log_psi(R) < 700.0
    eu = pl.make_model("euclidean")
    assert pl.safe_horizon(eu, 3) == 1e8


@pytest.mark.parametrize("descriptor", ["euclidean", "hyperbolic", "exppower:c=1,m=3",
                                        "powerlike:k=2", "expgamma:c=1,gamma=0.5",
                                        "exppower:c=400,m=2"])
def test_safe_horizon_equals_fixed_bisection(descriptor):
    """safe_horizon stops bisecting once the midpoint equals an end, and
    returns the float of a bisection run a fixed 200 times, in fewer than
    100 log_psi calls. exppower:c=400,m=2 overflows before r = 1, so the
    lower end is halved first."""
    model = pl.make_model(descriptor)
    for n in (3, 4, 5):
        limit = (models._EXP_CAP - models._HORIZON_MARGIN) / (n - 1)
        lo, hi = 1.0, min(model.valid_to, 1e8)
        if model.log_psi(hi) <= limit:
            expected = hi
        else:
            while model.log_psi(lo) > limit:
                lo *= 0.5
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if model.log_psi(mid) > limit:
                    hi = mid
                else:
                    lo = mid
            expected = lo
        calls = []
        log_psi = model.log_psi
        model.log_psi = lambda r: calls.append(r) or log_psi(r)
        assert pl.safe_horizon(model, n) == expected
        assert len(calls) < 100
        del model.log_psi


def test_profile_export_csv(tmp_path, hy_run):
    path = hy_run.prof.export_csv(tmp_path / "geometry.csv")
    data = pl.read_csv(path)
    assert list(data) == ["r", "psi", "dpsi", "ddpsi", "I", "theta", "J"]
    assert np.all(np.diff(data["r"]) > 0)
    assert np.all(data["J"] >= 0)
