"""Extremal profiles, Rayleigh quotients and concentration sweeps."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import plaplace as pl
from plaplace import models, sobolev
from plaplace.diagnostics import unit_ball_volume


def test_profile_validation():
    with pytest.raises(pl.InvalidParameter):
        pl.AubinTalenti(3, 3.0)       # p = n
    with pytest.raises(pl.InvalidParameter):
        pl.AubinTalenti(3, 2.0, b=-1.0)


def test_euclidean_b_invariance():
    eu = pl.make_model("euclidean")
    vals = []
    for b in (1.0, 0.3, 0.01):
        prof = pl.AubinTalenti(3, 2.0, b=b)
        R = pl.truncation_radius(eu, 3, 2.0, b)
        vals.append(pl.sobolev_quotient(prof.u, prof.du, eu, 3, 2.0, R)["quotient"])
    spread = (max(vals) - min(vals)) / min(vals)
    assert spread < 1e-6


def test_reference_cached_and_positive():
    ref1 = pl.euclidean_reference(3, 2.0)
    ref2 = pl.euclidean_reference(3, 2.0)
    assert ref1 is ref2
    assert ref1["quotient"] > 0.0
    assert ref1["err"] < 1e-5 * ref1["quotient"]


def test_hyperbolic_sweep_above_reference():
    hy = pl.make_model("hyperbolic")
    sweep = pl.concentration_sweep(hy, 3, 2.0, [1.0, 0.1, 0.01])
    gaps = [row["gap"] for row in sweep["rows"]]
    assert all(g > 0.0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]
    # at b = 1 nearly all L^{p*} mass lies beyond R/2: the row measures the
    # cutoff, so it is flagged; the concentrated rows are not
    assert [row["flagged"] for row in sweep["rows"]] == [True, False, False]


def test_powerlike_sweep_above_reference():
    pk = pl.make_model("powerlike:k=2")
    sweep = pl.concentration_sweep(pk, 3, 2.0, [1.0, 0.1, 0.01])
    gaps = [row["gap"] for row in sweep["rows"]]
    assert all(g > 0.0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]


def test_concentrated_exppower_row_resolved():
    """The exppower row at b = 0.01, whose mass sits well inside the cutoff
    (outer mass 0.017), is resolved: its halved-layout error bar is about
    3e-8 of its quotient, where the halved Simpson grid read 1.4e-3 and
    left it flagged."""
    ep = pl.make_model("exppower:c=1,m=3")
    row = pl.concentration_sweep(ep, 3, 2.0, [0.01])["rows"][0]
    assert row["outer_mass_fraction"] < 0.5
    assert row["err"] < 1e-6 * row["quotient"]
    assert not row["flagged"]


def _quad_quotient(model, n, p, b):
    """The truncated quotient of sobolev_quotient, integrated from 0 by
    adaptive quad between the decades below R and at R/2."""
    prof = pl.AubinTalenti(n, p, b=b)
    R = pl.truncation_radius(model, n, p, b)
    vol = n * unit_ball_volume(n)
    p_star = n * p / (n - p)

    def integrand(r, power, grad):
        eta, deta = (float(v) for v in sobolev._cutoff(r, R))
        weight = vol * math.exp((n - 1) * float(model.log_psi(r)))
        u = float(prof.u(r))
        value = float(prof.du(r)) * eta + u * deta if grad else u * eta
        return weight * abs(value) ** power

    edges = [0.0, *(R * 10.0 ** -k for k in range(6, 0, -1)), R / 2.0, R]
    num, den = (math.fsum(quad(integrand, lo, hi, args=args, limit=200,
                               epsabs=0.0, epsrel=1e-13)[0]
                          for lo, hi in zip(edges[:-1], edges[1:]))
                for args in ((p, True), (p_star, False)))
    return num ** (1.0 / p) / den ** (1.0 / p_star)


@pytest.mark.parametrize("descriptor, n, p, b, bound", [
    ("euclidean", 3, 2.0, 0.1, 1e-10),
    ("euclidean", 4, 3.0, 0.1, 1e-10),
    ("hyperbolic", 3, 2.0, 0.1, 1e-10),
    ("powerlike:k=2", 3, 2.0, 0.1, 1e-10),
    ("exppower:c=1,m=3", 3, 2.0, 0.01, 1e-10),
    # the cutoff's (R - r)^p end limits an 8-node rule at p = 1.5
    ("hyperbolic", 5, 1.5, 0.1, 1e-6),
])
def test_quotient_matches_adaptive_quad(descriptor, n, p, b, bound):
    """Resolved quotients agree with adaptive quad to 1e-10 at p in {2, 3}
    and 1e-6 at p = 1.5, where Simpson in log r was 4e-7 to 1.7e-4 off."""
    model = pl.make_model(descriptor)
    prof = pl.AubinTalenti(n, p, b=b)
    R = pl.truncation_radius(model, n, p, b)
    got = pl.sobolev_quotient(prof.u, prof.du, model, n, p, R)
    assert got["outer_mass_fraction"] < 0.5
    assert got["quotient"] == pytest.approx(_quad_quotient(model, n, p, b), rel=bound)


@pytest.mark.parametrize("share", [math.nan, math.inf, 1e-3])
def test_row_without_finite_error_bar_flagged(monkeypatch, share):
    """A row whose halved-layout error bar is not finite, or is 1e-3 of its
    quotient, is flagged, never written as resolved (NaN >= bound is False,
    which let it through): the hyperbolic row at b = 0.1, unflagged with
    its own error bar, is flagged once its err reads NaN, inf or 1e-3 of
    its quotient."""
    hy = pl.make_model("hyperbolic")
    assert not pl.concentration_sweep(hy, 3, 2.0, [0.1])["rows"][0]["flagged"]
    quotient = sobolev.sobolev_quotient

    def no_error_bar(*args, **kwargs):
        rep = quotient(*args, **kwargs)
        return dict(rep, err=share * rep["quotient"])

    pl.euclidean_reference(3, 2.0)  # cached before the patch
    monkeypatch.setattr(sobolev, "sobolev_quotient", no_error_bar)
    assert pl.concentration_sweep(hy, 3, 2.0, [0.1])["rows"][0]["flagged"]


def _glued_to_5():
    """The hyperbolic model continued with psi'' = psi on [2, 5]."""
    model = models.as_glued(pl.make_model("hyperbolic")).extended(2.0, 5.0, 1.0, 1.0, 0.5)
    assert model.valid_to == 5.0
    return model


@pytest.mark.parametrize("make, R", [
    (lambda: pl.make_model("hyperbolic"), -1.0),
    (lambda: pl.make_model("hyperbolic"), 0.0),
    (lambda: pl.make_model("hyperbolic"), math.nan),
    (lambda: pl.make_model("euclidean"), math.inf),
    (_glued_to_5, 6.0),
], ids=["-1", "0", "nan", "inf", "past-valid_to"])
def test_cutoff_radius_must_lie_in_model_range(make, R):
    """sobolev_quotient refuses a cutoff radius outside (0, valid_to] or not
    finite: R = -1 and 0 used to raise a bare ValueError (math domain
    error), and R = nan a TailDivergence at R = nan."""
    model = make()
    prof = pl.AubinTalenti(3, 2.0)
    with pytest.raises(pl.InvalidParameter):
        pl.sobolev_quotient(prof.u, prof.du, model, 3, 2.0, R)


def test_euclidean_sweep_equals_reference():
    eu = pl.make_model("euclidean")
    sweep = pl.concentration_sweep(eu, 3, 2.0, [1.0, 0.1])
    for row in sweep["rows"]:
        assert abs(row["gap"]) < 1e-9 * sweep["reference"]["quotient"]


def test_sweep_requires_decreasing_b():
    hy = pl.make_model("hyperbolic")
    with pytest.raises(pl.InvalidParameter):
        pl.concentration_sweep(hy, 3, 2.0, [0.1, 1.0])


def test_truncation_radius_capped():
    hy = pl.make_model("hyperbolic")
    horizon = pl.safe_horizon(hy, 3)
    assert pl.truncation_radius(hy, 3, 2.0, 1e10) == pytest.approx(horizon)
    assert pl.truncation_radius(hy, 3, 2.0, 1.0) == pytest.approx(20.0)


def test_tail_divergence_on_overflowing_cutoff():
    hy = pl.make_model("hyperbolic")
    prof = pl.AubinTalenti(3, 2.0)
    with pytest.raises(pl.TailDivergence):
        pl.sobolev_quotient(prof.u, prof.du, hy, 3, 2.0, 500.0)


def test_outer_mass_reported():
    eu = pl.make_model("euclidean")
    prof = pl.AubinTalenti(3, 2.0, b=0.01)
    R = pl.truncation_radius(eu, 3, 2.0, 0.01)
    out = pl.sobolev_quotient(prof.u, prof.du, eu, 3, 2.0, R)
    assert 0.0 <= out["outer_mass_fraction"] < 0.5


def test_export_sweep_csv(tmp_path):
    eu = pl.make_model("euclidean")
    sweep = pl.concentration_sweep(eu, 3, 2.0, [1.0, 0.1])
    path = sobolev.export_sweep_csv(sweep, tmp_path / "sweep.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "n,p,b,quotient,err,flagged"
    assert len(lines) == 3
    for line, row in zip(lines[1:], sweep["rows"]):
        fields = line.split(",")
        assert fields[0] == "3"
        assert float(fields[2]) == row["b"]
        assert float(fields[3]) == row["quotient"]
        assert fields[5] == "0" and not row["flagged"]
