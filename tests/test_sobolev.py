"""Extremal profiles, Rayleigh quotients and concentration sweeps."""

import numpy as np
import pytest

import plaplace as pl
from plaplace import sobolev


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


def test_unresolved_row_flagged():
    """A row whose halved-grid error bar reaches 1e-3 of its quotient is
    flagged although its mass sits well inside the cutoff: exppower at
    b = 0.01 reads err/quotient 1.4e-3 with outer mass 0.017."""
    ep = pl.make_model("exppower:c=1,m=3")
    row = pl.concentration_sweep(ep, 3, 2.0, [0.01])["rows"][0]
    assert row["outer_mass_fraction"] < 0.5
    assert row["err"] >= 1e-3 * row["quotient"]
    assert row["flagged"]


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
    assert lines[0] == "model,n,p,b,quotient,err,flagged"
    assert len(lines) == 3
    for line, row in zip(lines[1:], sweep["rows"]):
        fields = line.split(",")
        assert fields[0] == '"euclidean"'
        assert float(fields[3]) == row["b"]
        assert float(fields[4]) == row["quotient"]
        assert fields[6] == "0" and not row["flagged"]
