"""Functional traces, decay envelopes, asymptotic ratios, energy probes."""

import math

import numpy as np
import pytest

import plaplace as pl
from plaplace.diagnostics import _pohozaev_identity_defect
from plaplace.models import _EXP_CAP

from conftest import make_run


def test_constants():
    # sharp limit of Q and the envelope prefactor for p=2, q=5
    assert pl.q_limit_constant(2.0, 5.0) == pytest.approx(0.25 ** 0.25)
    assert pl.envelope_constant(2.0, 5.0) == pytest.approx((1 / 6) ** (1 / 6))
    # unit ball volumes: pi in 2d, 4 pi/3 in 3d, pi^2/2 in 4d
    assert pl.unit_ball_volume(2) == pytest.approx(math.pi)
    assert pl.unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)
    assert pl.unit_ball_volume(4) == pytest.approx(math.pi ** 2 / 2)


def test_traces_verdicts_pass(hy_run, eu_crit_run, ep_run):
    for run in (hy_run, eu_crit_run, ep_run):
        rep = pl.functional_traces(run.sol, run.prof)
        assert rep.passed(), rep.verdicts
        pohozaev = next(v for v in rep.verdicts
                        if v["name"] == "pohozaev-identity")
        assert pohozaev["audited_radii"] == 80
        assert 0 <= pohozaev["resolved_radii"] <= 80


def _pohozaev_defect_loop(sol, profile, num=80):
    """The radius-by-radius Pohozaev FD audit, kept as reference."""
    prob = sol.problem
    n, p, q = prob.n, prob.p, prob.q
    c1 = (p - 1.0) / p + 1.0 / (q + 1.0)

    def pieces(x):
        u = sol._u_accurate(x)
        du = sol.eval_du(x)
        w = sol.eval_w(x)
        F = ((p - 1.0) / p) * abs(du) ** p + u ** (q + 1.0) / (q + 1.0)
        return profile.I(x) * F, w * u / (q + 1.0)

    lo = max(10.0 * sol.r[1], 2e-3 * sol.r_last)
    worst, resolved = 0.0, 0
    for x in np.geomspace(lo, 0.99 * sol.r_last, num):
        rate = (n - 1) * float(profile.model.slope_ratio(x)) \
            + q * abs(sol.eval_du(x)) / sol.eval_u(x) + 2.0 / x
        h = min(1e-3 * x, 1e-2 / rate)
        ap, bp = pieces(x + h)
        am, bm = pieces(x - h)
        dP = ((ap - am) + (bp - bm)) / (2.0 * h)
        S = (abs(ap - am) + abs(bp - bm)) / (2.0 * h)
        f = float(profile.model.slope_ratio(x))
        psi_pow = math.exp(min((n - 1) * float(profile.model.log_psi(x)),
                               _EXP_CAP))
        t = psi_pow * (c1 - (n - 1) * f * profile.theta(x)) \
            * abs(sol.eval_du(x)) ** p
        resolution = 1e-8 * (abs(ap) + abs(am) + abs(bp) + abs(bm)) / (2.0 * h)
        err = abs(dP - t)
        if err <= resolution:
            continue
        resolved += 1
        worst = max(worst, err / (abs(t) + 1e-2 * S + 1e-300))
    return float(worst), resolved


def test_pohozaev_defect_matches_scalar_loop(eu_run, hy_run, ep_run):
    # hyperbolic (4,3,11) to R=20 is a matrix case with a resolved radius
    hy4 = make_run("hyperbolic", 4, 3.0, 11.0, 1.0, rmax=20.0)
    for run in (eu_run, hy_run, ep_run, hy4):
        worst, resolved, audited = _pohozaev_identity_defect(run.sol, run.prof)
        ref_worst, ref_resolved = _pohozaev_defect_loop(run.sol, run.prof)
        assert audited == 80
        assert resolved == ref_resolved
        assert abs(worst - ref_worst) <= 1e-12 * ref_worst
    assert ref_resolved >= 1 and ref_worst > 0.0


def test_euclidean_critical_K_and_P_vanish(eu_crit_run):
    rep = pl.functional_traces(eu_crit_run.sol, eu_crit_run.prof)
    prob = eu_crit_run.prob
    scale = prob.alpha ** (prob.q + 1.0) * eu_crit_run.prof.I(rep.r[-1])
    assert np.max(np.abs(rep.P)) <= 1e-8 * scale
    # K = psi^{n-1} [(p-1)/p + 1/(q+1) - (n-1)(psi'/psi) Theta] is
    # identically zero only in the flat critical configuration
    K_scale = eu_crit_run.prof.I(rep.r[-1])
    assert np.max(np.abs(rep.K)) <= 1e-10 * K_scale


def test_noncritical_P_strictly_negative(hy_run):
    rep = pl.functional_traces(hy_run.sol, hy_run.prof)
    assert rep.P[-1] < 0.0
    assert np.all(np.diff(rep.F) <= 1e-9 * rep.F[0])


def test_pair_mismatch_guard(hy_run, eu_run):
    with pytest.raises(pl.GridMismatch):
        pl.functional_traces(hy_run.sol, eu_run.prof)


def test_envelope_on_closed_form(eu_crit_run):
    out = pl.decay_envelope_check(eu_crit_run.sol, eu_crit_run.prof)
    assert out["passed"]
    assert out["violations"] == 0
    # verify the envelope independently from the closed forms:
    # u = 2 sqrt(2)/(1+r^2) against C_env J^{-1/2} with J = r^2/8
    C = pl.envelope_constant(2.0, 3.0)
    r = np.geomspace(1.0, 50.0, 200)
    u = 2.0 * math.sqrt(2.0) / (1.0 + r ** 2)
    assert np.all(u <= C * (r ** 2 / 8.0) ** (-0.5) * (1 + 1e-12))


def test_envelope_all_psc_runs(hy_run, eu_run, eg_run):
    for run in (hy_run, eu_run, eg_run):
        out = pl.decay_envelope_check(run.sol, run.prof)
        assert out["violations"] == 0


def test_ratio_sc_hyperbolic(hy_run):
    out = pl.asymptotic_ratio_sc(hy_run.sol, hy_run.prof)
    assert out["target"] == pytest.approx(2.0 ** -0.5)
    assert out["rel_deviation"] < 0.05


def test_ratio_sc_refusals(eu_run, ep_run):
    # flat geometry: the decay-law failure case (gamma = 1)
    with pytest.raises(pl.RegimeMismatch):
        pl.asymptotic_ratio_sc(eu_run.sol, eu_run.prof)
    # incomplete geometry: u plateaus, Q has no limit
    with pytest.raises(pl.RegimeMismatch):
        pl.asymptotic_ratio_sc(ep_run.sol, ep_run.prof)


def test_ratio_si_plateau(ep_run):
    out = pl.asymptotic_ratio_si(ep_run.sol, ep_run.prof)
    assert out["lambda_hat"] > 0.0
    assert out["bound_slack"] > 0.0
    assert out["rel_deviation"] < 0.10
    # the plateau level is consistent with u at the horizon
    assert out["lambda_hat"] == pytest.approx(
        ep_run.sol.eval_u(ep_run.sol.r_last), rel=0.05)


def test_ratio_si_refusals(hy_run, ep_run):
    with pytest.raises(pl.RegimeMismatch):
        pl.asymptotic_ratio_si(hy_run.sol, hy_run.prof)
    with pytest.raises(pl.NoPlateau):
        pl.asymptotic_ratio_si(ep_run.sol, ep_run.prof, plateau_tol=1e-4)


def test_energy_probe_cases(hy_run, ep_run, eu_crit_run):
    out = pl.energy_divergence_probe(hy_run.sol, hy_run.prof)
    assert out["case"] == "pSC"
    assert out["positive_slope"]

    out = pl.energy_divergence_probe(ep_run.sol, ep_run.prof)
    assert out["case"] == "pSI"
    assert out["unbounded"]
    assert out["trend_increasing"]

    with pytest.raises(pl.EuclideanCritical):
        pl.energy_divergence_probe(eu_crit_run.sol, eu_crit_run.prof)


def test_euclidean_critical_energy_finite(eu_crit_run):
    """The closed-form profile has integrable gradient: E(R) stabilizes."""
    rep = pl.functional_traces(eu_crit_run.sol, eu_crit_run.prof)
    E50 = float(np.interp(50.0, rep.r, rep.E))
    E100 = float(np.interp(100.0, rep.r, rep.E))
    assert abs(E100 - E50) < 1e-3 * E100
    assert E100 < 32 * math.pi ** 2 / 3  # the exact total


def test_lemma_limits(hy_run):
    out = pl.lemma_limit_checks(hy_run.sol, hy_run.prof)
    assert abs(out["ratio_a_limit"]) < 0.05
    assert out["ratio_b_target"] == pytest.approx(0.5)
    assert out["ratio_b_rel_deviation"] < 0.01


def test_lemma_limits_refused_on_incomplete(ep_run):
    with pytest.raises(pl.RegimeMismatch):
        pl.lemma_limit_checks(ep_run.sol, ep_run.prof)


def test_report_export(tmp_path, hy_run):
    rep = pl.functional_traces(hy_run.sol, hy_run.prof)
    csv_path = rep.export_csv(tmp_path / "traces.csv")
    data = pl.read_csv(csv_path)
    assert list(data) == ["r", "F", "P", "K", "Q", "E"]
    assert np.array_equal(data["F"], rep.F)
    rep.export_json(tmp_path / "report.json")
    import json
    with open(tmp_path / "report.json") as fh:
        loaded = json.load(fh)
    assert loaded["verdicts"] == rep.verdicts
