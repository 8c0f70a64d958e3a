"""Functional traces, decay envelopes, asymptotic ratios, energy probes."""

import copy
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import plaplace as pl
from plaplace import diagnostics, models, solver

from conftest import make_run


def test_constants():
    # sharp limit of Q and the envelope prefactor for p=2, q=5
    assert pl.q_limit_constant(2.0, 5.0) == pytest.approx(0.25 ** 0.25)
    assert pl.envelope_constant(2.0, 5.0) == pytest.approx((1 / 6) ** (1 / 6))
    # unit ball volumes: pi in 2d, 4 pi/3 in 3d, pi^2/2 in 4d
    assert pl.unit_ball_volume(2) == pytest.approx(math.pi)
    assert pl.unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)
    assert pl.unit_ball_volume(4) == pytest.approx(math.pi ** 2 / 2)


def _pohozaev(rep):
    return next(v for v in rep.verdicts if v["name"] == "pohozaev-identity")


def test_traces_verdicts_pass(eu_run, eu_crit_run, hy_run, ep_run, eg_run):
    for run in (eu_run, eu_crit_run, hy_run, ep_run, eg_run):
        rep = pl.functional_traces(run.sol, run.prof)
        assert rep.passed(), rep.verdicts
        pohozaev = _pohozaev(rep)
        # the rows the flux residual samples: every fixture has more than 200
        assert pohozaev["audited_radii"] == 200
        assert 0 <= pohozaev["resolved_radii"] <= 199
        assert pohozaev["max_scaled_defect"] < 1e-9
        # K vanishes identically only on the flat critical fixtures, so
        # every curved one must resolve some of the integrals it checks
        flat = run.model.kind == "euclidean"
        assert (pohozaev["resolved_radii"] > 0) != flat


def test_pohozaev_fails_on_perturbed_power(hy_run, eu_crit_run):
    """q * 1.01 in a copy of the problem changes both P and K."""
    for run in (hy_run, eu_crit_run):
        sol = copy.copy(run.sol)
        sol.problem = copy.copy(run.sol.problem)
        sol.problem.q *= 1.01
        assert not _pohozaev(pl.functional_traces(sol, run.prof))["passed"]


def test_traces_refused_past_double_range(oscillation):
    """On the oscillation's exponential tail psi^{n-1} leaves the double
    range; the traces are refused there, naming the first such knot,
    without a warning (the suite turns RuntimeWarnings into errors)."""
    sol = oscillation.sol
    lpsi = 2 * np.asarray(oscillation.model.log_psi(sol.r[1:]))
    first = float(sol.r[1:][np.argmax(lpsi > math.log(np.finfo(float).max))])
    with pytest.raises(pl.GeometryOverflow, match=re.escape(f"at r = {first!r} ")):
        pl.functional_traces(sol, oscillation.prof)


_CATALOG = ["euclidean", "hyperbolic", "exppower:c=1,m=3", "powerlike:k=2",
            "expgamma:c=1,gamma=0.5"]


@settings(max_examples=12, deadline=None)
@given(desc=st.sampled_from(_CATALOG), log_alpha=st.floats(-300.0, 30.0))
@example(desc="hyperbolic", log_alpha=-55.0)
@example(desc="exppower:c=1,m=3", log_alpha=-100.0)
def test_traces_are_finite_or_refused(desc, log_alpha):
    """Across the double range of alpha, (3,2,5) to R = min(60, safe
    horizon): the traces F, P, K, Q, E are finite with finite verdict
    margins, or refused with GeometryOverflow; nothing else is raised and
    no warning is emitted (at alpha <= 1e-52, F ~ alpha^6 is no longer a
    normal double, and P is refused at the first row)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = make_run(desc, 3, 2.0, 5.0, 10.0 ** log_alpha)
        try:
            rep = pl.functional_traces(run.sol, run.prof)
        except pl.GeometryOverflow:
            return
    for trace in (rep.F, rep.P, rep.K, rep.Q, rep.E):
        assert np.all(np.isfinite(trace))
    assert all(math.isfinite(v["margin"]) for v in rep.verdicts), rep.verdicts


def test_energy_on_glued_model_matches_quad():
    """E on a model flat up to r = 2 and blending into hyperbolic over
    [2, 2.5], at 60 rows spaced evenly by index, against adaptive quad of
    n omega_n w u' (u' and w read off the solution), split at the join and
    at the blend window's end."""
    model = pl.glue_models([(pl.make_model("euclidean"), 0),
                            (pl.make_model("hyperbolic"), 2.0)], 0.5, horizon=20)
    sol = pl.integrate(pl.Problem(3, 2.0, 5.0, 1.0), model, pl.SolverConfig(15.0))
    rep = pl.functional_traces(sol, pl.geometry_profile(model, 3, 2.0, sol.r_last))
    rows = np.unique(np.linspace(1, len(sol.r) - 1, 60).astype(int))
    edges = np.union1d(np.append(sol.r[rows], 0.0), [2.0, 2.5])

    def density(s):
        _, du, w = sol._state(s)
        return float(du * w)

    pieces = [quad(density, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
              for a, b in zip(edges[:-1], edges[1:])]
    at_row = np.searchsorted(edges, sol.r[rows]) - 1
    E_ref = 3 * pl.unit_ball_volume(3) * np.cumsum(pieces)[at_row]
    assert np.max(np.abs(rep.E[rows] - E_ref) / E_ref) < 1e-10


def test_pohozaev_margin_negative_on_nan(hy_run, monkeypatch):
    """A nan defect fails the verdict and leaves it a negative margin."""
    monkeypatch.setattr(diagnostics, "_pohozaev_identity_defect",
                        lambda sol, profile, IF, wu: (1e-5, math.nan, 10, 200))
    pohozaev = _pohozaev(pl.functional_traces(hy_run.sol, hy_run.prof))
    assert not pohozaev["passed"]
    assert pohozaev["margin"] < 0.0


def test_pohozaev_sees_solver_error():
    """At rel_tol 1e-7 and 1e-9 the solver's own error fails the identity.
    At 1e-9 the defects (1.6e-5 relative, 6.95e-9 scaled) sit between the
    gate and one 100x looser, which would pass them."""
    for rel_tol in (1e-7, 1e-9):
        run = make_run("hyperbolic", 4, 3.0, 11.0, 1.0, rmax=20.0, rel_tol=rel_tol)
        pohozaev = _pohozaev(pl.functional_traces(run.sol, run.prof))
        assert not pohozaev["passed"]
        assert pohozaev["max_scaled_defect"] > 1e-9


def test_pohozaev_panels_match_quad(hy_run):
    """K |u'|^p by RadialSolution._integrals, as the audit takes it, against
    quad(epsrel=1e-12) on each knot interval: on every sampled interval of
    hy_run past r = 1 that crosses the most knots (two), and on
    [7.126, 7.708], an interval of an earlier geometric layout that crosses
    one knot, where a single panel read 5.6e-12 off."""
    sol, prof = hy_run.sol, hy_run.prof
    n, p, q = sol.problem.n, sol.problem.p, sol.problem.q
    mu = 1.0 / (p - 1.0)
    c1 = (p - 1.0) / p + 1.0 / (q + 1.0)

    def bracket(s):
        return c1 - (n - 1) * np.asarray(sol.model.slope_ratio(s)) * prof.theta(s)

    def exponent(s):
        G = (n - 1) * np.asarray(sol.model.log_psi(s))
        return (1.0 + mu) * np.log(-sol.eval_w(s)) - mu * G

    def density(s):
        return (np.exp((n - 1) * np.asarray(sol.model.log_psi(s))) * bracket(s)
                * np.abs(sol.eval_du(s)) ** p)

    knots = sol._dense.ts
    x = sol.r[sol._sampled_rows()]
    crossed = np.array([np.count_nonzero((knots > a) & (knots < b))
                        for a, b in zip(x[:-1], x[1:])])
    crossed[x[:-1] <= 1.0] = 0
    picked = np.nonzero(crossed == crossed.max())[0]
    assert crossed.max() == 2 and picked.size > 10
    got = sol._integrals(x, exponent, np.zeros(x.size - 1), bracket)
    geo = np.geomspace(max(10.0 * sol.r[1], 2e-3 * sol.r_last), 0.99 * sol.r_last, 80)
    cases = [(x[k], x[k + 1], got[k]) for k in picked] + [
        (geo[52], geo[53], sol._integrals(geo[52:54], exponent, np.zeros(1), bracket)[0])]
    for a, b, value in cases:
        cuts = np.concatenate([[a], knots[(knots > a) & (knots < b)], [b]])
        ref = sum(quad(lambda s: float(density(s)), lo, hi, epsabs=0.0,
                       epsrel=1e-12, limit=100)[0] for lo, hi in zip(cuts[:-1], cuts[1:]))
        assert abs(value - ref) <= 1e-12 * abs(ref)


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
    """A profile of another model or another p is refused, and so is an
    envelope check on a solution that ends before r = 1."""
    with pytest.raises(pl.GridMismatch):
        pl.functional_traces(hy_run.sol, eu_run.prof)
    other_p = pl.geometry_profile(hy_run.model, 3, 1.5, hy_run.sol.r_last)
    with pytest.raises(pl.GridMismatch, match=r"\(n, p\)"):
        pl.decay_envelope_check(hy_run.sol, other_p)
    short = make_run("hyperbolic", 3, 2.0, 5.0, 1.0, rmax=1.0)
    with pytest.raises(pl.GridMismatch, match="does not reach"):
        pl.decay_envelope_check(short.sol, short.prof)


def test_glued_pair_mismatch_guard():
    """Glued models that differ only in a segment's end are different
    models: a solution on one is refused with the other's profile, while
    the same glue built twice is accepted."""

    def glue(end):
        pieces = [(pl.make_model("euclidean"), 0.0), (pl.make_model(end), 2.0)]
        return pl.glue_models(pieces, 0.5, horizon=20.0)

    model = glue("hyperbolic")
    sol = pl.integrate(pl.Problem(3, 2.0, 5.0, 1.0), model, pl.SolverConfig(15.0))
    other = pl.geometry_profile(glue("powerlike:k=2"), 3, 2.0, sol.r_last)
    for check in (pl.functional_traces, pl.decay_envelope_check):
        with pytest.raises(pl.GridMismatch):
            check(sol, other)
    same = pl.geometry_profile(glue("hyperbolic"), 3, 2.0, sol.r_last)
    pl.functional_traces(sol, same)  # accepted: no GridMismatch
    assert pl.decay_envelope_check(sol, same)["passed"]


@pytest.mark.parametrize("end", ["hyperbolic", "powerlike:k=2", "exppower:c=1,m=2"])
def test_pohozaev_passes_on_glued_model(end):
    """A model flat up to r = 2 and blending into `end` over [2, 2.5] is
    audited between the 200 sampled rows, on integrals cut at the join and
    at the blend window's end, and the identity holds there."""
    model = pl.glue_models([(pl.make_model("euclidean"), 0), (pl.make_model(end), 2)],
                           0.5, horizon=20)
    sol = pl.integrate(pl.Problem(3, 2.0, 5.0, 1.0), model, pl.SolverConfig(15.0))
    pohozaev = _pohozaev(pl.functional_traces(
        sol, pl.geometry_profile(model, 3, 2.0, sol.r_last)))
    assert pohozaev["audited_radii"] == 200
    assert pohozaev["passed"], pohozaev


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


def test_ratio_si_refusals(hy_run):
    with pytest.raises(pl.RegimeMismatch):
        pl.asymptotic_ratio_si(hy_run.sol, hy_run.prof)
    # pSI, but solved only to R = 1, where |u'(R)| R / u(R) is about 0.1
    early = make_run("exppower:c=1,m=3", 3, 2.0, 5.0, 1.0, rmax=1.0)
    assert early.prof.tail_converged
    with pytest.raises(pl.NoPlateau):
        pl.asymptotic_ratio_si(early.sol, early.prof)
    # small alpha: u - lambda_hat is within rel_tol of u (0 at 1e-4, and
    # lambda_hat^{q/(p-1)} underflows to 0 at 1e-100)
    for alpha in (1e-4, 1e-100):
        low = make_run("exppower:c=1,m=3", 3, 2.0, 5.0, alpha)
        with pytest.raises(pl.UnresolvedPlateau):
            pl.asymptotic_ratio_si(low.sol, low.prof)


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


def test_energy_probe_reads_glued_model_as_curved():
    """Flatness is read over the whole solved range: a model flat up to
    r = 12 and hyperbolic past it, at the critical power with R = 30, is
    curved, so the probe answers the pSC case with a positive slope instead
    of raising EuclideanCritical."""
    model = pl.glue_models([(pl.make_model("euclidean"), 0),
                            (pl.make_model("hyperbolic"), 12)], 0.5, horizon=40)
    prob = pl.Problem(3, 2.0, 5.0, 1.0)
    assert prob.is_critical
    sol = pl.integrate(prob, model, pl.SolverConfig(30.0))
    out = pl.energy_divergence_probe(sol, pl.geometry_profile(model, 3, 2.0, 30.0))
    assert out["case"] == "pSC"
    assert out["positive_slope"]


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


def test_regime_is_fitted_once_per_profile(hy_run, monkeypatch):
    """classify_completeness, asymptotic_ratio_sc and lemma_limit_checks
    share the profile's kept regime: on one fresh profile the liminf
    quotient, which each fit reads once, is read once in all."""
    calls = []
    read = models.GeometryProfile.hp_fail_proxy

    def counted(self, r):
        calls.append(1)
        return read(self, r)

    monkeypatch.setattr(models.GeometryProfile, "hp_fail_proxy", counted)
    prof = pl.geometry_profile(hy_run.model, 3, 2.0, hy_run.sol.r_last)
    assert pl.classify_completeness(prof).regime.name == "hp-add-1"
    pl.asymptotic_ratio_sc(hy_run.sol, prof)
    pl.lemma_limit_checks(hy_run.sol, prof)
    assert len(calls) == 1


def test_ladder_samples_match_scalar_reads(hy_run, ep_run):
    """The limit checks' samples on their dyadic ladders equal the reads
    one radius at a time that they replace: exactly where the arithmetic
    is the same, and to 4 eps where a power of an array is taken in place
    of a power of a float (numpy's vector pow may round differently)."""
    ulp4 = 4 * np.finfo(float).eps
    sol, prof = hy_run.sol, hy_run.prof
    R = sol.r_last
    radii = [R / 4.0, R / 2.0, R]
    sc = pl.asymptotic_ratio_sc(sol, prof)
    assert sc["radii"] == radii
    assert sc["Q"] == pytest.approx([prof.J(r) ** 0.25 * sol.eval_u(r) for r in radii],
                                    rel=ulp4, abs=0.0)
    lemma = pl.lemma_limit_checks(sol, prof)
    u, du = [sol.eval_u(r) for r in radii], [sol.eval_du(r) for r in radii]
    f = [float(prof.model.slope_ratio(r)) for r in radii]
    assert lemma["ratio_a"] == [d / (v * g) for v, d, g in zip(u, du, f)]
    assert lemma["ratio_b"] == pytest.approx([-d / v ** 5.0 * g for v, d, g in zip(u, du, f)],
                                             rel=ulp4, abs=0.0)
    energy = pl.energy_divergence_probe(sol, prof)
    assert energy["radii"] == [R / 8.0] + radii
    assert energy["log_inv_u"] == [math.log(1.0 / sol.eval_u(r)) for r in energy["radii"]]

    sol, prof = ep_run.sol, ep_run.prof
    R = sol.r_last
    radii = [R / 4.0, R / 2.0, R]
    si = pl.asymptotic_ratio_si(sol, prof)
    lam = uR = sol.eval_u(R)
    for _ in range(3):
        lam = uR - prof.tailJ(R) * lam ** 5.0
    assert si["lambda_hat"] == lam
    assert si["refined_ratio"] == [(sol.eval_u(r) - lam) / prof.tailJ(r) for r in radii]
    energy = pl.energy_divergence_probe(sol, prof)
    assert energy["log_trend_reference"] == [
        3.0 * prof.logI(r) - 2.0 * (2 * float(prof.model.log_psi(r))) for r in energy["radii"]]


def test_limit_checks_read_each_quantity_once(hy_run, ep_run, oscillation, monkeypatch):
    """Every limit check samples its dyadic ladder with at most one profile
    lookup (GeometryProfile._logs) and one read of the solution
    (RadialSolution._uv), on a profile whose J ladder and regime are kept;
    so does verify_certificate at its triggers. classify_completeness on a
    fresh profile looks up the J ladder and the regime's W/J, once each,
    and J(R) where the tail converged."""
    hy_reps = pl.functional_traces(hy_run.sol, hy_run.prof)
    ep_reps = pl.functional_traces(ep_run.sol, ep_run.prof)
    calls = {}
    for cls, name in ((models.GeometryProfile, "_logs"), (solver.RadialSolution, "_uv")):
        def counted(self, *args, _read=getattr(cls, name), _name=name, **kwargs):
            calls[_name] += 1
            return _read(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, counted)

    def reads(call):
        calls.update(_logs=0, _uv=0)
        call()
        return calls["_logs"], calls["_uv"]

    profiles = {}
    for run, counts in ((hy_run, (2, 0)), (ep_run, (3, 0))):
        prof = profiles[run.model.kind] = pl.geometry_profile(run.model, 3, 2.0,
                                                              run.sol.r_last)
        assert reads(lambda: pl.classify_completeness(prof)) == counts
    for check, run, report, counts in [
        (pl.asymptotic_ratio_sc, hy_run, None, (1, 1)),
        (pl.lemma_limit_checks, hy_run, None, (0, 1)),
        (pl.asymptotic_ratio_si, ep_run, None, (1, 1)),
        (pl.energy_divergence_probe, hy_run, hy_reps, (0, 1)),
        (pl.energy_divergence_probe, ep_run, ep_reps, (1, 0)),
    ]:
        extra = {} if report is None else {"report": report}
        prof = profiles[run.model.kind]
        assert reads(lambda: check(run.sol, prof, **extra)) == counts, check.__name__
    assert reads(lambda: pl.verify_certificate(oscillation.cert, oscillation.sol,
                                               oscillation.prof)) == (1, 1)


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
