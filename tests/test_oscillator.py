"""Staged construction of a geometry with persistently oscillating Q."""

import logging
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import plaplace as pl
from plaplace import oscillator, solver


def test_thresholds_formula():
    t_low, t_high = pl.thresholds(3, 2.0, 5.0)
    C = pl.q_limit_constant(2.0, 5.0)
    assert t_low == pytest.approx(C * (2.0 / 3.0) ** 0.25)
    assert t_high == pytest.approx(C * (5.0 / 6.0) ** 0.25)
    assert t_low < t_high < C


def test_construct_validation():
    with pytest.raises(pl.InvalidParameter):
        pl.construct(3, 2.0, 5.0, 1.0, 3)   # odd
    with pytest.raises(pl.InvalidParameter):
        pl.construct(3, 2.0, 5.0, 1.0, 2)   # too few


def test_stage_budget_exhausted(monkeypatch):
    """A stage whose radius budget ends before its trigger raises
    TriggerTimeout."""
    monkeypatch.setattr(oscillator, "_stage_budget", lambda *args: 0.5)
    with pytest.raises(oscillator.TriggerTimeout, match="stage 0"):
        pl.construct(3, 2.0, 5.0, 1.0, 4)


def test_rows_below_first_join_match_flat_profile(oscillation):
    """Up to the first join the glued model is flat, so the re-solve must
    reproduce u = (1 + r^2/3)^(-1/2); the stepper restarts at every join
    rather than step across it."""
    sol = oscillation.sol
    r_join = oscillation.cert.stages[0]["r"]
    assert r_join in sol._dense.ts
    keep = (sol.r > 0.0) & (sol.r <= r_join)
    exact = (1.0 + sol.r[keep] ** 2 / 3.0) ** -0.5
    assert np.max(np.abs(sol.u[keep] - exact) / exact) < 1e-11


def test_triggers_match_independent_reference(oscillation):
    """Q and u at every trigger agree within 1e-9 with a reference that
    shares neither stepper nor quadrature with the construction: LSODA at
    rtol 1e-12, atol 1e-14 on the state (log Theta, log J, u, v = log(-w)),
    with the geometry as ODEs

      (log Theta)' = 1/Theta - (n-1) psi'/psi,   (log J)' = Theta^mu / J,

    started from the small-r series and restarted at each join of the final
    glued model. The joins are the triggers before the last, so every piece
    ends at a trigger."""
    n, p, q = 3, 2.0, 5.0
    prob = pl.Problem(n, p, q, 1.0)
    model = oscillation.model
    mu = 1.0 / (p - 1.0)
    ex = (p - 1.0) / (q + 1.0 - p)

    def rhs(r, y):
        th, lJ, u, v = y
        L, f = model.log_psi(r), model.slope_ratio(r)
        G = (n - 1) * L
        return [math.exp(-th) - (n - 1) * f, math.exp(mu * th - lJ),
                -math.exp(mu * (v - G)), math.exp(G + q * math.log(u) - v)]

    start = 1e-6
    u0, v0 = solver.series_startup(prob, model, start)
    y = [*pl.models.geometry_start(start, n, p), u0, v0]
    stages = oscillation.cert.stages
    assert list(model.joins()) == [entry["r"] for entry in stages[:-1]]
    for entry in stages:
        ref = solve_ivp(rhs, (start, entry["r"]), y, method="LSODA",
                        rtol=1e-12, atol=1e-14)
        assert ref.success
        y = ref.y[:, -1]
        Q = math.exp(ex * y[1]) * y[2]
        assert abs(Q - entry["Q"]) <= 1e-9 * entry["Q"]
        assert abs(y[2] - entry["u"]) <= 1e-9 * entry["u"]
        start = entry["r"]


def test_continued_stages_equal_a_solve_from_the_pole(oscillation):
    """Every stage after the first continues the previous stage's run from
    its trigger; the returned solution is, to the bit, one integrate run
    from the pole on the final model up to the last trigger."""
    model, sol, cert = oscillation.model, oscillation.sol, oscillation.cert
    fresh = pl.integrate(pl.Problem(3, 2, 5, 1), model,
                         pl.SolverConfig(cert.stages[-1]["r"]))
    for a, b in [(fresh.r, sol.r), (fresh.u, sol.u), (fresh.du, sol.du),
                 (fresh.w, sol.w), (fresh._dense._table, sol._dense._table)]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_certificate_structure(oscillation):
    cert = oscillation.cert
    assert len(cert.stages) == 4
    for i, entry in enumerate(cert.stages):
        assert entry["index"] == i
        assert entry["kind"] == ("power-like" if i % 2 == 0 else "exponential")
        assert entry["u"] < 2.0 ** (-i)
    radii = [s["r"] for s in cert.stages]
    assert all(b >= a + 1.0 - 1e-9 for a, b in zip(radii, radii[1:]))
    # even stages dip below the lower threshold, odd climb above the upper
    for entry in cert.stages:
        if entry["index"] % 2 == 0:
            assert entry["Q"] < cert.t_low
        else:
            assert entry["Q"] > cert.t_high


def test_band_separation(oscillation):
    cert = oscillation.cert
    assert cert.band_min_even < cert.t_low < cert.t_high < cert.band_max_odd
    assert cert.separation >= (cert.t_high - cert.t_low) / 2.0


def test_verify_certificate(oscillation):
    out = pl.verify_certificate(oscillation.cert, oscillation.sol,
                                oscillation.prof)
    assert out["passed"]
    # psi(r_k) e^{-l r_k} increases along odd stages for l = 1 and 2
    for ell in (1, 2):
        seq = out["odd_growth_log"][ell]
        assert all(b > a for a, b in zip(seq, seq[1:]))


def test_construct_profile_verifies_as_a_fresh_one(oscillation):
    """The profile construct returns, its last stage's, verifies the
    certificate to the same dict as one tabulated afresh to the last
    trigger."""
    fresh = pl.geometry_profile(oscillation.model, 3, 2.0,
                                oscillation.cert.stages[-1]["r"])
    assert oscillation.prof.model is oscillation.model
    assert (pl.verify_certificate(oscillation.cert, oscillation.sol, oscillation.prof)
            == pl.verify_certificate(oscillation.cert, oscillation.sol, fresh))


def test_six_stages_verify_without_warnings():
    """Six stages restart DOP853 at the late joins r ~ 11,371 and 11,573;
    each restart begins with the previous piece's last step instead of
    scipy's initial-step guess, which overflowed there. The run is
    warning-free and its certificate verifies."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, sol, cert, prof = pl.construct(3, 2.0, 5.0, 1.0, 6)
        assert pl.verify_certificate(cert, sol, prof)["passed"]
    assert len(cert.stages) == 6


@pytest.mark.parametrize("n, p, q, triggers", [
    (5, 1.5, 1.1428571428571428, (1.045, 212.79, 221.44, 20075.30)),
    (6, 2.0, 2.0, (1.029, 115.91, 129.45, 1391.40)),
])
def test_critical_power_stages_reach_t_high(n, p, q, triggers):
    """At the critical power u < 2^-s already holds when these exponential
    stages start, so the u target asks for no radius; the budget's J
    target for Q = T_high, from u's law on the stage's Theta_inf, reaches
    the triggers, and both certificates verify."""
    _, sol, cert, prof = pl.construct(n, p, q, 1.0, 4)
    assert [s["r"] for s in cert.stages] == pytest.approx(triggers, abs=0.01)
    assert pl.verify_certificate(cert, sol, prof)["passed"]


def test_unfittable_panel_layout_refused():
    """Eight stages glue a flat stage past the exponential stretch
    [11,564.5, 4,869,836.6], whose geometry layout would take about 1e8
    panels; it is refused before it is laid out."""
    with pytest.raises(pl.QuadratureFailure, match="panels asked for"):
        pl.construct(3, 2.0, 5.0, 1.0, 8)


def test_stage_triggers_are_logged(caplog):
    """Each trigger is logged at INFO as it fires, with the certificate's
    r and Q (as reprs, so the floats are equal)."""
    with caplog.at_level(logging.INFO, logger="plaplace.oscillator"):
        cert = pl.construct(3, 2.0, 5.0, 1.0, 4)[2]
    records = [rec for rec in caplog.records if rec.name == "plaplace.oscillator"]
    assert len(records) == 4
    for rec, entry in zip(records, cert.stages):
        assert rec.levelno == logging.INFO
        msg = rec.getMessage()
        assert msg.startswith(f"stage {entry['index']} ({entry['kind']}) ")
        assert f"r={entry['r']!r}:" in msg and f"Q={entry['Q']!r}," in msg


def test_tampered_certificate_detected(oscillation):
    bad = pl.OscillationCertificate.from_dict(oscillation.cert.to_dict())
    bad.stages[1]["r"] *= 1.1
    with pytest.raises(pl.Inconsistent):
        pl.verify_certificate(bad, oscillation.sol, oscillation.prof)

    bad2 = pl.OscillationCertificate.from_dict(oscillation.cert.to_dict())
    bad2.stages[2]["Q"] *= 1.05
    with pytest.raises(pl.Inconsistent):
        pl.verify_certificate(bad2, oscillation.sol, oscillation.prof)

    # a stage logged twice: two triggers less than one unit apart
    bad3 = pl.OscillationCertificate.from_dict(oscillation.cert.to_dict())
    bad3.stages.insert(2, dict(bad3.stages[1]))
    with pytest.raises(pl.Inconsistent, match="stage 1: join spacing below one unit"):
        pl.verify_certificate(bad3, oscillation.sol, oscillation.prof)

    # cut to three stages, with t_high moved within its tolerance (0.6756 ->
    # 0.6769) above the one odd Q left (0.6768)
    bad4 = pl.OscillationCertificate.from_dict(oscillation.cert.to_dict())
    del bad4.stages[3]
    bad4.t_high = 0.6769
    with pytest.raises(pl.Inconsistent, match="measured bands do not bracket the thresholds"):
        pl.verify_certificate(bad4, oscillation.sol, oscillation.prof)

    # only even stages, only odd stages, no stages: no bands to compare
    for keep in (0, 1, None):
        partial = pl.OscillationCertificate.from_dict(oscillation.cert.to_dict())
        partial.stages = [s for s in partial.stages if s["index"] % 2 == keep]
        with pytest.raises(pl.Inconsistent, match="lacks an even or an odd stage"):
            pl.verify_certificate(partial, oscillation.sol, oscillation.prof)


@pytest.mark.parametrize("tamper, message", [
    ({"t_low": 0.55}, "recomputed t_low=0.638943 deviates from certified 0.55"),
    ({"t_high": 0.70}, "recomputed t_high=0.6756 deviates from certified 0.7"),
    ({"t_low": 0.67, "t_high": 0.60}, "recomputed t_low="),
    ({"t_low": 0.58, "t_high": 0.62}, "recomputed t_low="),
    ((1, "u", lambda u: 1.1 * u), "stage 1: recomputed u="),
    ((1, "log_psi", lambda log_psi: log_psi + 1.0), "stage 1: recomputed log_psi="),
    ((1, "kind", lambda kind: "power-like"), "stage 1: logged kind"),
    ((1, "threshold", lambda threshold: 0.1), "stage 1: recomputed threshold="),
    ((3, "r", lambda r: r - 2.0), "stage 3: exponential trigger conditions fail"),
], ids=["t_low-below-even-Q", "t_high-above-odd-Q", "crossed-bands",
        "thresholds-inside-bands", "stage-u", "stage-log-psi", "stage-kind",
        "stage-threshold", "stage-r-before-trigger"])
def test_tampered_thresholds_detected(oscillation, tamper, message):
    """A certificate whose logged Qs are intact but whose thresholds were
    moved fails verification, as t_low and t_high are recomputed from
    (n, p, q): below the even Qs (0.556, 0.566), above the odd Qs (0.677,
    0.699), crossed, or moved (0.639 -> 0.58, 0.676 -> 0.62) while still
    inside the bands, which every other check would pass. So does one
    where a stage's logged u, log psi, kind or threshold (a (stage, field,
    change) tampering) no longer matches its recomputation, and one whose
    last trigger is moved back 2 to where u is still above 2^-3 (by 1.4e-5
    relative, within the tolerance on u), so StagePlan.fires fails there."""
    data = oscillation.cert.to_dict()
    if isinstance(tamper, dict):
        data.update(tamper)
    else:
        k, field, change = tamper
        data["stages"][k][field] = change(data["stages"][k][field])
    bad = pl.OscillationCertificate.from_dict(data)
    with pytest.raises(pl.Inconsistent, match=message):
        pl.verify_certificate(bad, oscillation.sol, oscillation.prof)


def test_certificate_json_roundtrip(tmp_path, oscillation):
    import json
    path = oscillation.cert.to_json(tmp_path / "cert.json")
    with open(path) as fh:
        again = pl.OscillationCertificate.from_dict(json.load(fh))
    assert again.stages == oscillation.cert.stages
    assert again.separation == oscillation.cert.separation


def test_model_is_convex_and_continuous(oscillation):
    import numpy as np
    model = oscillation.model
    r = np.geomspace(0.01, oscillation.cert.stages[-1]["r"], 300)
    psi, dpsi, ddpsi = model.eval(r)
    finite = np.isfinite(psi)
    assert np.all(ddpsi[finite] >= -1e-9 * np.maximum(psi[finite], 1.0))
    assert np.all(dpsi[finite] >= 1.0 - 1e-9)


def test_stage_plan_triggers():
    plan = oscillator.StagePlan(2, 3, 2.0, 5.0)
    assert plan.kind == "power-like"
    assert plan.fires(5.0, plan.t_low - 0.01, 0.2, 3.0)
    assert not plan.fires(5.0, plan.t_low + 0.01, 0.2, 3.0)
    assert not plan.fires(5.0, plan.t_low - 0.01, 0.3, 3.0)

    plan = oscillator.StagePlan(3, 3, 2.0, 5.0)
    assert plan.kind == "exponential"
    assert plan.rate == 6.0
    assert plan.fires(5.0, plan.t_high + 0.01, 0.1, 16.0)
    assert not plan.fires(5.0, plan.t_high + 0.01, 0.1, 14.0)  # log psi < 3r
