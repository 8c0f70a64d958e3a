"""Show that every check in checks.py has power.

Usage: python3 perfbench/selfcheck.py

Each case feeds a check an exact output built from the closed forms, which
it must accept, and the same output perturbed, which it must reject. No
solver runs; it takes about a second. Exit code 1 if any check accepts a
perturbed output or rejects an exact one.
"""

import json
import os
import sys
import tempfile

import numpy as np

import checks
from checks import CheckFailed, KnownFault


def outcome(fn):
    try:
        fn()
    except CheckFailed:
        return "rejected"
    except KnownFault:
        return "known fault"
    return "accepted"


ROW = {"model": "powerlike:k=2", "b": 0.1, "quotient": 7.1, "err": 5e-5,
       "outer_mass_fraction": 0.007, "flagged": False, "gap": 4.5}


def cases():
    row = ROW
    n, p, q, a = 3, 2.0, 5.0, 0.97
    r = np.concatenate([[0.0], np.geomspace(1e-4, 20.0, 400)])
    u = checks.aubin_talenti(r, n, p, q, a)
    c = a ** 4 / 3.0
    du = -a * c * r * (1.0 + c * r * r) ** -1.5
    bump = np.zeros_like(r)
    bump[5] = 1.0  # near the pole, where the exact profile is flattest
    th_r = np.geomspace(1e-5, 20.0, 300)
    th = checks.hyperbolic_theta_n3(th_r)
    energy = checks.euclidean_critical_energy_n4()
    target = checks.q_limit_target(p, q)
    verdicts = [{"name": v, "passed": True} for v in
                ("F-nonincreasing", "P-nonpositive", "P-nonincreasing")]
    flat = checks.euclidean_quotient(3, 2.0, 1.0, 20.0)

    yield ("Aubin-Talenti profile",
           lambda: checks.check_euclidean_profile(r, u, n, p, q, a),
           lambda: checks.check_euclidean_profile(r, u * (1 + 1e-5 * bump), n, p, q, a))
    yield ("Aubin-Talenti profile, wrong alpha",
           lambda: checks.check_euclidean_profile(r, u, n, p, q, a),
           lambda: checks.check_euclidean_profile(r, u, n, p, q, a * (1 + 1e-5)))
    yield ("hyperbolic Theta",
           lambda: checks.check_hyperbolic_theta(th_r, th),
           lambda: checks.check_hyperbolic_theta(th_r, th * (1 + 1e-5)))
    yield ("energy 32 pi^2/3",
           lambda: checks.check_close("energy", [energy], [energy], 1e-4),
           lambda: checks.check_close("energy", [energy * (1 + 2e-4)], [energy], 1e-4))
    yield ("Q limit",
           lambda: checks.check_q_limit(target * 1.04, p, q),
           lambda: checks.check_q_limit(target * 1.06, p, q))
    yield ("verdict exppower p=2",
           lambda: checks.check_verdict("pSI", "exppower", {"c": 1, "m": 3}, 3, 2.0),
           lambda: checks.check_verdict("pSC", "exppower", {"c": 1, "m": 3}, 3, 2.0))
    yield ("verdict exppower p=3 (borderline)",
           lambda: checks.check_verdict("Inconclusive", "exppower", {"c": 1, "m": 3}, 4, 3.0),
           lambda: checks.check_verdict("pSI", "exppower", {"c": 1, "m": 3}, 4, 3.0))
    yield ("verdict hyperbolic",
           lambda: checks.check_verdict("pSC", "hyperbolic", {}, 3, 2.0),
           lambda: checks.check_verdict("pSI", "hyperbolic", {}, 3, 2.0))
    yield ("F nonincreasing",
           lambda: checks.check_functionals(u, du, np.zeros_like(r), 1.0, n, p, q, a),
           lambda: checks.check_functionals(u * (1 + 1e-6 * bump), du, np.zeros_like(r),
                                            1.0, n, p, q, a))
    yield ("P nonpositive",
           lambda: checks.check_functionals(u, du, -1e-3 * r, 1.0, n, p, q, a),
           lambda: checks.check_functionals(u, du, -1e-3 * r + 1e-6 * bump,
                                            1.0, n, p, q, a))
    yield ("P nonincreasing",
           lambda: checks.check_functionals(u, du, -1e-3 * r, 1.0, n, p, q, a),
           lambda: checks.check_functionals(
               u, du, -1e-3 * r + 2e-3 * np.maximum(r - 10.0, 0.0), 1.0, n, p, q, a))
    yield ("program verdicts",
           lambda: checks.check_program_verdicts(verdicts),
           lambda: checks.check_program_verdicts(
               verdicts[:2] + [{"name": "P-nonincreasing", "passed": False}]))
    yield ("decreasing profile",
           lambda: checks.check_decreasing(u, a, "u"),
           lambda: checks.check_decreasing(u + 1e-9 * bump, a, "u"))
    yield ("sweep row above the flat quotient",
           lambda: checks.check_sweep_row(row, 2.57),
           lambda: checks.check_sweep_row(dict(row, quotient=2.5), 2.57))
    yield ("sweep row resolved",
           lambda: checks.check_sweep_row(row, 2.57),
           lambda: checks.check_sweep_row(dict(row, err=0.01), 2.57))
    yield ("gaps shrink",
           lambda: checks.check_gaps_shrink([15.3, 4.6, 0.8], "powerlike"),
           lambda: checks.check_gaps_shrink([15.3, 0.8, 4.6], "powerlike"))
    yield ("flat quotient against quadrature",
           lambda: checks.check_close("flat", [flat * (1 + 1e-5)], [flat], 1e-4),
           lambda: checks.check_close("flat", [flat * (1 + 1e-3)], [flat], 1e-4))
    yield ("oscillation thresholds",
           lambda: checks.check_close("t", [2 ** -0.5 * (2 / 3) ** 0.25],
                                      [2 ** -0.5 * (2 / 3) ** 0.25], 1e-12),
           lambda: checks.check_close("t", [2 ** -0.5 * (2 / 3) ** 0.25 * (1 + 1e-11)],
                                      [2 ** -0.5 * (2 / 3) ** 0.25], 1e-12))


def manifest_case(tmp):
    path = os.path.join(tmp, "solution.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,u\n0.0,1.0\n")
    manifest = {"status": "ok", "outputs": {"solution.csv": checks.sha256_of(path)}}
    exact = outcome(lambda: checks.check_manifest(manifest, {"solution.csv": path}))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("1.0,0.5\n")
    perturbed = outcome(lambda: checks.check_manifest(manifest, {"solution.csv": path}))
    return exact, perturbed


def main():
    bad = 0
    results = [(name, outcome(good), outcome(wrong)) for name, good, wrong in cases()]
    with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(__file__))) as tmp:
        results.append(("manifest sha256", *manifest_case(tmp)))
    row = ROW
    cutoff = dict(row, model="hyperbolic", b=1.0, quotient=1.6e5, err=160.0,
                  outer_mass_fraction=0.994)
    results.append(("cutoff-dominated sweep row",
                    outcome(lambda: checks.check_sweep_row(row, 2.57)),
                    outcome(lambda: checks.check_sweep_row(cutoff, 2.57))))
    for name, exact, perturbed in results:
        ok = exact == "accepted" and perturbed in ("rejected", "known fault")
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: exact {exact}, perturbed {perturbed}")
    print(json.dumps({"checks": len(results), "without_power": bad}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
