"""End-to-end command-line runs (in-process via cli.main)."""

import json
import math
import os

import numpy as np
import pytest

import plaplace as pl
from plaplace import cli


def run_cli(tmp_path, *args):
    return cli.main(["--out", str(tmp_path)] + list(args))


def load_json(*parts):
    with open(os.path.join(*parts)) as fh:
        return json.load(fh)


def latest_dir(tmp_path):
    with open(os.path.join(tmp_path, "latest")) as fh:
        return os.path.join(tmp_path, fh.read().strip())


def test_solve_smoke(tmp_path):
    code = run_cli(tmp_path, "solve", "--model", "hyperbolic", "--n", "3",
                   "--p", "2", "--q", "5", "--alpha", "1", "--rmax", "60")
    assert code == 0
    d = latest_dir(tmp_path)
    assert os.path.exists(os.path.join(d, "solution.csv"))
    manifest = load_json(d, "manifest.json")
    assert manifest["status"] == "ok"
    assert set(manifest["outputs"]) == {"solution.csv", "solution.json"}


def test_solve_matches_oracle(tmp_path):
    alpha = 2.0 * math.sqrt(2.0)
    code = run_cli(tmp_path, "solve", "--model", "euclidean", "--n", "4",
                   "--p", "2", "--q", "3", "--alpha", repr(alpha),
                   "--rmax", "20")
    assert code == 0
    data = pl.read_csv(os.path.join(latest_dir(tmp_path), "solution.csv"))
    u1 = float(np.interp(1.0, data["r"], data["u"]))
    assert abs(u1 - alpha / 2.0) < 1e-6 * alpha


def test_missing_argument_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "solve", "--model", "euclidean", "--n", "4",
                "--p", "2", "--q", "3")
    assert exc.value.code == 2


def test_bad_model_exits_2(tmp_path):
    code = run_cli(tmp_path, "solve", "--model", "nosuch", "--n", "3",
                   "--p", "2", "--q", "5", "--alpha", "1")
    assert code == 2


def test_subcritical_q_exits_2(tmp_path):
    code = run_cli(tmp_path, "solve", "--model", "euclidean", "--n", "3",
                   "--p", "2", "--q", "4", "--alpha", "1")
    assert code == 2


def test_classify_verdicts(tmp_path):
    assert run_cli(tmp_path, "classify", "--model", "euclidean",
                   "--n", "3", "--p", "2") == 0
    verdict = load_json(latest_dir(tmp_path), "verdict.json")
    assert verdict["verdict"] == "pSC"
    assert verdict["regime"]["name"] == "power-like"
    assert verdict["regime"]["hp_fail"] is True

    assert run_cli(tmp_path, "classify", "--model", "exppower:c=1,m=3",
                   "--n", "3", "--p", "2") == 0
    verdict = load_json(latest_dir(tmp_path), "verdict.json")
    assert verdict["verdict"] == "pSI"

    assert run_cli(tmp_path, "classify", "--model", "hyperbolic",
                   "--n", "3", "--p", "2") == 0
    verdict = load_json(latest_dir(tmp_path), "verdict.json")
    assert verdict["verdict"] == "pSC"
    assert verdict["regime"]["name"] == "hp-add-1"
    assert abs(verdict["regime"]["ell"] - 1.0) < 1e-2


def test_diagnose_checks(tmp_path):
    code = run_cli(tmp_path, "diagnose", "--model", "hyperbolic", "--n", "3",
                   "--p", "2", "--q", "5", "--alpha", "1", "--rmax", "30",
                   "--checks", "pohozaev,ratio-sc,envelope")
    assert code == 0
    d = latest_dir(tmp_path)
    report = load_json(d, "report.json")
    assert all(v["passed"] for v in report["verdicts"])
    assert report["ratio-sc"]["rel_deviation"] < 0.05
    assert report["envelope"]["violations"] == 0
    pohozaev = report["pohozaev"]
    assert pohozaev["name"] == "pohozaev-identity"
    assert pohozaev["audited_radii"] > 0
    assert 0 <= pohozaev["resolved_radii"] <= pohozaev["audited_radii"]
    assert os.path.exists(os.path.join(d, "traces.csv"))


def test_diagnose_regime_mismatch_exits_4(tmp_path):
    code = run_cli(tmp_path, "diagnose", "--model", "exppower:c=1,m=3",
                   "--n", "3", "--p", "2", "--q", "5", "--alpha", "1",
                   "--checks", "ratio-sc")
    assert code == 4
    manifest = load_json(latest_dir(tmp_path), "manifest.json")
    assert manifest["status"] == "error"
    assert "RegimeMismatch" in manifest["error"]


def test_diagnose_unknown_check_exits_2(tmp_path):
    # "energy" is not a second name for "energy-divergence"
    for name in ("nosuchcheck", "energy"):
        code = run_cli(tmp_path, "diagnose", "--model", "euclidean", "--n", "3",
                       "--p", "2", "--q", "5", "--alpha", "1",
                       "--checks", name)
        assert code == 2


def test_quotient_rows_above_reference(tmp_path):
    code = run_cli(tmp_path, "quotient", "--model", "hyperbolic", "--n", "3",
                   "--p", "2", "--b", "1,0.1,0.01")
    assert code == 0
    sweep = load_json(latest_dir(tmp_path), "sweep.json")
    ref = sweep["reference"]["quotient"]
    assert len(sweep["rows"]) == 3
    assert all(row["quotient"] > ref for row in sweep["rows"])
    back = pl.read_csv(os.path.join(latest_dir(tmp_path), "quotients.csv"))
    assert back["model"].tolist() == ["hyperbolic"] * 3
    assert np.array_equal(back["quotient"], [row["quotient"] for row in sweep["rows"]])
    assert np.array_equal(back["flagged"], [int(row["flagged"]) for row in sweep["rows"]])
    assert back["flagged"].tolist() == [1.0, 0.0, 0.0]


def test_oscillate_bad_stage_count_exits_2(tmp_path):
    code = run_cli(tmp_path, "oscillate", "--n", "3", "--p", "2", "--q", "5",
                   "--alpha", "1", "--stages", "3")
    assert code == 2
    manifest = load_json(latest_dir(tmp_path), "manifest.json")
    assert manifest["status"] == "error"


def test_sweep_cartesian_product(tmp_path):
    code = run_cli(tmp_path, "sweep", "--model", "hyperbolic", "--n", "3",
                   "--p", "2", "--alpha", "0.5,1", "--q", "5,7",
                   "--rmax", "20")
    assert code == 0
    d = latest_dir(tmp_path)
    listing = load_json(d, "runs.json")
    assert len(listing["runs"]) == 4
    assert listing["points"] == [
        {"alpha": 0.5, "q": 5.0}, {"alpha": 0.5, "q": 7.0},
        {"alpha": 1.0, "q": 5.0}, {"alpha": 1.0, "q": 7.0},
    ]
    for name in listing["runs"]:
        manifest = load_json(tmp_path, name, "manifest.json")
        assert manifest["status"] == "ok"


def assert_rerun_is_byte_identical(tmp_path, *args):
    """Two runs of one command into one root record the same output hashes
    in every manifest they write (a sweep writes one per solve)."""
    recorded = []
    for _ in range(2):
        assert run_cli(tmp_path, *args) == 0
        recorded.append({name: load_json(tmp_path, name, "manifest.json")["outputs"]
                         for name in os.listdir(tmp_path) if name != "latest"})
    assert all(recorded[0].values())
    assert recorded[0] == recorded[1]


def test_solve_rerun_is_byte_identical(tmp_path):
    assert_rerun_is_byte_identical(
        tmp_path, "solve", "--model", "euclidean", "--n", "3", "--p", "2",
        "--q", "5", "--alpha", "1", "--rmax", "10")


@pytest.mark.parametrize("args", [
    ("classify", "--model", "hyperbolic", "--n", "4", "--p", "3"),
    ("diagnose", "--model", "hyperbolic", "--n", "3", "--p", "2", "--q", "5",
     "--alpha", "1", "--rmax", "10"),
    ("quotient", "--model", "expgamma:c=1,gamma=0.5", "--n", "3", "--p", "2",
     "--b", "1,0.5", "--num", "400"),
    ("sweep", "--model", "hyperbolic", "--n", "3", "--p", "2",
     "--alpha", "0.5,1", "--q", "5", "--rmax", "10"),
], ids=lambda args: args[0])
def test_rerun_is_byte_identical(tmp_path, args):
    assert_rerun_is_byte_identical(tmp_path, *args)


def test_oscillate_rerun_is_byte_identical(tmp_path):
    args = ("oscillate", "--n", "3", "--p", "2", "--q", "5", "--alpha", "1",
            "--stages", "4")
    assert run_cli(tmp_path, *args) == 0
    d = latest_dir(tmp_path)
    m1 = load_json(d, "manifest.json")
    assert set(m1["outputs"]) == {"certificate.json", "solution.csv",
                                  "verification.json"}
    data = pl.read_csv(os.path.join(d, "solution.csv"))
    assert list(data) == ["r", "u", "du", "w"]
    assert np.all(np.diff(data["u"]) <= 0.0)
    assert run_cli(tmp_path, *args) == 0
    m2 = load_json(d, "manifest.json")
    assert m1["outputs"] == m2["outputs"]


def test_oscillate_triggers_are_solution_rows(tmp_path):
    """Every trigger in certificate.json is a row of solution.csv, with the
    same u: the certificate is read off the exported solution itself."""
    assert run_cli(tmp_path, "oscillate", "--n", "3", "--p", "2", "--q", "5",
                   "--alpha", "1", "--stages", "4") == 0
    d = latest_dir(tmp_path)
    cert = load_json(d, "certificate.json")
    data = pl.read_csv(os.path.join(d, "solution.csv"))
    for entry in cert["stages"]:
        (row,) = np.flatnonzero(data["r"] == entry["r"])
        assert data["u"][row] == entry["u"]


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PLAPLACE_RUNS", str(tmp_path / "viaenv"))
    code = cli.main(["classify", "--model", "euclidean", "--n", "3",
                     "--p", "2"])
    assert code == 0
    assert os.path.exists(tmp_path / "viaenv" / "latest")
