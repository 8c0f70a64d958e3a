"""End-to-end command-line runs (in-process via cli.main)."""

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import time

import numpy as np
import pytest

import plaplace as pl
from plaplace import cli, sobolev


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def test_parser_built_once(tmp_path):
    """main parses every call with one parser per process: two in-process
    calls with different subcommands each get their own arguments."""
    assert cli.build_parser() is cli.build_parser()
    assert run_cli(tmp_path, "classify", "--model", "hyperbolic",
                   "--n", "4", "--p", "3") == 0
    manifest = load_json(latest_dir(tmp_path), "manifest.json")
    assert manifest["command"] == "classify"
    assert (manifest["params"]["n"], manifest["params"]["p"]) == (4, 3.0)
    assert run_cli(tmp_path, "solve", "--model", "euclidean", "--n", "3",
                   "--p", "2", "--q", "5", "--alpha", "0.5", "--rmax", "5") == 0
    manifest = load_json(latest_dir(tmp_path), "manifest.json")
    assert manifest["command"] == "solve"
    params = manifest["params"]
    assert (params["n"], params["p"], params["q"], params["alpha"]) == (3, 2.0, 5.0, 0.5)
    assert params["model"] == "euclidean" and params["rmax"] == 5.0


def test_bad_model_exits_2(tmp_path):
    code = run_cli(tmp_path, "solve", "--model", "nosuch", "--n", "3",
                   "--p", "2", "--q", "5", "--alpha", "1")
    assert code == 2


def test_every_exception_has_one_exit_code():
    """Each exception class the package defines derives from exactly one of
    the three kinds the CLI maps to an exit code (2, 3 or 4), so none can
    escape `main` as a traceback with exit 1; the refusals keep their
    builtin bases as well."""
    kinds = (pl.UsageError, pl.SolverError, pl.RegimeError)
    found = set()
    for info in pkgutil.iter_modules(pl.__path__, "plaplace."):
        module = importlib.import_module(info.name)
        found.update(obj for obj in vars(module).values()
                     if isinstance(obj, type) and issubclass(obj, Exception)
                     and obj.__module__ == module.__name__)
    # the walk reaches each module that defines a refusal
    assert {pl.InvalidParameter, pl.StepSizeCollapse, pl.RegimeMismatch,
            pl.TailDivergence, pl.Inconsistent} <= found
    for exc in found:
        assert sum(issubclass(exc, kind) for kind in kinds) == 1, exc
    assert issubclass(pl.InvalidParameter, ValueError)
    assert all(issubclass(exc, RuntimeError) for exc in (
        pl.ConvexityViolation, pl.QuadratureFailure, pl.GeometryOverflow,
        pl.AmbiguousRegime))


def test_subcritical_q_exits_2(tmp_path):
    code = run_cli(tmp_path, "solve", "--model", "euclidean", "--n", "3",
                   "--p", "2", "--q", "4", "--alpha", "1")
    assert code == 2


_SOLVE = ("solve", "--model", "hyperbolic", "--n", "3", "--p", "2")
_QUOTIENT = ("quotient", "--model", "hyperbolic", "--n", "3", "--p", "2", "--b")
_SWEEP = ("sweep", "--model", "hyperbolic", "--n", "3", "--p", "2")
_CLASSIFY = ("classify", "--n", "3", "--p", "2", "--model")


@pytest.mark.parametrize("argv", [
    _SOLVE + ("--q", "5", "--alpha", "1", "--rtol", "nan"),
    _SOLVE + ("--q", "5", "--alpha", "1", "--atol", "nan"),
    _SOLVE + ("--q", "5", "--alpha", "1", "--rmax", "inf"),
    _SOLVE + ("--q", "5", "--alpha", "1", "--rmax", "nan"),
    _SOLVE + ("--q", "5", "--alpha", "nan"),
    _SOLVE + ("--q", "nan", "--alpha", "1"),
    _SOLVE + ("--q", "inf", "--alpha", "1"),
    _QUOTIENT + ("nan",),
    _QUOTIENT + ("1,x",),
    _QUOTIENT + (",",),
    _SWEEP + ("--alpha", "1,y", "--q", "5"),
    _CLASSIFY + ("exppower:c=1,m=inf",),
    _CLASSIFY + ("exppower:c=1,m=nan",),
    _CLASSIFY + ("exppower:c=inf,m=3",),
    _CLASSIFY + ("expgamma:c=inf,gamma=0.5",),
    _CLASSIFY + ("powerlike:k=inf",),
    _CLASSIFY + ("hyperbolic:x=1",),
    _CLASSIFY + ("exppower:c=abc,m=3",),
], ids=lambda argv: " ".join(argv[-2:]))
def test_non_finite_or_malformed_arguments_exit_2(tmp_path, capsys, argv):
    """Non-finite numbers (model parameters among them), unparsable or
    empty comma lists and a parameter the model kind does not take are
    argument errors, refused before any integration starts (a NaN
    tolerance or an infinite horizon otherwise never returns, and a NaN
    horizon exits 0), with an `error: argument:` line in place of a
    traceback."""
    start = time.perf_counter()
    assert run_cli(tmp_path, *argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: argument:")


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
                   "--checks",
                   "pohozaev,ratio-sc,envelope,energy-divergence,lemma-limits")
    assert code == 0
    d = latest_dir(tmp_path)
    report = load_json(d, "report.json")
    assert all(v["passed"] for v in report["verdicts"])
    assert report["ratio-sc"]["rel_deviation"] < 0.05
    assert report["envelope"]["violations"] == 0
    energy = report["energy-divergence"]
    assert energy["case"] == "pSC" and energy["positive_slope"]
    lemma = report["lemma-limits"]
    assert abs(lemma["ratio_a_limit"]) <= lemma["ratio_a_error_bar"]
    assert lemma["ratio_b_rel_deviation"] < 0.05
    pohozaev = report["pohozaev"]
    assert pohozaev["name"] == "pohozaev-identity"
    assert pohozaev["audited_radii"] > 0
    assert 0 <= pohozaev["resolved_radii"] <= pohozaev["audited_radii"]
    assert os.path.exists(os.path.join(d, "traces.csv"))


def test_diagnose_ratio_si_on_plateau(tmp_path):
    """exppower:c=1,m=3 at (n, p) = (3, 2) is pSI: the solution plateaus
    below alpha and the refined ratio meets lambda^{q/(p-1)}."""
    code = run_cli(tmp_path, "diagnose", "--model", "exppower:c=1,m=3",
                   "--n", "3", "--p", "2", "--q", "5", "--alpha", "1",
                   "--checks", "ratio-si")
    assert code == 0
    si = load_json(latest_dir(tmp_path), "report.json")["ratio-si"]
    assert 0.0 < si["lambda_hat"] < 1.0
    assert si["rel_deviation"] < 0.05
    assert si["bound_slack"] > 0.0


def test_diagnose_ratio_si_refuses_unresolved_plateau(tmp_path, capsys):
    """At alpha = 1e-4, u - lambda_hat is lost to rounding on the ladder:
    ratio-si refuses (exit 3) where it read ratios of 0."""
    code = run_cli(tmp_path, "diagnose", "--model", "exppower:c=1,m=3",
                   "--n", "3", "--p", "2", "--q", "5", "--alpha", "1e-4",
                   "--checks", "ratio-si")
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: solver: UnresolvedPlateau:")


@pytest.mark.parametrize("model", ["euclidean", "hyperbolic"])
def test_diagnose_start_below_the_geometry_table(tmp_path, model):
    """At alpha = 1e30 the solve starts at r = 1e-64, below the geometry
    table's first radius; the profile reads its small-r series there."""
    code = run_cli(tmp_path, "diagnose", "--model", model, "--n", "3",
                   "--p", "2", "--q", "5", "--alpha", "1e30")
    assert code == 0
    assert load_json(latest_dir(tmp_path), "report.json")["pohozaev"]["passed"]


def test_diagnose_geometry_overflow_exits_3(tmp_path):
    """A solver-side failure exits 3 with the error in the manifest: on
    exppower:c=1,m=3 the traces leave the double range before R = 20."""
    code = run_cli(tmp_path, "diagnose", "--model", "exppower:c=1,m=3",
                   "--n", "3", "--p", "2", "--q", "5", "--alpha", "1",
                   "--rmax", "20")
    assert code == 3
    manifest = load_json(latest_dir(tmp_path), "manifest.json")
    assert manifest["status"] == "error"
    assert manifest["error"].startswith("GeometryOverflow:")
    assert "r = 7.0696" in manifest["error"]


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
    assert all(row["model"] == "hyperbolic" for row in sweep["rows"])
    back = pl.read_csv(os.path.join(latest_dir(tmp_path), "quotients.csv"))
    assert list(back) == ["n", "p", "b", "quotient", "err", "flagged"]
    assert np.array_equal(back["quotient"], [row["quotient"] for row in sweep["rows"]])
    assert np.array_equal(back["flagged"], [int(row["flagged"]) for row in sweep["rows"]])
    assert back["flagged"].tolist() == [1.0, 0.0, 0.0]


def test_quotient_rows_have_finite_error_bars(tmp_path, capsys):
    """Every row and the reference carry a finite error bar, and stderr
    stays empty."""
    assert run_cli(tmp_path, *_QUOTIENT, "1,0.1") == 0
    assert capsys.readouterr().err == ""
    sweep = load_json(latest_dir(tmp_path), "sweep.json")
    for row in sweep["rows"] + [sweep["reference"]]:
        assert math.isfinite(row["err"]) and 0.0 < row["err"] < row["quotient"]


@pytest.mark.parametrize("flagged", [True, False], ids=["unresolved", "default"])
def test_quotient_flags_unresolved_reference(tmp_path, capsys, monkeypatch, flagged):
    """The Euclidean reference is flagged by the rows' error-bar rule: with
    its error bar read as its whole quotient (as a 6-point Simpson grid
    once gave) it is flagged, with its own error bar, ~5e-14 of it, not.
    The flag is in sweep.json and on the summary line, and the run still
    exits 0."""
    # the reference is computed afresh, with the patched error bar
    monkeypatch.setattr(sobolev, "_euclid_reference_cache", {})
    if flagged:
        quotient = sobolev.sobolev_quotient

        def unresolved(*args, **kwargs):
            rep = quotient(*args, **kwargs)
            return dict(rep, err=rep["quotient"])

        monkeypatch.setattr(sobolev, "sobolev_quotient", unresolved)
    assert run_cli(tmp_path, *_QUOTIENT, "1,0.1") == 0
    ref = load_json(latest_dir(tmp_path), "sweep.json")["reference"]
    assert ref["flagged"] is flagged
    assert (ref["err"] > 0.5 * ref["quotient"]) is flagged
    assert f" reference_flagged={flagged} " in capsys.readouterr().out


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


@pytest.mark.parametrize("alpha, q", [("1,1", "5"), ("0.5,1", "5,7,5")])
def test_sweep_refuses_repeated_point(tmp_path, alpha, q):
    """A value listed twice would solve one point twice into one run
    directory; it is refused (exit 2) before any solve runs."""
    code = run_cli(tmp_path, "sweep", "--model", "hyperbolic", "--n", "3",
                   "--p", "2", "--alpha", alpha, "--q", q, "--rmax", "5")
    assert code == 2
    assert os.listdir(tmp_path) == []


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
     "--b", "1,0.5"),
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


def test_scipy_never_loads():
    """scipy is a test dependency only: in a fresh interpreter, importing
    the CLI and running an underflow solve (the run of
    test_underflow_termination), a glued window, the 4-stage construction
    (with its Radau hand-off) and a concentration sweep loads no scipy
    module."""
    code = (
        "import sys\n"
        "import plaplace.cli\n"
        "import plaplace as pl\n"
        "sol = pl.integrate(pl.Problem(4, 2.0, 3.0, 1.4e5),\n"
        "                   pl.make_model('euclidean'), pl.SolverConfig(50.0))\n"
        "assert sol.termination == 'underflow'\n"
        "pl.models.as_glued(pl.make_model('euclidean')).extended(1.0, 10.0, 0.0, 4.0, 0.5)\n"
        "pl.construct(3, 2.0, 5.0, 1.0, 4)\n"
        "pl.concentration_sweep(pl.make_model('hyperbolic'), 3, 2.0, [1.0, 0.1])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_numpy_ma_never_loads(tmp_path):
    """np.unique, np.union1d and np.median import numpy.ma, about 10 ms on
    a process's first call: in a fresh interpreter, a solve with its rows
    and flux residual, a profile with its traces, and every subcommand (the
    classifier, the three limit checks and the 4-stage construction among
    them) load no numpy.ma."""
    code = (
        "import sys\n"
        "import plaplace as pl\n"
        "from plaplace import cli\n"
        "model = pl.make_model('hyperbolic')\n"
        "sol = pl.integrate(pl.Problem(3, 2.0, 5.0, 1.0), model, pl.SolverConfig(20.0))\n"
        "assert len(sol.r) > 100\n"
        "pl.flux_residual(sol)\n"
        "pl.functional_traces(sol, pl.geometry_profile(model, 3, 2.0, sol.r_last))\n"
        f"out = ['--out', {str(tmp_path)!r}]\n"
        "problem = ['--n', '3', '--p', '2', '--q', '5', '--alpha', '1']\n"
        "for argv in (\n"
        "        ['solve', '--model', 'hyperbolic', '--rmax', '20'] + problem,\n"
        "        ['classify', '--model', 'exppower:c=1,m=3', '--n', '3', '--p', '2'],\n"
        "        ['diagnose', '--model', 'hyperbolic', '--rmax', '20'] + problem\n"
        "        + ['--checks', 'pohozaev,envelope,ratio-sc,lemma-limits,energy-divergence'],\n"
        "        ['diagnose', '--model', 'exppower:c=1,m=3'] + problem\n"
        "        + ['--checks', 'ratio-si'],\n"
        "        ['quotient', '--model', 'hyperbolic', '--n', '3', '--p', '2', '--b', '1,0.1'],\n"
        "        ['sweep', '--model', 'hyperbolic', '--n', '3', '--p', '2',\n"
        "         '--alpha', '0.5,1', '--q', '5', '--rmax', '10'],\n"
        "        ['oscillate', '--stages', '4'] + problem):\n"
        "    assert cli.main(out + argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
