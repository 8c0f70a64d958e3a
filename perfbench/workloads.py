"""The three benchmark workloads.

A workload is set up once per process (imports, models, lazy first-call
work) and then yields a fixed list of operations per pass. Each operation
is a `run` callable, whose wall time counts towards the pass, and a `check`
callable that judges the output against the independent oracles in
`checks.py` and returns the relative errors it measured; checks are not
timed. The seed only sets the central values alpha, and the oracles hold
for every alpha.
"""

import contextlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys

import numpy as np

import checks
from checks import CheckFailed, KnownFault

MODELS = ("euclidean", "hyperbolic", "exppower:c=1,m=3", "powerlike:k=2",
          "expgamma:c=1,gamma=0.5")
# the critical power q = p* - 1 of each (n, p)
TUPLES = ((3, 2.0, 5.0), (4, 3.0, 11.0), (5, 1.5, 8.0 / 7.0))
SWEEP_BS = (1.0, 0.1, 0.01)
ROOT_2_2 = 2.0 * math.sqrt(2.0)


def alpha_scale(seed):
    """Central-value factor in [0.95, 1.05]: narrow, so pass work barely moves."""
    return 0.95 + 0.1 * random.Random(seed).random()


class Op:
    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


class Refused:
    """A typed refusal raised by plaplace in place of a result."""

    def __init__(self, exc):
        self.exc = exc


def refusing(fn):
    """Run fn; a plaplace exception becomes a Refused result."""
    try:
        return fn()
    except Exception as exc:
        if type(exc).__module__.startswith("plaplace."):
            return Refused(exc)
        raise


def run_cli(cli, argv):
    """cli.main in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _run_dir_files(path):
    return {name: os.path.join(path, name) for name in os.listdir(path)
            if name != "manifest.json"}


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_run_dir(path):
    """Manifest status and hashes of one run directory; returns its files."""
    files = _run_dir_files(path)
    checks.check_manifest(_load_json(os.path.join(path, "manifest.json")), files)
    return files


def warm_solver(pl, euclidean):
    """First calls along the solve and geometry path, which pay scipy's
    deferred imports; returns the small solution and profile."""
    sol = pl.solver.integrate(pl.solver.Problem(3, 2.0, 5.0, 1.0), euclidean,
                              pl.solver.SolverConfig(1.0))
    return sol, pl.models.geometry_profile(euclidean, 3, 2.0, sol.r_last)


class Workload:
    name = None

    def __init__(self, seed, pl, work_dir):
        self.seed = seed
        self.scale = alpha_scale(seed)
        self.pl = pl
        self.work_dir = work_dir

    def setup(self):
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def finish_pass(self, ctx):
        """Checks across the operations of one pass."""

    def cleanup(self):
        """Untimed tidy-up after a pass."""


class AuditMatrix(Workload):
    """Library calls only: the acceptance matrix, asymptotics and Sobolev probes."""

    name = "audit-matrix"

    def setup(self):
        pl = self.pl
        self.models = {d: pl.models.make_model(d) for d in MODELS}
        pl.diagnostics.functional_traces(*warm_solver(pl, self.models["euclidean"]))
        # cached once per process; every sweep compares against it
        pl.sobolev.euclidean_reference(3, 2.0)

    def ops(self):
        ops = [self._case(d, n, p, q) for d in MODELS for n, p, q in TUPLES]
        ops += [self._decay("hyperbolic"), self._decay("expgamma:c=1,gamma=0.5"),
                self._plateau(), self._energy(), self._flat_quotient()]
        ops += [self._sweep(d, b) for d in ("hyperbolic", "powerlike:k=2")
                for b in SWEEP_BS]
        return ops

    def _solve(self, descriptor, n, p, q, alpha, rmax):
        pl = self.pl
        model = self.models[descriptor]
        sol = pl.solver.integrate(pl.solver.Problem(n, p, q, alpha), model,
                                  pl.solver.SolverConfig(rmax))
        prof = pl.models.geometry_profile(model, n, p, sol.r_last)
        return sol, prof

    def _case(self, descriptor, n, p, q):
        pl = self.pl
        model = self.models[descriptor]
        alpha = self.scale

        def run():
            rmax = min(20.0, pl.models.safe_horizon(model, n))
            sol, prof = self._solve(descriptor, n, p, q, alpha, rmax)
            rep = pl.diagnostics.functional_traces(sol, prof)
            flux = pl.solver.flux_residual(sol)
            verdict = pl.models.classify_completeness(prof)
            return sol, prof, rep, flux, verdict

        def check(out, ctx):
            sol, prof, rep, flux, verdict = out
            checks.check_functionals(sol.u, sol.du, rep.P, prof.I(sol.r_last),
                                     n, p, q, alpha)
            checks.check_program_verdicts(rep.verdicts)
            _require(flux < 1e-6, f"flux residual {flux:.3e}")
            checks.check_verdict(verdict.verdict, model.kind, model.params(), n, p)
            errs = []
            if model.kind == "euclidean":
                errs.append(checks.check_euclidean_profile(sol.r, sol.u, n, p, q, alpha))
            if model.kind == "hyperbolic" and n == 3:
                r = np.geomspace(1e-2, sol.r_last, 200)
                errs.append(checks.check_hyperbolic_theta(r, prof.theta(r)))
            return errs

        return Op(f"case {descriptor} ({n},{p:g},{q:g})", run, check)

    def _decay(self, descriptor):
        pl = self.pl
        hyperbolic = descriptor == "hyperbolic"

        def run():
            sol, prof = self._solve(descriptor, 3, 2.0, 5.0, self.scale, 60.0)
            sc = pl.diagnostics.asymptotic_ratio_sc(sol, prof)
            env = pl.diagnostics.decay_envelope_check(sol, prof)
            lemma = pl.diagnostics.lemma_limit_checks(sol, prof) if hyperbolic else None
            return sc, env, lemma

        def check(out, ctx):
            sc, env, lemma = out
            checks.check_q_limit(sc["limit"], 2.0, 5.0)
            _require(env["passed"] and env["violations"] == 0,
                     f"{descriptor}: decay envelope violated")
            if lemma is not None:
                # psi'/psi -> 1: (-u') u^{-q/(p-1)} (psi'/psi)^{1/(p-1)} -> 1/(n-1)
                dev = abs(lemma["ratio_b_limit"] - 0.5) / 0.5
                _require(dev < 0.05, f"auxiliary limit off by {dev:.3g}")
            return []

        return Op(f"decay {descriptor} R=60", run, check)

    def _plateau(self):
        pl = self.pl
        descriptor = "exppower:c=1,m=3"
        model = self.models[descriptor]

        def run():
            sol, prof = self._solve(descriptor, 3, 2.0, 5.0, self.scale,
                                    min(60.0, pl.models.safe_horizon(model, 3)))
            verdict = pl.models.classify_completeness(prof)
            si = pl.diagnostics.asymptotic_ratio_si(sol, prof)
            energy = pl.diagnostics.energy_divergence_probe(sol, prof)
            return sol, verdict, si, energy

        def check(out, ctx):
            sol, verdict, si, energy = out
            checks.check_verdict(verdict.verdict, model.kind, model.params(), 3, 2.0)
            lam = si["lambda_hat"]
            _require(0.0 < lam <= float(sol.u[-1]), f"plateau {lam!r} outside (0, u(R)]")
            _require(si["bound_slack"] > 0.0, "plateau above the universal bound")
            _require(si["rel_deviation"] < 0.10,
                     f"refined ratio off by {si['rel_deviation']:.3g}")
            _require(energy["case"] == "pSI"
                     and all(x > 1.2 for x in energy["doubling_ratios"]),
                     "gradient energy does not keep growing")
            return []

        return Op("plateau exppower:c=1,m=3", run, check)

    def _energy(self):
        pl = self.pl
        alpha = ROOT_2_2 * self.scale

        def run():
            sol, prof = self._solve("euclidean", 4, 2.0, 3.0, alpha, 100.0)
            rep = pl.diagnostics.functional_traces(sol, prof)
            E = [float(np.interp(R, rep.r, rep.E)) for R in (25.0, 50.0, 100.0)]
            limit, err = pl.extrapolate.richardson(E)
            refusal = refusing(lambda: pl.diagnostics.energy_divergence_probe(
                sol, prof, report=rep))
            return sol, limit, refusal

        def check(out, ctx):
            sol, limit, refusal = out
            _require(isinstance(refusal, Refused)
                     and type(refusal.exc).__name__ == "EuclideanCritical",
                     "energy probe ran in the flat critical case")
            return [checks.check_euclidean_profile(sol.r, sol.u, 4, 2.0, 3.0, alpha),
                    checks.check_close("energy 32 pi^2/3", [limit],
                                       [checks.euclidean_critical_energy_n4()], 1e-4)]

        return Op("energy euclidean (4,2,3) R=100", run, check)

    def _flat_quotient(self):
        pl = self.pl
        eu = self.models["euclidean"]

        def run():
            out = []
            for b in SWEEP_BS:
                prof = pl.sobolev.AubinTalenti(3, 2.0, b=b)
                R = pl.sobolev.truncation_radius(eu, 3, 2.0, b)
                out.append((R, pl.sobolev.sobolev_quotient(
                    prof.u, prof.du, eu, 3, 2.0, R)["quotient"]))
            return out

        def check(out, ctx):
            vals = [v for _, v in out]
            spread = (max(vals) - min(vals)) / min(vals)
            _require(spread < 1e-6, f"flat quotient depends on b: {spread:.3e}")
            R, v = out[0]
            ref = checks.euclidean_quotient(3, 2.0, SWEEP_BS[0], R)
            checks.check_close("flat quotient", [v], [ref], 1e-4)
            ctx["flat_quotient"] = v
            return []

        return Op("sobolev euclidean b-invariance", run, check)

    def _sweep(self, descriptor, b):
        pl = self.pl
        model = self.models[descriptor]

        def run():
            return refusing(lambda: pl.sobolev.concentration_sweep(model, 3, 2.0, [b]))

        def check(out, ctx):
            if isinstance(out, Refused):
                return []
            row = out["rows"][0]
            checks.check_sweep_row(row, out["reference"]["quotient"])
            ctx.setdefault("gaps", {}).setdefault(descriptor, []).append(row["gap"])
            return []

        return Op(f"sweep {descriptor} b={b:g}", run, check)

    def finish_pass(self, ctx):
        for descriptor, gaps in ctx.get("gaps", {}).items():
            checks.check_gaps_shrink(gaps, descriptor)


class Oscillate4(Workload):
    """The 4-stage oscillating construction through the command line."""

    name = "oscillate-4"
    ARGV = ["oscillate", "--n", "3", "--p", "2", "--q", "5", "--alpha", "1",
            "--stages", "4"]

    def setup(self):
        pl = self.pl
        from plaplace import cli

        self.cli = cli
        warm_solver(pl, pl.models.make_model("euclidean"))
        cli.build_parser()

    def ops(self):
        root = os.path.join(self.work_dir, "oscillate")

        def run():
            return run_cli(self.cli, ["--out", root] + self.ARGV)

        def check(out, ctx):
            rc, stdout = out
            _require(rc == 0 and "verified=True" in stdout, f"oscillate: exit {rc}")
            (name,) = [d for d in os.listdir(root) if d.startswith("oscillate-")]
            run_dir = os.path.join(root, name)
            files = check_run_dir(run_dir)
            _require(sorted(files) == ["certificate.json", "solution.csv",
                                       "verification.json"], f"artifacts {sorted(files)}")
            cert = _load_json(files["certificate.json"])
            _require(_load_json(files["verification.json"])["passed"] is True,
                     "verification did not pass")
            errs = [checks.check_close("thresholds", [cert["t_low"], cert["t_high"]],
                                       [2 ** -0.5 * (2 / 3) ** 0.25,
                                        2 ** -0.5 * (5 / 6) ** 0.25], 1e-12)]
            stages = cert["stages"]
            _require([s["index"] for s in stages] == [0, 1, 2, 3], "stage log")
            low = min(s["Q"] for s in stages if s["index"] % 2 == 0)
            high = max(s["Q"] for s in stages if s["index"] % 2 == 1)
            _require(low == cert["band_min_even"] and high == cert["band_max_odd"],
                     "bands differ from the stage log")
            _require(low < cert["t_low"] < cert["t_high"] < high,
                     "bands do not bracket the thresholds")
            # the glued model is flat up to the stage-0 trigger radius r0
            r0 = stages[0]["r"]
            errs.append(checks.check_close(
                "stage-0 Q", [stages[0]["Q"]],
                [(r0 * r0 / 6.0) ** 0.25 * (1.0 + r0 * r0 / 3.0) ** -0.5], 1e-7))
            back = read_back(files["solution.csv"], r0)
            _require(back["header"] == ["r", "u", "du", "w"] and back["decreasing"],
                     "solution.csv does not read back as a decreasing profile")
            _require(len(back["r"]) >= 10, "too few knots below r0")
            errs.append(checks.check_euclidean_profile(
                back["r"], back["u"], 3, 2.0, 5.0, 1.0, tol=1e-7))
            return errs

        return [Op("oscillate 4 stages", run, check)]

    def cleanup(self):
        shutil.rmtree(os.path.join(self.work_dir, "oscillate"), ignore_errors=True)


def read_back(csv_path, r_max):
    """runio.read_csv of a large CSV in a process of its own.

    The parsed rows take more memory than the run that wrote them, so
    reading them here would set the worker's peak RSS.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run(
        [sys.executable, os.path.join(here, "readback.py"), csv_path, repr(r_max)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout)


class CliSession(Workload):
    """A fixed command-line session, run twice into two fresh output roots."""

    name = "cli-session"

    def setup(self):
        pl = self.pl
        from plaplace import cli

        self.cli = cli
        warm_solver(pl, pl.models.make_model("euclidean"))
        pl.sobolev.euclidean_reference(3, 2.0)
        cli.build_parser()

    def _session(self):
        a = self.scale
        ae = ROOT_2_2 * a
        sweep_alphas = [x * a for x in (0.5, 1.0, 1.5, 2.0)]
        problem = ["--n", "3", "--p", "2", "--q", "5", "--alpha", repr(a)]
        return [
            (["solve", "--model", "euclidean", "--n", "4", "--p", "2", "--q", "3",
              "--alpha", repr(ae), "--rmax", "40"],
             lambda f: self._check_euclidean(f, ae)),
            (["solve", "--model", "hyperbolic"] + problem,
             lambda f: self._check_solve(f, a)),
            (["solve", "--model", "exppower:c=1,m=3"] + problem,
             lambda f: self._check_solve(f, a)),
            (["classify", "--model", "hyperbolic", "--n", "3", "--p", "2"],
             lambda f: self._check_classify(f, "hyperbolic", {})),
            (["classify", "--model", "exppower:c=1,m=3", "--n", "3", "--p", "2"],
             lambda f: self._check_classify(f, "exppower", {"c": 1.0, "m": 3})),
            (["diagnose", "--model", "hyperbolic"] + problem
             + ["--checks", "ratio-sc,envelope,lemma-limits,energy-divergence"],
             lambda f: self._check_diagnose(f, a, decaying=True)),
            (["diagnose", "--model", "exppower:c=1,m=3"] + problem
             + ["--checks", "ratio-si,energy-divergence"],
             lambda f: self._check_diagnose(f, a, decaying=False)),
            (["quotient", "--model", "powerlike:k=2", "--n", "3", "--p", "2",
              "--b", "1,0.1,0.01"], self._check_quotient),
            (["sweep", "--model", "hyperbolic", "--n", "3", "--p", "2", "--alpha",
              ",".join(map(repr, sweep_alphas)), "--q", "5,7", "--rmax", "20"],
             lambda f: self._check_sweep(f, sweep_alphas)),
        ]

    def _root(self, label):
        return os.path.join(self.work_dir, "session", label)

    def ops(self):
        return [self._op(label, argv, judge) for label in ("A", "B")
                for argv, judge in self._session()]

    def _op(self, label, argv, judge):
        root = self._root(label)

        def run():
            return run_cli(self.cli, ["--out", root] + argv)

        def check(out, ctx):
            rc, stdout = out
            _require(rc == 0, f"{' '.join(argv)}: exit {rc}")
            return judge(check_run_dir(stdout.split()[0]))

        return Op(f"{label}: {' '.join(argv[:3])}", run, check)

    def _read(self, path):
        data = self.pl.runio.read_csv(path)
        _require(all(np.all(np.isfinite(v)) for v in data.values()),
                 f"{path}: non-finite values")
        return data

    def _solution(self, files, alpha):
        sol = self._read(files["solution.csv"])
        checks.check_decreasing(sol["u"], alpha, files["solution.csv"])
        return sol

    def _check_solve(self, files, alpha):
        self._solution(files, alpha)
        return []

    def _check_euclidean(self, files, alpha):
        sol = self._solution(files, alpha)
        return [checks.check_euclidean_profile(sol["r"], sol["u"], 4, 2.0, 3.0, alpha)]

    def _check_classify(self, files, kind, params):
        verdict = _load_json(files["verdict.json"])
        checks.check_verdict(verdict["verdict"], kind, params, 3, 2.0)
        geo = self._read(files["geometry.csv"])
        if kind == "hyperbolic":
            return [checks.check_hyperbolic_theta(geo["r"], geo["theta"])]
        return []

    def _check_diagnose(self, files, alpha, decaying):
        p, q = 2.0, 5.0
        sol = self._solution(files, alpha)
        traces = self._read(files["traces.csv"])
        _require(np.array_equal(traces["r"], sol["r"]), "traces and solution grids differ")
        F = ((p - 1.0) / p) * np.abs(sol["du"]) ** p + sol["u"] ** (q + 1.0) / (q + 1.0)
        checks.check_close("F from u, u'", F, traces["F"], 1e-12)
        _require(float(np.max(np.diff(F))) <= 1e-9 * float(F[0]), "F rises")
        checks.check_program_verdicts(_load_json(files["verdicts.json"])["verdicts"])
        report = _load_json(files["report.json"])
        if decaying:
            checks.check_q_limit(report["ratio-sc"]["limit"], p, q)
            _require(report["envelope"]["passed"], "decay envelope violated")
            _require(report["energy-divergence"]["positive_slope"],
                     "pSC gradient energy does not grow")
        else:
            si = report["ratio-si"]
            _require(si["lambda_hat"] > 0.0 and si["bound_slack"] > 0.0
                     and si["rel_deviation"] < 0.10, "plateau checks fail")
            _require(report["energy-divergence"]["unbounded"],
                     "pSI gradient energy does not grow")
        return []

    def _check_quotient(self, files):
        sweep = _load_json(files["sweep.json"])
        try:
            self.pl.runio.read_csv(files["quotients.csv"])
        except ValueError as exc:
            raise KnownFault(f"quotients.csv does not read back: {exc}") from exc
        ref = sweep["reference"]["quotient"]
        for row in sweep["rows"]:
            checks.check_sweep_row(row, ref)
        checks.check_gaps_shrink([row["gap"] for row in sweep["rows"]], "powerlike")
        return []

    def _check_sweep(self, files, alphas):
        runs = _load_json(files["runs.json"])
        _require(len(runs["runs"]) == 8 and len(set(runs["runs"])) == 8,
                 "sweep did not make 8 distinct runs")
        root = os.path.dirname(os.path.dirname(files["runs.json"]))
        for name, point in zip(runs["runs"], runs["points"]):
            _require(point["alpha"] in alphas, f"sweep point {point}")
            sub = check_run_dir(os.path.join(root, name))
            self._check_solve(sub, point["alpha"])
        return []

    def finish_pass(self, ctx):
        """Every run directory of root B holds the artifacts of root A, byte for byte."""
        root_a, root_b = self._root("A"), self._root("B")
        runs = sorted(d for d in os.listdir(root_a)
                      if os.path.isdir(os.path.join(root_a, d)))
        _require(runs == sorted(d for d in os.listdir(root_b)
                                if os.path.isdir(os.path.join(root_b, d))),
                 "the two roots hold different runs")
        for run in runs:
            fa = _run_dir_files(os.path.join(root_a, run))
            fb = _run_dir_files(os.path.join(root_b, run))
            _require(sorted(fa) == sorted(fb), f"{run}: artifact lists differ")
            for name in fa:
                _require(checks.sha256_of(fa[name]) == checks.sha256_of(fb[name]),
                         f"{run}/{name} differs between roots")

    def cleanup(self):
        shutil.rmtree(os.path.join(self.work_dir, "session"), ignore_errors=True)


WORKLOADS = {w.name: w for w in (AuditMatrix, Oscillate4, CliSession)}
