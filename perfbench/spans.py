"""Spans and counters around the calls into each plaplace module.

`install` replaces public functions of the plaplace modules, and the
`solve_ivp` name that models, solver and oscillator each call, with thin
wrappers that open a span per call. Spans live in memory and are written
out when the run ends. `layer_metrics` turns them into the per-layer
figures of BENCHMARK.json: a layer's time is the time inside its spans that
is not already inside an enclosing span of the same layer, and a self time
is a span's duration minus that of its direct child spans.

Tracing is only ever installed in a traced run; end-to-end figures come
from runs without it.
"""

import functools
import os
import signal
import statistics
import time
import warnings
from collections import defaultdict

import numpy as np

DIAGNOSTIC_CHECKS = (
    "diagnostics.asymptotic_ratio_sc", "diagnostics.asymptotic_ratio_si",
    "diagnostics.decay_envelope_check", "diagnostics.energy_divergence_probe",
    "diagnostics.lemma_limit_checks", "models.classify_completeness",
)
WRITERS = (
    "solver.RadialSolution.export_csv", "solver.RadialSolution.export_json_sidecar",
    "diagnostics.DiagnosticsReport.export_csv", "diagnostics.DiagnosticsReport.export_json",
    "models.GeometryProfile.export_csv", "oscillator.OscillationCertificate.to_json",
    "sobolev.export_sweep_csv", "cli._write_json", "runio.RunManifest.write",
    "runio.write_csv",
)
CLI_COMMANDS = ("solve", "classify", "diagnose", "quotient", "sweep", "oscillate")

# metric -> span names whose outermost durations it sums
SPAN_TIMES = {
    "models.audit_s": ("models.make_model",),
    "models.geometry_s": ("models.geometry_profile",),
    "models.extend_s": ("models.Glued.extended",),
    "solver.startup_s": ("solver.series_startup",),
    "solver.stepper_s": ("solver.solve_ivp",),
    "solver.flux_residual_s": ("solver.flux_residual",),
    "diagnostics.traces_s": ("diagnostics.functional_traces",),
    "diagnostics.checks_s": DIAGNOSTIC_CHECKS,
    "sobolev.sweep_s": ("sobolev.concentration_sweep", "sobolev.sobolev_quotient"),
    "oscillator.verify_s": ("oscillator.verify_certificate",),
    "runio.export_s": WRITERS,
    "runio.hash_s": ("runio.file_sha256",),
}
SPAN_TIMES.update({f"cli.{c}_s": (f"cli.{c}",) for c in CLI_COMMANDS})

COUNTS = ("models.scalar_evals", "models.geometry_nfev", "solver.nfev",
          "solver.steps", "solver.knots", "solver.warnings",
          "oscillator.stage_nfev", "runio.bytes_written")

UNITS = {name: "s" for name in SPAN_TIMES}
UNITS.update({name: "count" for name in COUNTS})
UNITS.update({
    "solver.refine_s": "s", "oscillator.stage_loop_s": "s",
    "oscillator.final_solve_s": "s", "solver.alloc_peak_mb": "MB",
    "runio.bytes_written": "B",
})


class Tracer:
    """In-memory spans and per-phase counters for one worker process.

    A phase is "setup" or "pass<k>". Each span records its id, name,
    start, end, parent span, operation id and phase, plus attributes such
    as nfev.
    """

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.phase = None
        self.op = None
        self._stack = []
        self._next_id = 0
        self.set_phase("setup")

    def set_phase(self, phase):
        self.phase = phase
        self._counts = self.counters.setdefault(phase, defaultdict(int))

    def count(self, name, amount=1):
        self._counts[name] += amount

    def open(self, name):
        rec = {"id": self._next_id, "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "op": self.op, "phase": self.phase,
               "start": time.perf_counter(), "end": None}
        self._next_id += 1
        self._stack.append(rec)
        return rec

    def close(self, rec):
        rec["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(rec)

    def call(self, name, fn, *args, **kwargs):
        rec = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(rec)


def _wrap(tracer, owner, attr, name, after=None):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        rec = tracer.open(name)
        try:
            result = original(*args, **kwargs)
            if after is not None:
                after(rec, result)
            return result
        finally:
            tracer.close(rec)

    setattr(owner, attr, traced)


def _record_ivp(rec, sol):
    rec["nfev"] = int(sol.nfev)
    rec["steps"] = len(sol.t) - 1


def _rss_bytes():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE


_PAGE = os.sysconf("SC_PAGE_SIZE")


class RssPeak:
    """Growth of resident memory over a call, sampled every 2 ms by SIGALRM.

    tracemalloc would give an exact allocation peak but slows integrate
    5.5-fold, which puts the traced oscillate-4 run past its time limit.
    """

    def __enter__(self):
        self.base = self.peak = _rss_bytes()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, 0.002, 0.002)
        return self

    def _sample(self, signum, frame):
        self.peak = max(self.peak, _rss_bytes())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.peak = max(self.peak, _rss_bytes())
        return False

    @property
    def growth_mb(self):
        return (self.peak - self.base) / 2**20


def _wrap_integrate(tracer, solver):
    original = solver.integrate

    @functools.wraps(original)
    def traced(*args, **kwargs):
        rec = tracer.open("solver.integrate")
        try:
            with warnings.catch_warnings(record=True) as caught, RssPeak() as rss:
                warnings.simplefilter("always")
                result = original(*args, **kwargs)
            rec["alloc_peak_mb"] = rss.growth_mb
            rec["warnings"] = sum(issubclass(w.category, RuntimeWarning)
                                  for w in caught)
            rec["knots"] = len(result.r)
            return result
        finally:
            tracer.close(rec)

    solver.integrate = traced


def _count_scalar_calls(tracer, cls, attr):
    original = cls.__dict__[attr]

    @functools.wraps(original)
    def counted(self, r):
        if not isinstance(r, np.ndarray) or r.ndim == 0:
            tracer.count("models.scalar_evals")
        return original(self, r)

    setattr(cls, attr, counted)


def install(tracer, pl):
    """Wrap the plaplace entry points of every layer; `pl` is the package."""
    from plaplace import cli

    models, solver, diagnostics = pl.models, pl.solver, pl.diagnostics
    sobolev, oscillator, runio = pl.sobolev, pl.oscillator, pl.runio

    for module in (models, solver, oscillator):
        _wrap(tracer, module, "solve_ivp", f"{module.__name__.split('.')[-1]}.solve_ivp",
              after=_record_ivp)
    for cls in (models.ModelFunction, models.Euclidean, models.Hyperbolic,
                models.ExpPower, models.PowerLike, models.ExpGamma, models.Glued):
        for attr in ("log_psi", "slope_ratio", "curvature_ratio"):
            if attr in cls.__dict__:
                _count_scalar_calls(tracer, cls, attr)

    _wrap_integrate(tracer, solver)
    plain = [
        (models, "make_model"), (models, "geometry_profile"),
        (models, "classify_completeness"), (models.Glued, "extended"),
        (solver, "series_startup"), (solver, "flux_residual"),
        (diagnostics, "functional_traces"), (diagnostics, "asymptotic_ratio_sc"),
        (diagnostics, "asymptotic_ratio_si"), (diagnostics, "decay_envelope_check"),
        (diagnostics, "energy_divergence_probe"), (diagnostics, "lemma_limit_checks"),
        (sobolev, "concentration_sweep"), (sobolev, "sobolev_quotient"),
        (sobolev, "export_sweep_csv"), (oscillator, "construct"),
        (oscillator, "verify_certificate"), (runio, "file_sha256"),
        (runio, "write_csv"), (runio.RunManifest, "write"), (cli, "_write_json"),
        (solver.RadialSolution, "export_csv"),
        (solver.RadialSolution, "export_json_sidecar"),
        (diagnostics.DiagnosticsReport, "export_csv"),
        (diagnostics.DiagnosticsReport, "export_json"),
        (models.GeometryProfile, "export_csv"),
        (oscillator.OscillationCertificate, "to_json"),
    ]
    for owner, attr in plain:
        prefix = owner.__name__.split(".")[-1] if hasattr(owner, "__file__") \
            else f"{owner.__module__.split('.')[-1]}.{owner.__name__}"
        _wrap(tracer, owner, attr, f"{prefix}.{attr}")

    main = cli.main

    @functools.wraps(main)
    def traced_main(argv=None):
        command = next((a for a in argv or () if a in CLI_COMMANDS), "other")
        return tracer.call(f"cli.{command}", main, argv)

    cli.main = traced_main

    record = runio.RunDir.record

    @functools.wraps(record)
    def counted_record(self, path):
        tracer.count("runio.bytes_written", os.path.getsize(path))
        return record(self, path)

    runio.RunDir.record = counted_record


def _phase_figures(spans, counts):
    """Per-layer figures of one phase from its spans and counters."""
    by_id = {s["id"]: s for s in spans}

    def ancestors(span):
        parent = span["parent"]
        while parent is not None and parent in by_id:
            yield by_id[parent]
            parent = by_id[parent]["parent"]

    def duration(span):
        return span["end"] - span["start"]

    children = defaultdict(list)
    for s in spans:
        if s["parent"] in by_id:
            children[s["parent"]].append(s)

    out = {}
    for metric, names in SPAN_TIMES.items():
        out[metric] = sum((duration(s) for s in spans if s["name"] in names
                           and not any(a["name"] in names for a in ancestors(s))), 0.0)

    integrates = [s for s in spans if s["name"] == "solver.integrate"]
    out["solver.refine_s"] = sum(
        (duration(s) - sum(duration(c) for c in children[s["id"]]) for s in integrates), 0.0)
    constructs = [s for s in spans if s["name"] == "oscillator.construct"]
    nested = [c for s in constructs for c in children[s["id"]]
              if c["name"] == "solver.integrate"]
    out["oscillator.final_solve_s"] = sum((duration(c) for c in nested), 0.0)
    out["oscillator.stage_loop_s"] = (sum(duration(s) for s in constructs)
                                      - out["oscillator.final_solve_s"])

    def nfev(name, parent=None):
        return sum(s["nfev"] for s in spans if s["name"] == name and (
            parent is None or by_id.get(s["parent"], {}).get("name") == parent))

    out["models.geometry_nfev"] = nfev("models.solve_ivp", "models.geometry_profile")
    out["solver.nfev"] = nfev("solver.solve_ivp")
    out["oscillator.stage_nfev"] = nfev("oscillator.solve_ivp")
    out["solver.steps"] = sum(s["steps"] for s in spans if s["name"] == "solver.solve_ivp")
    out["solver.knots"] = sum(s["knots"] for s in integrates)
    out["solver.warnings"] = sum(s["warnings"] for s in integrates)
    out["models.scalar_evals"] = counts.get("models.scalar_evals", 0)
    out["runio.bytes_written"] = counts.get("runio.bytes_written", 0)
    out["solver.alloc_peak_mb"] = max(
        (s.get("alloc_peak_mb", 0.0) for s in integrates), default=0.0)
    return out


def layer_metrics(tracer, timed_phases):
    """Per-layer metrics of one run.

    Times: set-up share plus the median over the timed passes. Counts:
    set-up share plus the first timed pass (they repeat exactly from pass
    to pass; `repeat` says whether they did). Memory growth: the largest
    of any pass. Returns (metrics, repeat).
    """
    by_phase = defaultdict(list)
    for s in tracer.spans:
        by_phase[s["phase"]].append(s)
    figures = {ph: _phase_figures(by_phase[ph], tracer.counters.get(ph, {}))
               for ph in ["setup"] + list(timed_phases)}
    setup = figures["setup"]
    timed = [figures[ph] for ph in timed_phases]
    metrics = {}
    for name, unit in UNITS.items():
        if name == "solver.alloc_peak_mb":
            metrics[name] = max(f[name] for f in timed)
        elif unit == "s":
            metrics[name] = setup[name] + statistics.median(f[name] for f in timed)
        else:
            metrics[name] = setup[name] + timed[0][name]
    counted = [n for n, u in UNITS.items() if u in ("count", "B")]
    repeat = all(f[n] == timed[0][n] for f in timed for n in counted)
    return metrics, repeat
