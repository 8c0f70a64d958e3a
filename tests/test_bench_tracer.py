"""The benchmark's tracer still finds every plaplace name it wraps and reads
the stepper's counters."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_traced(code):
    """Run code in a fresh interpreter that sees src and perfbench."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_tracer_installs():
    """perfbench/spans.py wraps plaplace functions, methods and the
    solve_ivp of models, solver and oscillator by name; a rename in src
    that drops one of them fails here, not first in a traced benchmark run.
    Run in a subprocess, since install patches the imported package."""
    code = ("import plaplace, spans\n"
            "spans.install(spans.Tracer(), plaplace)\n")
    done = _run_traced(code)
    assert done.returncode == 0, done.stderr


def test_traced_stepper_counts_its_steps():
    """The stepper's per-layer counters come from the solver.solve_ivp span:
    one traced integrate (hyperbolic (3,2,5), R = 20, a single DOP853 run)
    records steps equal to the accepted steps of its dense output, and a
    positive nfev."""
    code = ("import json, plaplace as pl, spans\n"
            "tracer = spans.Tracer()\n"
            "spans.install(tracer, pl)\n"
            "sol = pl.solver.integrate(pl.Problem(3, 2.0, 5.0, 1.0),\n"
            "                          pl.make_model('hyperbolic'),\n"
            "                          pl.SolverConfig(20.0))\n"
            "ivp = [s for s in tracer.spans if s['name'] == 'solver.solve_ivp']\n"
            "print(json.dumps({'spans': [[s['steps'], s['nfev']] for s in ivp],\n"
            "                  'steps': len(sol._dense.h)}))\n")
    done = _run_traced(code)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert len(out["spans"]) == 1
    steps, nfev = out["spans"][0]
    assert steps == out["steps"] > 0
    assert nfev > 0
