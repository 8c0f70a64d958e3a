"""The benchmark's tracer still finds every plaplace name it wraps."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_tracer_installs():
    """perfbench/spans.py wraps plaplace functions, methods and the
    solve_ivp of models, solver and oscillator by name; a rename in src
    that drops one of them fails here, not first in a traced benchmark run.
    Run in a subprocess, since install patches the imported package."""
    code = ("import plaplace, spans\n"
            "spans.install(spans.Tracer(), plaplace)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
