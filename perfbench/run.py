"""plaplace benchmark: one workload per call, end-to-end or traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload audit-matrix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload oscillate-4 --seed 1 --seconds 25 --trace 1

Workloads: audit-matrix, oscillate-4, cli-session (see README.md). The
workload runs in a fresh single-threaded interpreter (worker.py) that
imports plaplace from the checkout's src/. With --trace 0 this prints
pass_s, setup_s, peak_rss_mb and oracle_digits; set-up time is the median
over SETUP_SAMPLES more interpreters that only set up. Both times are
corrected for the speed of a shared host (hostspeed.py). With
--trace 1 it prints the per-layer metrics of one traced worker and leaves
its spans in perfbench/out/. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is
not 0, and no result is printed, when the benchmark cannot run.
"""

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("audit-matrix", "oscillate-4", "cli-session")
SETUP_SAMPLES = 5
BUDGET_S = 170.0
# relative errors below double rounding are reported at this floor
ERROR_FLOOR = 1e-16


def parse_args(argv):
    ap = argparse.ArgumentParser(description="plaplace benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def worker_env():
    env = dict(os.environ)
    env.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"})
    return env


def run_worker(args, timeout):
    """Run worker.py; returns (seconds from spawn to READY, stdout, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, env=worker_env())
    fd = proc.stdout.fileno()
    out = b""
    ready = None
    try:
        while True:
            left = start + timeout - time.perf_counter()
            if left <= 0:
                raise TimeoutError(f"worker {' '.join(args)} exceeded {timeout:.0f} s")
            readable, _, _ = select.select([fd], [], [], left)
            if not readable:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if ready is None and out.startswith(b"READY\n"):
                ready = time.perf_counter() - start
        proc.wait(timeout=max(1.0, start + timeout - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return ready, out.decode(), proc.returncode


def last_json(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def main(argv=None):
    args = parse_args(argv)
    began = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "plaplace", "__init__.py")):
        print(f"no plaplace sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    def remaining():
        return BUDGET_S - (time.perf_counter() - began)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup, setup_wall = [], []
    if not args.trace:
        import hostspeed

        hostspeed.reference()
        for _ in range(SETUP_SAMPLES):
            before = hostspeed.reference()
            ready, _, code = run_worker(common + ["--setup-only"], remaining())
            after = hostspeed.reference()
            if code != 0 or ready is None:
                print("set-up interpreter failed", file=sys.stderr)
                return 1
            setup_wall.append(ready)
            setup.append(ready * hostspeed.REFERENCE_S / (0.5 * (before + after)))
    ready, out, code = run_worker(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        remaining())
    res = last_json(out) if code == 0 else None
    if ready is None or res is None:
        print(f"worker failed with exit code {code}", file=sys.stderr)
        return 1

    if args.trace:
        from spans import UNITS

        metrics = {name: {"value": res["layers"][name], "unit": UNITS[name]}
                   for name in sorted(UNITS)}
        print(f"traced pass: {statistics.median(res['pass_s'])!r} s corrected, "
              f"{statistics.median(res['pass_wall_s'])!r} s wall, over "
              f"{len(res['pass_s'])} passes; counts repeat: {res['counts_repeat']}; "
              f"spans in {res['trace_file']}")
    else:
        if res["max_rel_error"] is None:
            print("no output was compared with an oracle", file=sys.stderr)
            return 1
        worst = max(res["max_rel_error"], ERROR_FLOOR)
        metrics = {
            "pass_s": {"value": statistics.median(res["pass_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "oracle_digits": {"value": -math.log10(worst), "unit": "digits"},
        }
        print(f"{len(res['pass_s'])} passes: wall {statistics.median(res['pass_wall_s'])!r} s, "
              f"reference {res['reference_s']!r} s; {len(setup)} set-up interpreters: "
              f"wall {statistics.median(setup_wall)!r} s")
    print(f"workload {args.workload} seed {args.seed}: attempted {res['attempted']}, "
          f"failed {res['failed']}, correct {res['correct']}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": bool(res["correct"]), "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
