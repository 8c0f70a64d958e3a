"""Run one workload in this (fresh, single-threaded) interpreter.

Usage: python3 worker.py --workload NAME --seed N --seconds S --trace 0|1
       python3 worker.py --workload NAME --seed N --setup-only

The worker imports plaplace from the checkout's src/, sets the workload
up and prints READY, which is when set-up ends. It then runs whole passes
over the workload's operations until the next pass would end after
--seconds, checks every output, and prints one JSON line: the program time
of each pass (corrected for host speed, see hostspeed.py, and raw),
operations attempted and failed, whether every checked output was
correct, the worst oracle error and the peak RSS. With
--trace 1 it adds the per-layer metrics and writes the spans to
out/trace-<workload>-seed<N>.json.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


class Runner:
    """Runs passes over a workload's operations and tallies the outcome."""

    def __init__(self, workload, tracer, speed):
        self.workload = workload
        self.tracer = tracer
        self.speed = speed
        self.ops = workload.ops()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors = []

    def _note(self, kind, op_name, detail):
        print(f"[{self.workload.name}] {kind}: {op_name}: {detail}", file=sys.stderr)

    def one_pass(self, phase):
        """One pass; returns its program time, raw and corrected for host speed."""
        from checks import CheckFailed, KnownFault

        if self.tracer is not None:
            self.tracer.set_phase(phase)
        self.workload.cleanup()
        gc.collect()
        ctx = {}
        wall_sum = corrected_sum = 0.0
        for op in self.ops:
            if self.tracer is not None:
                self.tracer.op = op.name
            self.attempted += 1
            out, error, wall, corrected = self.speed.measure(op.run)
            wall_sum += wall
            corrected_sum += corrected
            if self.tracer is not None:
                self.tracer.op = None
            if error is not None:
                self.failed += 1
                self.correct = False
                self._note("unexpected failure", op.name,
                           "".join(traceback.format_exception(error)))
                continue
            try:
                self.errors.extend(op.check(out, ctx))
            except KnownFault as exc:
                self.failed += 1
                self._note("known fault", op.name, exc)
            except CheckFailed as exc:
                self.correct = False
                self._note("WRONG OUTPUT", op.name, exc)
            except Exception:
                self.correct = False
                self._note("check crashed", op.name, traceback.format_exc())
            del out
        try:
            self.workload.finish_pass(ctx)
        except CheckFailed as exc:
            self.correct = False
            self._note("WRONG OUTPUT", "pass", exc)
        self.workload.cleanup()
        return wall_sum, corrected_sum


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import plaplace

    if not os.path.abspath(plaplace.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"plaplace imported from {plaplace.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS

    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, plaplace, work_dir)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, plaplace)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import hostspeed

    speed = hostspeed.HostSpeed(interval=None if tracer else hostspeed.INTERVAL)
    runner = Runner(workload, tracer, speed)
    try:
        begin = time.perf_counter()
        program, corrected, walls = [], [], []
        while True:
            start = time.perf_counter()
            wall, fixed = runner.one_pass(f"pass{len(program)}")
            program.append(wall)
            corrected.append(fixed)
            walls.append(time.perf_counter() - start)
            if time.perf_counter() - begin + statistics.median(walls) > args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "pass_s": corrected,
        "pass_wall_s": program,
        "reference_s": statistics.median(speed.samples),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "correct": runner.correct,
        "max_rel_error": max(runner.errors) if runner.errors else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        phases = [f"pass{i}" for i in range(len(program))]
        metrics, repeat = spans.layer_metrics(tracer, phases)
        result["layers"] = metrics
        result["counts_repeat"] = repeat
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "pass_s": corrected, "pass_wall_s": program, "metrics": metrics, "counts_repeat": repeat,
                       "counters": tracer.counters, "spans": tracer.spans}, fh)
        result["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
