#!/usr/bin/env python3
"""Benchmark of the nitsche_contact package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, one child each

Run from the root of a checkout; the package is imported from ``src``.
With ``--trace 0`` the run measures end-to-end metrics: the median wall
and CPU time of one complete operation, the dof throughput, peak memory
and the set-up time of a fresh interpreter.  With ``--trace 1`` it
alternates untraced and traced operations and reports per-layer metrics
(see ``tracer.py``).  Every operation's outputs are checked; an operation
that raises or fails a check counts as failed and the run goes on.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it are a readable table, the environment record and any failures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
MIN_OPS = 3          # per timed phase, even if they overrun --seconds
MIN_TRACE_OPS = 4    # half of them traced


def import_package():
    """Import ``nitsche_contact`` from this checkout's ``src`` or exit."""
    sys.path.insert(0, str(SRC))
    try:
        import nitsche_contact
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import nitsche_contact from {SRC}: {exc}")
    if SRC.resolve() not in Path(nitsche_contact.__file__).resolve().parents:
        sys.exit(f"perfbench: nitsche_contact imported from {nitsche_contact.__file__},"
                 f" not from {SRC}")


def git_commit() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
    except OSError:
        return "unknown (not a git checkout, or a packed ref)"
    return head


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def measure_setup(workload: str, seed: int, repeats: int) -> list:
    """Wall time of fresh interpreters that import and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


class Run:
    """Operations of one workload, their times, outcomes and failures."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.times = []
        self.cpu_times = []
        self.outcomes = []
        self.failures = []
        self.attempted = 0

    def once(self, timed):
        """Attempt one operation; ``timed(fn)`` returns (result, seconds)."""
        self.attempted += 1
        gc.collect()
        try:
            cpu = time.process_time()
            result, seconds = timed(self.workload.operation(self.inputs))
            cpu = time.process_time() - cpu
            outcome = self.workload.outcome(self.inputs, result)
        except Exception:
            self.failures.append(f"operation {self.attempted} raised:\n"
                                 + traceback.format_exc())
            return
        del result
        if outcome.failures:
            self.failures.append(f"operation {self.attempted}: "
                                 + "; ".join(outcome.failures))
            return
        self.times.append(seconds)
        self.cpu_times.append(cpu)
        self.outcomes.append(outcome)

    def phase(self, timed, seconds, min_ops):
        """Attempt operations until the next one would pass ``seconds``."""
        start = time.perf_counter()
        begun = self.attempted
        while True:
            if self.attempted - begun >= min_ops:
                if not self.times:
                    break   # every attempt failed
                if time.perf_counter() - start + statistics.median(self.times) > seconds:
                    break
            self.once(timed)


def untimed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


class Alternating:
    """Alternate untraced and traced operations, so that the tracing
    overhead is measured under the same machine conditions."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.untraced = []

    def __call__(self, fn):
        if len(self.untraced) <= len(self.tracer.ops):
            result, seconds = untimed(fn)
            self.untraced.append(seconds)
            return result, seconds
        self.tracer.install()
        try:
            return self.tracer.run_op(fn)
        finally:
            self.tracer.uninstall()


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(name, workload, seed, seconds, trace, setup_repeats=SETUP_REPEATS,
                 wraps=None, out=print):
    """Measure one workload; returns the result object of the last line."""
    import tracer as tracing

    env = environment()
    setup = measure_setup(name, seed, setup_repeats) if not trace else []
    inputs = workload.inputs(seed)
    run = Run(workload, inputs)
    try:
        workload.warmup(inputs)
    except Exception:
        run.attempted += 1
        run.failures.append("warm-up raised:\n" + traceback.format_exc())

    if not trace:
        run.phase(untimed, seconds, MIN_OPS)
    else:
        alternate = Alternating(tracing.Tracer(tracing.WRAPS if wraps is None else wraps))
        run.phase(alternate, seconds, MIN_TRACE_OPS)
        tracer, untraced = alternate.tracer, alternate.untraced

    wall = statistics.median(run.times) if run.times else 0.0
    if trace:
        metrics = tracer.layer_metrics(statistics.median(untraced) if untraced else wall)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"{name}-seed{seed}.spans.jsonl"
        tracer.write(spans_file)
        counts = {"traced operations": len(tracer.ops), "untraced operations": len(untraced)}
    else:
        last = run.outcomes[-1] if run.outcomes else None
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": statistics.median(run.cpu_times) if run.cpu_times else 0.0,
                      "unit": "s"},
            "dofs_per_s": {"value": last.dofs / wall if wall else 0.0, "unit": "dof/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
        counts = {"setup_s": len(setup), "wall_s": len(run.times), "cpu_s": len(run.times),
                  "dofs_per_s": len(run.times), "peak_rss_mb": 1}

    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    out(f"# workload {name} seed {seed} trace {int(trace)} seconds {seconds}")
    out("# env " + json.dumps(env))
    out("# samples " + json.dumps(counts))
    series = {"untraced": untraced, "traced": tracer.op_times()} if trace else {"": run.times}
    for label, times in series.items():
        if times:
            out(f"# {label + ' ' if label else ''}wall_s per operation: median "
                f"{fmt(statistics.median(times))} min {fmt(min(times))}"
                f" max {fmt(max(times))} n {len(times)}")
    if not trace:
        last = run.outcomes[-1] if run.outcomes else None
        rows = [(key, m["value"], m["unit"]) for key, m in metrics.items()] + [
            ("iters_max_step", last.iters_max if last else "n/a", "count"),
            ("eta_plus_S_final", "n/a (studies only)" if last is None or last.eta_plus_S
             is None else last.eta_plus_S, "1"),
            ("failed_frac", failed / attempted, "ratio"),
            ("active_set_cycles", last.cycles if last else "n/a", "count"),
        ]
        for key, value, unit in rows:
            out(f"{key:>20} {fmt(value):>14} {unit}")
    else:
        for key, metric in metrics.items():
            out(f"{key:>34} {fmt(metric['value']):>14} {metric['unit']}")
        out(f"# spans written to {spans_file.relative_to(ROOT)}")
        if tracer.absent:
            out("# absent (layer not wrapped, reported as 0): " + ", ".join(tracer.absent))
        if tracer.uncounted:
            out("# counts skipped, returned object changed: "
                + ", ".join(sorted(tracer.uncounted)))
    for failure in run.failures:
        out("# FAILED " + failure.replace("\n", "\n# "))
    return {"correct": failed == 0 and bool(run.times), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Run every workload in its own child, so memory and set-up are its own."""
    import workloads

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"# FAILED workload {name} exited with code {proc.returncode}")
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, build the inputs and exit")
    args = parser.parse_args(argv)

    import_package()
    import workloads

    if args.workload is None:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workload.inputs(args.seed)
        return 0
    result = run_workload(args.workload, workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
