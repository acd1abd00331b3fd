#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its
unit in both modes, that a deliberately wrong reference value makes the
run report a failed operation, how a battery instance on which the
active-set iteration cycles is judged, that a wrapped name the package
does not have is reported as absent without stopping the run, and that
the traced self times add up to the traced wall time.  Exits non-zero on
failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run

run.import_package()

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.2   # every phase still runs its minimum number of operations


def tiny_study(name, ref=None):
    """The workload's study at a small budget, referenced to its own output."""
    full = workloads.WORKLOADS[name]
    budget = {"uniform-p1-pressing": 2500, "adaptive-p2-bending": 1200}[name]
    resolutions = full.pairs[0][0]
    study = workloads.Study(full.experiment, full.degree, full.mode, budget,
                            (full.slope_target, 1.0), ((resolutions, None),),
                            warmup_dofs=budget // 2)
    if ref is None:
        out = study.operation(study.inputs(0))()
        ref = workloads.Reference(out.final_ndofs, len(out.records),
                                  out.records[-1].eta_plus_S)
    study.pairs = ((resolutions, ref),)
    return study, ref


def measure(name, workload, trace, wraps=None):
    lines = []
    result = run.run_workload(name, workload, 0, SECONDS, trace, setup_repeats=1,
                              wraps=wraps, out=lines.append)
    return result, lines


def expect(ok, message, failures):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def check_names(result, lines, spec, label, failures):
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, f"{label}: metric names and units match BENCHMARK.json", failures)
    missing = [f"{k} {u}" for k, u in want.items()
               if not any(k in line and line.rstrip().endswith(" " + u) for line in lines)]
    expect(not missing, f"{label}: every metric printed with its unit {missing or ''}",
           failures)
    expect(result["correct"] and result["failed"] == 0,
           f"{label}: correct with no failed operation", failures)
    json.dumps(result)   # the last line must serialise


def self_time_metrics(names):
    """Every span's self time once: ``X.self_s`` where it exists, else ``X.s``."""
    return [n for n in names if n.endswith(".self_s")] + [
        n for n in names if n.endswith(".s") and not n.startswith("trace.")
        and n[:-2] + ".self_s" not in names]


def main() -> int:
    failures = []
    expect([(n, u, b) for n, u, b in tracer.LAYER_METRICS]
           == [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]],
           "tracer.LAYER_METRICS matches BENCHMARK.json per_layer", failures)
    expect([w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS),
           "workload names match BENCHMARK.json", failures)

    cases = {name: tiny_study(name)[0] for name in ("uniform-p1-pressing",
                                                     "adaptive-p2-bending")}
    cases["oracle-battery"] = workloads.OracleBattery(limit=6)
    for name, workload in cases.items():
        result, lines = measure(name, workload, trace=False)
        check_names(result, lines, SPEC["end_to_end"], f"{name} untraced", failures)
        result, lines = measure(name, workload, trace=True)
        check_names(result, lines, SPEC["per_layer"], f"{name} traced", failures)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        expect(abs(sum(m[k] for k in self_time_metrics(m)) - m["trace.wall_s"])
               <= 1e-9 * m["trace.wall_s"],
               f"{name}: per-layer self times add up to trace.wall_s", failures)
        expect(m["trace.absent"] == 0, f"{name}: no wrapped name absent", failures)
        if name != "oracle-battery":
            expect(m["contact.factorizations"] == m["contact.iterations"] > 0
                   and m["adapt.steps"] == m["contact.solves"],
                   f"{name}: one factorisation per iteration, one solve per step",
                   failures)

    name = "adaptive-p2-bending"
    _, ref = tiny_study(name)
    wrong, _ = tiny_study(name, dataclasses.replace(ref, ndofs=ref.ndofs + 1))
    result, lines = measure(name, wrong, trace=False)
    expect(result["failed"] > 0 and not result["correct"]
           and any("!= reference" in line for line in lines),
           "a wrong reference N makes failed_frac > 0", failures)
    wrong, _ = tiny_study(name, dataclasses.replace(ref, eta_plus_S=ref.eta_plus_S * 1.001))
    result, _ = measure(name, wrong, trace=False)
    expect(result["failed"] > 0, "a wrong reference eta+S makes failed_frac > 0", failures)

    battery = workloads.OracleBattery(limit=1)
    inputs = battery.inputs(0)
    problem = battery.operation(inputs)()[0].problem
    both = battery.outcome(inputs, [workloads.Row(problem, nitsche_cycled=True,
                                                  mixed_cycled=True)])
    one = battery.outcome(inputs, [workloads.Row(problem, nitsche_cycled=True)])
    expect(both.cycles == 1 and not both.failures and one.failures,
           "both solvers cycling is counted; only one cycling is a failure", failures)

    missing = tracer.WRAPS + (("nitsche_contact.adapt", "no_such_name", "adapt.gone"),
                              ("nitsche_contact.no_such_module", "solve", "gone.solve"))
    study, _ = tiny_study(name)
    result, lines = measure(name, study, trace=True, wraps=missing)
    expect(result["correct"] and result["metrics"]["trace.absent"]["value"] == 2
           and any(line.startswith("# absent") and "no_such_name" in line for line in lines),
           "missing wrapped names are reported as absent and the run completes", failures)

    print(f"{len(failures)} self-test failure(s)" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
