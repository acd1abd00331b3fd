"""Layer spans recorded from outside the package.

Every function in ``nitsche_contact`` looks its collaborators up in its
own module's globals when it is called: ``adapt.run_study`` calls
``adapt.bisect_refine``, ``contact.solve`` calls ``contact.spsolve``.
Replacing those globals with timing wrappers therefore records a span at
each layer boundary without editing a program file.  A name that a later
refactor removes is reported as absent; the run goes on without it.

Spans (name, start, end, parent, thread) are kept in memory, one stack
per thread, and written out when the run ends.  A span's self time is
its duration minus the time of its direct children, so the self times of
all spans under one operation add up to that operation's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from collections import defaultdict

# (caller module, global name the caller looks up, span name).  A function
# reached from several modules is wrapped once per module under one span name.
WRAPS = (
    ("nitsche_contact.adapt", "run_study", "adapt.run_study"),
    ("nitsche_contact.adapt", "initial_meshes", "mesh.initial_meshes"),
    ("nitsche_contact.adapt", "make_problem", "adapt.make_problem"),
    ("nitsche_contact.adapt", "build_interface", "mesh.build_interface"),
    ("nitsche_contact.adapt", "bisect_refine", "mesh.bisect_refine"),
    ("nitsche_contact.adapt", "solve", "contact.solve"),
    ("nitsche_contact.adapt", "report", "estimator.report"),
    ("nitsche_contact.adapt", "mark_dorfler", "adapt.mark"),
    ("nitsche_contact.contact", "solve", "contact.solve"),
    ("nitsche_contact.contact", "build_interface_data", "contact.interface_data"),
    ("nitsche_contact.contact", "bulk_system", "fem.assemble_bulk"),
    ("nitsche_contact.contact", "assemble_nitsche", "contact.assemble_nitsche"),
    ("nitsche_contact.contact", "spsolve", "contact.linear_solve"),
    ("nitsche_contact.contact", "energy_norm", "contact.energy_norm"),
    ("nitsche_contact.estimator", "element_estimator", "estimator.element"),
    ("nitsche_contact.estimator", "interior_facet_estimator", "estimator.interior"),
    ("nitsche_contact.estimator", "neumann_facet_estimator", "estimator.neumann"),
    ("nitsche_contact.estimator", "contact_facet_estimator", "estimator.contact"),
    ("nitsche_contact.estimator", "oscillation", "estimator.osc"),
    ("nitsche_contact.oracle", "solve_mixed", "oracle.solve_mixed"),
    ("nitsche_contact.oracle", "build_mixed_system", "oracle.build_mixed_system"),
    ("nitsche_contact.oracle", "build_interface_data", "contact.interface_data"),
    ("nitsche_contact.oracle", "bulk_system", "fem.assemble_bulk"),
    ("nitsche_contact.oracle", "check_vi_residual", "oracle.check_vi"),
)

ROOT = "bench.op"

# Per-layer metrics: (name, unit, better).  A ``.s`` metric of a span with
# wrapped children is its inclusive time and ``.self_s`` its self time; a
# ``.s`` metric of a leaf span is both.  Times and counts are per operation.
LAYER_METRICS = (
    ("mesh.initial_meshes.s", "s", "lower"),
    ("mesh.bisect_refine.s", "s", "lower"),
    ("mesh.bisect_refine.calls", "count", "lower"),
    ("mesh.triangles_created", "count", "lower"),
    ("mesh.closure_ratio", "ratio", "lower"),
    ("mesh.build_interface.s", "s", "lower"),
    ("mesh.segments", "count", "lower"),
    ("fem.assemble_bulk.s", "s", "lower"),
    ("fem.assemble_bulk.calls", "count", "lower"),
    ("fem.nnz", "count", "lower"),
    ("contact.solve.s", "s", "lower"),
    ("contact.solve.self_s", "s", "lower"),
    ("contact.solves", "count", "lower"),
    ("contact.interface_data.s", "s", "lower"),
    ("contact.samples", "count", "lower"),
    ("contact.assemble_nitsche.s", "s", "lower"),
    ("contact.assemble_nitsche.calls", "count", "lower"),
    ("contact.linear_solve.s", "s", "lower"),
    ("contact.factorizations", "count", "lower"),
    ("contact.iterations", "count", "lower"),
    ("contact.iters_max_step", "count", "lower"),
    ("contact.useful_ratio", "ratio", "higher"),
    ("contact.active_samples", "count", "lower"),
    ("contact.solve.raised", "count", "lower"),
    ("contact.energy_norm.self_s", "s", "lower"),
    ("estimator.report.s", "s", "lower"),
    ("estimator.report.self_s", "s", "lower"),
    ("estimator.element.s", "s", "lower"),
    ("estimator.interior.s", "s", "lower"),
    ("estimator.neumann.s", "s", "lower"),
    ("estimator.contact.s", "s", "lower"),
    ("estimator.osc.s", "s", "lower"),
    ("estimator.eta_plus_S_final", "1", "lower"),
    ("adapt.run_study.self_s", "s", "lower"),
    ("adapt.make_problem.s", "s", "lower"),
    ("adapt.make_problem.self_s", "s", "lower"),
    ("adapt.mark.s", "s", "lower"),
    ("adapt.marked", "count", "lower"),
    ("adapt.steps", "count", "lower"),
    ("oracle.solve_mixed.s", "s", "lower"),
    ("oracle.solve_mixed.self_s", "s", "lower"),
    ("oracle.build_mixed_system.s", "s", "lower"),
    ("oracle.build_mixed_system.self_s", "s", "lower"),
    ("oracle.check_vi.s", "s", "lower"),
    ("oracle.pattern_solves", "count", "lower"),
    ("oracle.pdas_iterations", "count", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.absent", "count", "lower"),
)


class Tracer:
    """Installs the wrappers, records spans and counts per operation."""

    def __init__(self, wraps=WRAPS):
        self.wraps = wraps
        self.spans = []          # [name, start, end, parent, thread, child_time]
        self.absent = []
        self.uncounted = set()   # spans whose returned object no longer fits
        self.ops = []            # (root span index, counts of that operation)
        self.recording = False
        self._counts = None
        self._saved = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for modname, attr, span in self.wraps:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer._counts[name + ".raised"] += 1
                raise
            finally:
                tracer._close(idx)
            try:
                tracer._count(name, idx, args, result)
            except (AttributeError, TypeError, IndexError):
                tracer.uncounted.add(name)
            return result

        return wrapper

    # -- spans ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, threading.get_ident(), 0.0])
        stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack().pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]

    def _under(self, idx, name) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def run_op(self, fn):
        """Run one operation under a root span; returns (result, seconds)."""
        self._counts = defaultdict(float)
        self.recording = True
        idx = self._open(ROOT)
        try:
            result = fn()
        finally:
            self._close(idx)
            self.recording = False
        self.ops.append((idx, self._counts))
        span = self.spans[idx]
        return result, span[2] - span[1]

    # -- counts from returned objects ---------------------------------------

    def _count(self, name, idx, args, result) -> None:
        c = self._counts
        if name == "mesh.bisect_refine":
            c["mesh.bisect_refine.calls"] += 1
            c["mesh.triangles_created"] += result.num_triangles - args[0].num_triangles
            c["mesh.marked"] += len(args[1])
        elif name == "mesh.build_interface":
            c["mesh.segments"] += len(result)
        elif name == "fem.assemble_bulk":
            c["fem.assemble_bulk.calls"] += 1
            if self._under(idx, "contact.solve"):
                c["fem.nnz"] += result[0].nnz
        elif name == "contact.interface_data":
            c["contact.samples"] += result.num_samples
        elif name == "contact.assemble_nitsche":
            c["contact.assemble_nitsche.calls"] += 1
        elif name == "contact.linear_solve":
            if self._under(idx, "contact.solve"):
                c["contact.factorizations"] += 1
            elif self._under(idx, "oracle.solve_mixed"):
                c["oracle.pattern_solves"] += 1
        elif name == "contact.solve":
            c["contact.solves"] += 1
            c["contact.iterations"] += result.iterations
            c["contact.active_samples"] += int(result.active.sum())
            c["contact.iters_max_step"] = max(c["contact.iters_max_step"], result.iterations)
        elif name == "adapt.mark":
            c["adapt.marked"] += len(result)
        elif name == "adapt.run_study":
            c["adapt.steps"] += len(result.records)
            c["estimator.eta_plus_S_final"] = result.records[-1].eta_plus_S
        elif name == "oracle.solve_mixed":
            c["oracle.pdas_iterations"] += result.iterations

    # -- results ----------------------------------------------------------

    def op_times(self):
        return [self.spans[idx][2] - self.spans[idx][1] for idx, _ in self.ops]

    def layer_metrics(self, untraced_median: float) -> dict:
        """Per-operation means of the span times and the counts."""
        n = len(self.ops)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        first = self.ops[0][0] if self.ops else len(self.spans)
        for i in range(first, len(self.spans)):
            name, start, end, _, _, child = self.spans[i]
            self_s[name] += end - start - child
            if not self._under(i, name):
                incl_s[name] += end - start
        counts = defaultdict(float)
        for _, c in self.ops:
            for key, value in c.items():
                counts[key] += value
        iters_max = max((c["contact.iters_max_step"] for _, c in self.ops), default=0)

        def per_op(total):
            return total / n if n else 0.0

        marked = counts.pop("mesh.marked", 0.0)
        factorizations = counts["contact.factorizations"]
        values = {key: per_op(v) for key, v in counts.items()}
        values["contact.iters_max_step"] = iters_max
        values["mesh.closure_ratio"] = counts["mesh.triangles_created"] / marked if marked else 0.0
        values["contact.useful_ratio"] = (
            counts["contact.solves"] / factorizations if factorizations else 0.0
        )
        values["estimator.eta_plus_S_final"] = (
            self.ops[-1][1]["estimator.eta_plus_S_final"] if self.ops else 0.0
        )
        for name, unit, _ in LAYER_METRICS:
            if unit != "s" or name.startswith(("trace.", "bench.")):
                continue
            span, kind = name.rsplit(".", 1)
            values[name] = per_op((self_s if kind == "self_s" else incl_s)[span])
        values["bench.self_s"] = per_op(self_s[ROOT])
        values["trace.wall_s"] = per_op(incl_s[ROOT])
        values["trace.overhead_s"] = (
            statistics.median(self.op_times()) - untraced_median if n else 0.0
        )
        values["trace.spans"] = per_op(len(self.spans) - first)
        values["trace.absent"] = len(self.absent)
        out = {}
        for name, unit, _ in LAYER_METRICS:
            value = values.get(name, 0)
            if unit == "count" and float(value).is_integer():
                value = int(value)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, thread, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread}) + "\n")

