"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry point of every measured layer of
``repro`` for the duration of one traced operation and records an
in-memory span per call: name, start and end (``perf_counter_ns``), the
index of the enclosing span and the id of the operation.  Nothing inside
``src/`` is changed; the wrappers are installed before the operation and
the originals restored after it, so untraced operations in the same
process run the unmodified program.

A span's *self time* is its duration minus the time its direct children
cover (children of one span never overlap: the coordinator is single
threaded), so the self times of one operation sum to the duration of its
root span.  :func:`layer_metrics` turns the recorded spans, the solver
counters captured from every ``BisectionStepper`` the operation built and
the per-operation counters of the workload into the per-layer metrics of
:data:`PER_LAYER`, each averaged per traced operation.

Worker processes of the ``shm`` backend inherit the wrappers but their
spans stay in the worker, so pooled waves are measured as coordinator
spans only (see ``executor.dispatch_ms`` in :func:`layer_metrics`).
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

#: The kernels whose call and nanosecond counters are reported.
KERNELS = ("spmv", "free_gradient", "fused_update", "axpy", "mix_noise",
           "gather", "scatter", "step_norm", "fixing_mask", "snap")

#: Wave slots reported one by one (k = 64 has six recursion levels).
MAX_WAVES = 6

#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER = (
    [("graphs.subgraphs.self_ms", "ms"), ("graphs.subgraphs.calls", "count"),
     ("graphs.subgraphs.edges", "count"),
     ("dynamic.apply.self_ms", "ms"), ("dynamic.snapshot.self_ms", "ms"),
     ("dynamic.metrics_apply.self_ms", "ms"), ("dynamic.metrics_move.self_ms", "ms"),
     ("dynamic.expand_hops.self_ms", "ms"),
     ("dynamic.freed_frac", "ratio"), ("dynamic.work_ratio", "ratio"),
     ("dynamic.mode.repair", "ratio"), ("dynamic.mode.recompute", "ratio"),
     ("dynamic.mode.escalated", "ratio"), ("dynamic.mode.noop", "ratio"),
     ("gd.setup.self_ms", "ms"), ("gd.tasks", "count"),
     ("gd.step.self_ms", "ms"), ("gd.iterations", "count")]
    + [(f"kernels.{name}.{field}", unit) for name in KERNELS
       for field, unit in (("ns", "ns"), ("calls", "count"))]
    + [("kernels.spmv.ops", "count"), ("kernels.spmv.bytes_computed", "B"),
       ("projection.self_ms", "ms"), ("projection.calls", "count"),
       ("projection.region_rebuilds", "count"), ("projection.warm_attempts", "count"),
       ("projection.warm_accept_ratio", "ratio"),
       ("compaction.build.self_ms", "ms"), ("compaction.fix.self_ms", "ms"),
       ("rounding.finalize.self_ms", "ms"), ("rounding.balance_repair.self_ms", "ms"),
       ("executor.solve_frontier.ms", "ms")]
    + [(f"executor.wave{index}.ms", "ms") for index in range(MAX_WAVES)]
    + [("executor.first_wave_ms", "ms"), ("executor.dispatch_ms", "ms"),
       ("executor.retries", "count"), ("executor.timeouts", "count"),
       ("executor.pool_rebuilds", "count"),
       ("recursive.coordinator_ms", "ms"), ("recursive.waves", "count"),
       ("recursive.tasks", "count"), ("op.self_ms", "ms"),
       ("shm.serial_fraction", "ratio"), ("shm.amdahl_bound_w2", "ratio"),
       ("shm.bytes_shared", "B"), ("shm.payload_bytes_per_task", "B"),
       ("trace.solve_s", "s"), ("trace.untraced_solve_s", "s"),
       ("trace.overhead_pct", "%"), ("trace.self_sum_frac", "ratio"),
       ("trace.spans_per_op", "count"), ("trace.ops", "count")]
)

# Span fields: [name, start_ns, end_ns, parent index, op id, work count].
_NAME, _START, _END, _PARENT, _OP, _WORK = range(6)


class Tracer:
    """Records spans and solver counters for traced operations."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Per traced operation: root span index and the solver counters
        #: (kernel stats, projection stats, spmv [ops, bytes]).
        self.ops: list[dict] = []
        self._stack: list[int] = []
        self._patches = _entry_points(self)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           len(self.ops) - 1, None])
        return index

    def close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Trace everything the enclosed block calls as one operation."""
        self.ops.append({"root": len(self.spans), "steppers": [], "spmv": [0, 0]})
        originals = [(owner, attribute, owner.__dict__[attribute])
                     for owner, attribute, _ in self._patches]
        for owner, attribute, wrapper in self._patches:
            setattr(owner, attribute, wrapper)
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)
            for owner, attribute, original in originals:
                setattr(owner, attribute, original)

    def chrome_trace(self) -> str:
        """The spans as Chrome trace-event JSON (opens in Perfetto)."""
        events = [{"name": span[_NAME], "ph": "X", "pid": 0, "tid": span[_OP],
                   "ts": span[_START] / 1e3, "dur": (span[_END] - span[_START]) / 1e3,
                   "args": {"op": span[_OP], "parent": span[_PARENT],
                            "work": span[_WORK]}}
                  for span in self.spans]
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


def _span(tracer: Tracer, name: str, function, after=None):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            tracer.spans[index][_WORK] = after(args, result)
        return result
    return traced


def _entry_points(tracer: Tracer) -> list[tuple[object, str, object]]:
    """``(owner, attribute, wrapper)`` for every layer entry point.

    Module-level functions are patched in the namespace of the module
    that calls them, because ``from x import f`` binds the name there.
    """
    from repro.core import gd, recursive
    from repro.core.compaction import FreeVertexSystem
    from repro.core.executor import BisectionExecutor
    from repro.core.kernels import NumpyBackend
    from repro.core.projection import ProjectionEngine
    from repro.dynamic import repartition
    from repro.dynamic.graph import DynamicGraph
    from repro.dynamic.metrics import IncrementalMetrics
    from repro.graphs.graph import Graph

    def register_stepper(args, _result):
        stepper = args[0]
        tracer.ops[-1]["steppers"].append((stepper.backend.stats, stepper.engine.stats))

    points = [
        (Graph, "subgraphs", "graphs.subgraphs",
         lambda args, result: sum(graph.num_edges for graph, _ in result)),
        (recursive, "gd_bisect", "gd.bisect", None),
        (gd.BisectionStepper, "__init__", "gd.setup", register_stepper),
        (gd.BisectionStepper, "step", "gd.step", None),
        (gd, "finalize_bisection", "rounding.finalize", None),
        (repartition, "finalize_bisection", "rounding.finalize", None),
        (gd, "balance_repair", "rounding.balance_repair", None),
        (FreeVertexSystem, "__init__", "compaction.build", None),
        (FreeVertexSystem, "fix", "compaction.fix", None),
        (BisectionExecutor, "solve_frontier", "executor.solve_frontier",
         lambda args, result: len(result)),
        (DynamicGraph, "apply", "dynamic.apply", None),
        (DynamicGraph, "snapshot", "dynamic.snapshot", None),
        (DynamicGraph, "has_edge", "dynamic.has_edge", None),
        (IncrementalMetrics, "apply_batch", "dynamic.metrics_apply", None),
        (IncrementalMetrics, "move", "dynamic.metrics_move", None),
        (IncrementalMetrics, "reset", "dynamic.metrics_reset", None),
        (IncrementalMetrics, "partition", "dynamic.metrics_partition", None),
        (IncrementalMetrics, "imbalance", "dynamic.metrics_imbalance", None),
        (IncrementalMetrics, "max_imbalance", "dynamic.metrics_max_imbalance", None),
        (IncrementalMetrics, "is_epsilon_balanced", "dynamic.metrics_balanced", None),
        (repartition, "expand_hops", "dynamic.expand_hops", None),
    ] + [(ProjectionEngine, method, f"projection.{method}", None)
         for method in vars(ProjectionEngine)
         if method.startswith("project") or method in ("begin_compacted",
                                                       "narrow_restricted")]
    # An entry point a later version removes is skipped: its layer reads 0.
    patches = [(owner, attribute, _span(tracer, name, owner.__dict__[attribute], after))
               for owner, attribute, name, after in points if attribute in owner.__dict__]

    spmv = NumpyBackend.__dict__["spmv"]

    @functools.wraps(spmv)
    def counted_spmv(self, matrix, x):
        # Operation count and bytes a CSR mat-vec must touch, computed
        # from nnz and the dtypes: values, column indices, row pointers,
        # the input vector and the output vector.
        result = spmv(self, matrix, x)
        counters = tracer.ops[-1]["spmv"]
        counters[0] += 2 * matrix.nnz
        counters[1] += (matrix.data.nbytes + matrix.indices.nbytes
                        + matrix.indptr.nbytes + x.nbytes + result.nbytes)
        return result

    patches.append((NumpyBackend, "spmv", counted_spmv))
    return patches


def _ms(span: list) -> float:
    return (span[_END] - span[_START]) / 1e6


def op_spans(tracer: Tracer, op: int) -> tuple[list[list], list[float]]:
    """The spans of one operation and their self times in ms."""
    start = tracer.ops[op]["root"]
    stop = tracer.ops[op + 1]["root"] if op + 1 < len(tracer.ops) else len(tracer.spans)
    spans = tracer.spans[start:stop]
    self_ms = [_ms(span) for span in spans]
    for span in spans[1:]:
        self_ms[span[_PARENT] - start] -= _ms(span)
    return spans, self_ms


def _waves(tracer: Tracer, op: int) -> list[tuple[float, int, list[float]]]:
    """Per frontier wave of one operation: its wall time in ms, its task
    count, and the GD time of each task that ran in this process."""
    spans, _ = op_spans(tracer, op)
    start = tracer.ops[op]["root"]
    return [(_ms(wave), wave[_WORK] or 0,
             [_ms(span) for span in spans
              if span[_NAME] == "gd.bisect" and span[_PARENT] == start + index])
            for index, wave in enumerate(spans) if wave[_NAME] == "executor.solve_frontier"]


def serial_fraction(tracer: Tracer, op: int) -> float:
    """The share of a serial operation that a 2-worker pool cannot
    overlap: everything outside waves of two or more tasks."""
    wall = _ms(tracer.spans[tracer.ops[op]["root"]])
    pooled = sum(duration for duration, tasks, _ in _waves(tracer, op) if tasks >= 2)
    return (wall - pooled) / wall


def layer_metrics(tracer: Tracer, counters: list[dict], traced_s: list[float],
                  untraced_s: list[float], workers: int = 1,
                  reference: Tracer | None = None) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric, averaged per traced operation.

    ``counters`` holds one dict per traced operation from the workload
    (executor, shm and repair counters read off the operation's result).
    ``reference`` is a traced serial run of the same input; when given,
    the GD time of tasks that ran in pool workers (out of reach of the
    tracer) is taken from it, which the determinism contract allows: the
    pooled tasks are the same tasks.
    """
    totals = {name: 0.0 for name, _ in PER_LAYER}
    reference_waves = _waves(reference, 0) if reference is not None else []
    fractions = []
    span_count = 0
    self_sum = 0.0
    for op, record in enumerate(tracer.ops):
        spans, self_ms = op_spans(tracer, op)
        span_count += len(spans)
        self_sum += sum(self_ms) / (traced_s[op] * 1e3)
        by_name: dict[str, list[float]] = {}
        for span, own in zip(spans, self_ms):
            by_name.setdefault(span[_NAME], []).append(own)
        for name in ("graphs.subgraphs", "dynamic.apply", "dynamic.snapshot",
                     "dynamic.metrics_apply", "dynamic.metrics_move",
                     "dynamic.expand_hops", "gd.setup", "gd.step", "compaction.build",
                     "compaction.fix", "rounding.finalize", "rounding.balance_repair"):
            totals[f"{name}.self_ms"] += sum(by_name.get(name, ()))
        totals["op.self_ms"] += self_ms[0]
        totals["graphs.subgraphs.calls"] += len(by_name.get("graphs.subgraphs", ()))
        totals["graphs.subgraphs.edges"] += sum(span[_WORK] or 0 for span in spans
                                                if span[_NAME] == "graphs.subgraphs")
        totals["gd.tasks"] += len(by_name.get("gd.setup", ()))
        totals["gd.iterations"] += len(by_name.get("gd.step", ()))
        totals["projection.self_ms"] += sum(sum(values) for name, values in by_name.items()
                                            if name.startswith("projection."))

        kernel_totals: dict[str, list[int]] = {}
        projection = {"calls": 0, "region_rebuilds": 0, "warm_attempts": 0,
                      "warm_accepts": 0}
        for kernel_stats, projection_stats in record["steppers"]:
            for name, (count, ns) in kernel_stats.counters.items():
                entry = kernel_totals.setdefault(name, [0, 0])
                entry[0] += count
                entry[1] += ns
            for field in projection:
                projection[field] += getattr(projection_stats, field)
        for name in KERNELS:
            count, ns = kernel_totals.get(name, (0, 0))
            totals[f"kernels.{name}.calls"] += count
            totals[f"kernels.{name}.ns"] += ns
        totals["kernels.spmv.ops"] += record["spmv"][0]
        totals["kernels.spmv.bytes_computed"] += record["spmv"][1]
        for field in ("calls", "region_rebuilds", "warm_attempts"):
            totals[f"projection.{field}"] += projection[field]
        if projection["warm_attempts"]:
            totals["projection.warm_accept_ratio"] += (projection["warm_accepts"]
                                                       / projection["warm_attempts"])

        waves = _waves(tracer, op)
        for position, (duration, _, tasks) in enumerate(waves):
            lanes = 1
            if not tasks and position < len(reference_waves):
                tasks = reference_waves[position][2]
                lanes = max(1, min(workers, len(tasks)))
            # The wave's wall time minus the best the tasks' GD time allows.
            totals["executor.dispatch_ms"] += duration - (
                max(sum(tasks) / lanes, max(tasks)) if tasks else 0.0)
            if position < MAX_WAVES:
                totals[f"executor.wave{position}.ms"] += duration
        frontier_ms = sum(duration for duration, _, _ in waves)
        totals["executor.solve_frontier.ms"] += frontier_ms
        totals["executor.first_wave_ms"] += waves[0][0] if waves else 0.0
        totals["recursive.coordinator_ms"] += _ms(spans[0]) - frontier_ms
        totals["recursive.waves"] += len(waves)
        totals["recursive.tasks"] += sum(tasks for _, tasks, _ in waves)
        fractions.append(serial_fraction(tracer, op))
        for name, value in counters[op].items():
            totals[name] += value

    ops = max(len(tracer.ops), 1)
    metrics = {name: value / ops for name, value in totals.items()}
    fraction = (serial_fraction(reference, 0) if reference is not None
                else statistics.median(fractions) if fractions else 1.0)
    metrics["shm.serial_fraction"] = fraction
    metrics["shm.amdahl_bound_w2"] = 1.0 / (fraction + (1.0 - fraction) / 2.0)
    metrics["trace.solve_s"] = statistics.median(traced_s) if traced_s else 0.0
    metrics["trace.untraced_solve_s"] = statistics.median(untraced_s) if untraced_s else 0.0
    metrics["trace.overhead_pct"] = (100.0 * (metrics["trace.solve_s"]
                                              / metrics["trace.untraced_solve_s"] - 1.0)
                                     if traced_s and untraced_s else 0.0)
    metrics["trace.self_sum_frac"] = self_sum / ops
    metrics["trace.spans_per_op"] = span_count / ops
    metrics["trace.ops"] = float(len(tracer.ops))
    return metrics
