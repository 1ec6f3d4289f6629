"""The benchmark's workloads: inputs made from a seed, one operation, its check.

Every workload uses d = 2 (:func:`repro.standard_weights`), ε = 0.05 and
``GDConfig(iterations=100)`` with the shipped defaults for everything
else.  The graphs are the fixed ``fb_like`` presets (the ROADMAP's
canonical input at scale 8); the seed drives the GD randomness and the
churn trace.  How long a k-way solve takes depends on its GD seed (on the
canonical graph seed 5 takes ~25 % longer than seed 10), so each
``kway_*`` operation takes the next GD seed of a permutation of
:data:`GD_SEEDS` drawn from the run's seed: a run's median then samples
many GD seeds, and runs on different seeds measure the same mix of work.
``churn_repair`` uses the run's seed as its GD seed.  The program
receives only the generated graph, weights, config and update batches.

* ``kway_serial`` — ``fb_like(80, scale=8)``, k = 16, serial: the
  canonical workload and the single-process baseline.
* ``kway_shm2`` — the same input on ``parallelism="shm"`` with two
  workers: the only workload that runs the shared-memory executor, and
  it must match a serial reference, solved during validation, bit for bit.
* ``kway_k64`` — ``fb_like(80, scale=2)``, k = 64: 63 small tasks, where
  per-task fixed costs dominate.
* ``churn_repair`` — ``fb_like(80, scale=4)``, k = 16, then one
  ``churn_trace`` batch (0.05 % of the edges, degree weights kept in
  sync) per :meth:`IncrementalRepartitioner.apply`: the same solver
  layers used warm, compacted and mostly frozen, beside the dynamic-graph
  writes.

``size`` shrinks every graph for the tests; the benchmark always runs at
``size=1``.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro import ExecutionConfig, GDConfig, edge_locality, imbalance, run, standard_weights
from repro.dynamic import DynamicGraph, IncrementalRepartitioner, UpdateBatch, degree_weight_deltas
from repro.graphs.datasets import fb_like
from repro.graphs.generators import churn_trace
from repro.partition import Partition

EPSILON = 0.05
ITERATIONS = 100
#: Tolerance on ε when checking balance, for float summation order.
BALANCE_TOLERANCE = 1e-9
#: Update batches generated per churn run; a run stops early if it uses
#: them all.
CHURN_BATCHES = 300
CHURN_FRACTION = 0.0005
#: GD seed of the untimed ``kway_*`` warm-up operation.
WARM_UP_SEED = 0
#: GD seeds of the ``kway_*`` operations, each checked to give an
#: ε-balanced partition on ``kway_serial`` and ``kway_k64``: some seeds do
#: not (1847681291 leaves ``kway_k64`` at imbalance 0.056), and a workload
#: must not fail.
GD_SEEDS = tuple(range(96))


def check_assignment(assignment: np.ndarray, graph, num_parts: int,
                     weights: np.ndarray) -> str | None:
    """``None`` when ``assignment`` is a valid ε-balanced k-way partition,
    else what is wrong with it."""
    assignment = np.asarray(assignment)
    if assignment.shape != (graph.num_vertices,):
        return f"assignment has shape {assignment.shape}, expected ({graph.num_vertices},)"
    if assignment.size and (assignment.min() < 0 or assignment.max() >= num_parts):
        return f"labels outside [0, {num_parts})"
    worst = imbalance(Partition(graph=graph, assignment=assignment, num_parts=num_parts),
                      weights)
    if np.any(worst > EPSILON + BALANCE_TOLERANCE):
        return f"imbalance {worst.tolist()} exceeds epsilon {EPSILON}"
    return None


class KwayWorkload:
    """One ``repro.run`` call per operation, on a fixed graph; each
    operation with the next GD seed of the run."""

    #: Name of the traced root span of an operation.
    root_span = "repro.run"

    def __init__(self, seed: int, scale: float, num_parts: int,
                 execution: ExecutionConfig | None = None, size: float = 1.0):
        self.seed = seed
        self.scale = scale * size
        self.num_parts = num_parts
        self.execution = execution
        self.workers = execution.max_workers if execution is not None else 1
        self.localities: list[float] = []

    def setup(self, reference_tracer=None) -> None:
        """Make the inputs.  For a parallel execution the first serial
        reference is traced when a tracer is given."""
        self.graph = fb_like(80, scale=self.scale)
        self.weights = standard_weights(self.graph, 2)
        self.seeds = np.random.default_rng(self.seed).permutation(GD_SEEDS)
        self.position = 0
        self.reference_tracer = reference_tracer

    def _solve(self, config, execution):
        return run(self.graph, self.num_parts, weights=self.weights, epsilon=EPSILON,
                   gd=config, execution=execution)

    def warm_up_input(self) -> GDConfig:
        """The same GD seed in every run, so set-up work does not depend
        on the run's seed."""
        return GDConfig(iterations=ITERATIONS, seed=WARM_UP_SEED)

    def next_input(self) -> GDConfig:
        seed = int(self.seeds[self.position % len(self.seeds)])
        self.position += 1
        return GDConfig(iterations=ITERATIONS, seed=seed)

    def operation(self, config: GDConfig):
        self.config = config
        return self._solve(config, self.execution)

    def _reference(self) -> np.ndarray:
        """The serial assignment for the last operation's config."""
        tracer, self.reference_tracer = self.reference_tracer, None
        with tracer.operation(self.root_span) if tracer else contextlib.nullcontext():
            return self._solve(self.config, None).partition.assignment

    def validate(self, result) -> str | None:
        self.last = result
        assignment = result.partition.assignment
        problem = check_assignment(assignment, self.graph, self.num_parts, self.weights)
        if problem is None and self.execution is not None:
            differing = int(np.count_nonzero(assignment != self._reference()))
            if differing:
                problem = f"{differing} vertices differ from the serial reference"
        if problem is None:
            self.localities.append(float(edge_locality(result.partition)))
        return problem

    def counters(self, result) -> dict[str, float]:
        stats = result.executor_stats
        return {"executor.retries": stats.retries, "executor.timeouts": stats.timeouts,
                "executor.pool_rebuilds": stats.pool_rebuilds,
                "shm.bytes_shared": stats.shm.bytes_shared,
                "shm.payload_bytes_per_task": stats.shm.payload_bytes_per_task}

    def finish(self) -> str | None:
        return None

    def edge_locality_pct(self) -> float:
        """Median locality of the valid outputs (one per GD seed)."""
        return float(np.median(self.localities)) if self.localities else 0.0


class ChurnWorkload:
    """One ``IncrementalRepartitioner.apply`` call per update batch."""

    root_span = "dynamic.repartition.apply"

    def __init__(self, seed: int, size: float = 1.0):
        self.seed = seed
        self.scale = 4 * size
        self.num_parts = 16
        self.workers = 1

    def setup(self, reference_tracer=None) -> None:
        """Initial partition, live graph and the update trace."""
        graph = fb_like(80, scale=self.scale)
        weights = standard_weights(graph, 2)
        config = GDConfig(iterations=ITERATIONS, seed=self.seed)
        initial = run(graph, self.num_parts, weights=weights, epsilon=EPSILON, gd=config)
        self.dynamic = DynamicGraph(graph, weights)
        self.repartitioner = IncrementalRepartitioner(
            self.dynamic, initial.partition.assignment, self.num_parts, EPSILON, config)
        self.trace = churn_trace(graph, CHURN_BATCHES, CHURN_FRACTION, seed=self.seed + 1)
        self.position = 0

    def warm_up_input(self) -> UpdateBatch:
        return self.next_input()

    def next_input(self) -> UpdateBatch | None:
        """The next batch, with degree-weight deltas matching the live
        graph; ``None`` once the trace is used up."""
        if self.position >= len(self.trace):
            return None
        insertions, deletions = self.trace[self.position]
        self.position += 1
        vertices, deltas = degree_weight_deltas(self.dynamic, insertions, deletions)
        return UpdateBatch(insertions=insertions, deletions=deletions,
                           weight_vertices=vertices, weight_deltas=deltas)

    def operation(self, batch: UpdateBatch):
        return self.repartitioner.apply(batch)

    def validate(self, report) -> str | None:
        if not report.balanced:
            return f"repair report not balanced (mode {report.mode})"
        return check_assignment(self.repartitioner.assignment, self.dynamic.snapshot(),
                                self.num_parts, self.dynamic.weights)

    def counters(self, report) -> dict[str, float]:
        return {"dynamic.freed_frac": report.freed_vertices / self.dynamic.num_vertices,
                "dynamic.work_ratio": report.work_ratio,
                f"dynamic.mode.{report.mode}": 1.0}

    def finish(self) -> str | None:
        """The running locality must equal a from-scratch one."""
        running = self.repartitioner.metrics.edge_locality_pct
        scratch = self.edge_locality_pct()
        if abs(running - scratch) > 1e-9:
            return f"incremental locality {running} != from-scratch {scratch}"
        return None

    def edge_locality_pct(self) -> float:
        return float(edge_locality(self.repartitioner.partition()))


def make(name: str, seed: int, size: float = 1.0):
    """A fresh, not yet set-up workload by name."""
    if name == "kway_serial":
        return KwayWorkload(seed, 8, 16, size=size)
    if name == "kway_shm2":
        return KwayWorkload(seed, 8, 16, ExecutionConfig(parallelism="shm", max_workers=2),
                            size=size)
    if name == "kway_k64":
        return KwayWorkload(seed, 2, 64, size=size)
    if name == "churn_repair":
        return ChurnWorkload(seed, size=size)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


WORKLOADS = ("kway_serial", "kway_shm2", "kway_k64", "churn_repair")
