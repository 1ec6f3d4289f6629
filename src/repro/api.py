"""High-level one-call API: partition a graph, score a partition.

These are the functions a downstream user needs before caring about the
layers underneath — a thin veneer over :class:`~repro.core.GDPartitioner`
and the :mod:`repro.partition` metrics, mirroring what the CLI's
``partition`` / ``evaluate`` subcommands print.  :func:`run` is the
execution-aware entry point: it takes the algorithm parameters
(``gd=``) and the execution parameters (``execution=``) separately and
returns a :class:`RunResult` that carries the partition together with
the run's observability — the solver diagnostics for a plain bisection,
and the executor's resilience/shared-memory counters for recursive
k-way runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import ExecutionConfig, GDConfig, GDPartitioner
from .core.executor import BisectionExecutor, ExecutorStats
from .core.gd import BisectionResult, gd_bisect
from .core.recursive import recursive_bisection
from .graphs import Graph, standard_weights
from .partition import Partition, edge_locality, imbalance

__all__ = ["RunResult", "evaluate", "partition_graph", "run"]


def partition_graph(graph: Graph, num_parts: int = 2, *,
                    weights: np.ndarray | None = None,
                    epsilon: float = 0.05,
                    config: GDConfig | None = None) -> Partition:
    """Partition ``graph`` into ``num_parts`` ε-balanced parts with GD.

    Parameters
    ----------
    graph:
        The input graph.
    num_parts:
        Number of parts ``k`` (recursive bisection handles any ``k >= 1``).
    weights:
        ``(d, n)`` balance-dimension matrix; defaults to the paper's
        standard 2-dimensional stack (unit + degree,
        :func:`~repro.graphs.standard_weights`).
    epsilon:
        Allowed relative imbalance per dimension.
    config:
        Algorithm parameters (:class:`~repro.core.GDConfig`); defaults to
        the paper preset.  Every knob — iterations, projection method,
        parallelism — lives there.
    """
    if weights is None:
        weights = standard_weights(graph, 2)
    partitioner = GDPartitioner(epsilon=epsilon, config=config)
    return partitioner.partition(graph, weights, num_parts)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one :func:`run` call: the partition plus observability.

    ``bisection`` is populated for 2-way runs (the full
    :class:`~repro.core.BisectionResult` with history, projection and
    kernel counters); ``executor_stats`` for recursive k-way runs — the
    executor's retry/timeout/pool-rebuild counters and, under
    ``parallelism="shm"``, the shared-memory stats
    (``executor_stats.shm``: pooled waves and tasks, segments created,
    one per walk, attach counts, bytes shared and the pickled bytes per
    task), next to the kernel counters the 2-way path reports.
    """

    partition: Partition
    gd: GDConfig
    execution: ExecutionConfig
    elapsed_seconds: float
    bisection: BisectionResult | None = field(default=None, repr=False)
    executor_stats: ExecutorStats | None = field(default=None, repr=False)


def run(graph: Graph, num_parts: int = 2, *,
        weights: np.ndarray | None = None,
        epsilon: float = 0.05,
        gd: GDConfig | None = None,
        execution: ExecutionConfig | None = None) -> RunResult:
    """Partition ``graph`` with explicit algorithm/execution separation.

    Parameters
    ----------
    graph, num_parts, weights, epsilon:
        As in :func:`partition_graph`.
    gd:
        Algorithm parameters (:class:`~repro.core.GDConfig`); defaults
        to the paper preset.
    execution:
        Execution parameters (:class:`~repro.core.ExecutionConfig`) —
        parallelism backend, worker count, timeout/retry budgets, shm
        segment prefix.  Overrides ``gd.execution`` when given.  The partition is
        bit-identical across execution configs for a fixed ``gd.seed``.
    """
    config = gd if gd is not None else GDConfig()
    if execution is not None:
        config = config.with_updates(execution=execution)
    if weights is None:
        weights = standard_weights(graph, 2)
    start = time.perf_counter()
    if num_parts == 2:
        # Same routing as GDPartitioner.partition: a plain bisection runs
        # the GD driver directly (root seed, full diagnostics).
        result = gd_bisect(graph, weights, epsilon, config)
        return RunResult(partition=result.partition, gd=config,
                         execution=config.execution,
                         elapsed_seconds=time.perf_counter() - start,
                         bisection=result)
    with BisectionExecutor(config.execution) as executor:
        partition = recursive_bisection(graph, weights, num_parts, epsilon,
                                        config, executor=executor)
        stats = executor.stats
    return RunResult(partition=partition, gd=config, execution=config.execution,
                     elapsed_seconds=time.perf_counter() - start,
                     executor_stats=stats)


def evaluate(partition: Partition, weights: np.ndarray | None = None) -> dict:
    """Score a partition: edge locality and per-dimension imbalance.

    Returns a JSON-friendly dict with ``num_parts``, ``edge_locality_pct``
    and ``imbalance_pct`` (one percentage per balance dimension of
    ``weights``, which defaults to the standard 2-dimensional stack).
    """
    if weights is None:
        weights = standard_weights(partition.graph, 2)
    return {
        "num_parts": int(partition.num_parts),
        "edge_locality_pct": float(edge_locality(partition)),
        "imbalance_pct": [float(100.0 * v) for v in imbalance(partition, weights)],
    }
