"""Recursive bisection into ``k`` parts (§3.3), scheduled as a task frontier.

The paper partitions into ``k > 2`` buckets by running GD recursively
``⌈log₂ k⌉`` times: each level splits a vertex set into two groups that
will eventually hold ``⌈k'/2⌉`` and ``⌊k'/2⌋`` of the remaining parts.
When ``k'`` is odd the target fraction of the balance constraint is shifted
accordingly ("changing the coefficients in the balance constraints"), so
arbitrary ``k`` is supported, not only powers of two.

The imbalance budget is split across the recursion levels so that the final
partition meets the user-requested ``ε``.

Scheduling
----------
Instead of depth-first recursion, the recursion tree is processed as a
*frontier* of tasks, one wave per level.  All subproblems in a wave touch
disjoint, sorted vertex sets: the coordinating process materializes the
whole wave's induced subgraphs with one :meth:`Graph.subgraphs` call —
each a row filter of the input graph's CSR, and the root task's the input
graph itself, uncopied — and hands the wave to
:meth:`~repro.core.executor.BisectionExecutor.solve_frontier` — serially
in process, or on a process pool that shares the wave
zero-copy through one shared-memory arena (``parallelism="shm"``; see
:mod:`repro.core.shm`), as :attr:`GDConfig.execution` (an
:class:`~repro.core.ExecutionConfig`) or a caller-owned executor says.

Each worker's ``gd_bisect`` call constructs its own
:class:`~repro.core.projection.ProjectionEngine` for its subproblem's
feasible region, so the projection caches and warm-start state are local
to the worker — nothing stateful crosses the process boundary, and the
engine's results are independent of the execution backend.

Deterministic-seeding contract
------------------------------
The RNG seed of every subproblem is a pure function of the task's position
in the recursion tree — ``task_seed(config.seed, depth, first_part)`` keyed
through :class:`numpy.random.SeedSequence` ``spawn_key`` s — never of
execution order or of the chosen backend.  Consequently
``recursive_bisection(graph, w, k, eps, config)`` returns **bit-identical**
assignments for ``parallelism`` in ``{"serial", "shm"}`` and any
``max_workers``, given a fixed ``config.seed``.  Code
that changes the task identity (the ``(depth, first_part)`` coordinate)
changes the sampled partitions and must be treated as a behavioural change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ..faults import fault_site
from ..graphs.graph import Graph
from ..partition.partition import Partition
from ..partition.validation import validate_epsilon, validate_num_parts, validate_weights
from .checkpoint import FrontierCheckpoint, TaskState
from .config import GDConfig
from .executor import BisectionExecutor, task_seed
from .gd import gd_bisect

__all__ = ["per_level_epsilon", "recursive_bisection"]


def per_level_epsilon(num_parts: int, epsilon: float) -> tuple[int, float]:
    """The recursion depth and the per-level imbalance budget.

    Imbalances compound multiplicatively across the ``⌈log₂ k⌉`` levels:
    ``(1 + eps_level)^levels <= 1 + eps``, floored at 1e-4.  Shared with
    the incremental repartitioner (:mod:`repro.dynamic.repartition`),
    whose repaired partitions must answer to the *same* per-level bands
    as this scheduler's recomputed ones.
    """
    levels = max(1, math.ceil(math.log2(num_parts)))
    value = (1.0 + epsilon) ** (1.0 / levels) - 1.0
    return levels, max(value, 1e-4)


@dataclass(frozen=True)
class _Task:
    """One node of the recursion tree: split ``vertex_ids`` into ``num_parts``."""

    vertex_ids: np.ndarray
    num_parts: int
    first_part: int
    depth: int


@dataclass(frozen=True)
class _Subproblem:
    """A self-contained bisection shipped to a worker (picklable)."""

    subgraph: Graph
    weights: np.ndarray
    epsilon: float
    config: GDConfig
    target_fraction: float


def _run_subproblem(subproblem: _Subproblem) -> np.ndarray:
    """Worker entry point: bisect one subproblem, return the local sides.

    Module-level so a process pool can pickle it by reference; only the
    assignment vector travels back to the coordinator.
    """
    result = gd_bisect(subproblem.subgraph, subproblem.weights, subproblem.epsilon,
                       subproblem.config, target_fraction=subproblem.target_fraction)
    return result.partition.assignment


def _prepare_wave(graph: Graph, weights: np.ndarray, tasks: list[_Task],
                  epsilon_per_level: float,
                  config: GDConfig) -> list[tuple[_Subproblem, np.ndarray]]:
    """Extract one wave's subproblems and derive their seeded configs.

    The tasks of a wave cover disjoint vertex sets, sorted ascending (the
    root's is every vertex; :func:`_expand` keeps its parent's order), so
    their induced subgraphs are row filters of ``graph`` taken by one
    :meth:`Graph.subgraphs` call — shared by both execution backends (shm
    packs the subproblems into the wave's arena).
    """
    extracted = graph.subgraphs([task.vertex_ids for task in tasks])
    prepared: list[tuple[_Subproblem, np.ndarray]] = []
    for task, (subgraph, mapping) in zip(tasks, extracted):
        # Seed by recursion-tree coordinate (see the deterministic-seeding
        # contract in the module docstring); force workers to run their inner
        # bisection serially — the frontier is the unit of parallelism.
        sub_config = config.with_updates(
            seed=task_seed(config.seed, task.depth, task.first_part),
            record_history=False,
            execution=config.execution.with_updates(parallelism="serial",
                                                    max_workers=None))
        target_fraction = ((task.num_parts + 1) // 2) / task.num_parts
        prepared.append((_Subproblem(subgraph=subgraph, weights=weights[:, mapping],
                                     epsilon=epsilon_per_level, config=sub_config,
                                     target_fraction=target_fraction), mapping))
    return prepared


def _expand(task: _Task, mapping: np.ndarray, local_assignment: np.ndarray) -> Iterable[_Task]:
    """Turn a finished bisection into the two child tasks of the next level."""
    left_parts = (task.num_parts + 1) // 2
    right_parts = task.num_parts - left_parts
    left_ids = mapping[np.flatnonzero(local_assignment == 0)]
    right_ids = mapping[np.flatnonzero(local_assignment == 1)]
    yield _Task(vertex_ids=left_ids, num_parts=left_parts,
                first_part=task.first_part, depth=task.depth + 1)
    yield _Task(vertex_ids=right_ids, num_parts=right_parts,
                first_part=task.first_part + left_parts, depth=task.depth + 1)


def recursive_bisection(graph: Graph, weights: np.ndarray, num_parts: int,
                        epsilon: float = 0.05, config: GDConfig | None = None,
                        *, executor: BisectionExecutor | None = None,
                        checkpoint_sink: Callable[[FrontierCheckpoint], None] | None = None,
                        checkpoint_every: int = 1,
                        resume_from: FrontierCheckpoint | None = None) -> Partition:
    """Partition ``graph`` into ``num_parts`` parts by recursive GD bisection.

    Parameters
    ----------
    graph, weights, num_parts, epsilon:
        As in :func:`repro.core.gd_bisect`, but for ``num_parts >= 2``.
    config:
        Algorithm parameters; defaults to :class:`GDConfig()`.  Its
        ``execution`` field picks the backend the waves run on; the
        output is bit-identical across backends for a fixed
        ``config.seed`` (see the module docstring).
    executor:
        An externally-owned :class:`~repro.core.executor.BisectionExecutor`
        to run the waves on.  The caller keeps shutdown responsibility
        and can read ``executor.stats`` (retries, pool rebuilds, shared-
        memory counters) after the run; ``None`` creates one from
        ``config.execution`` for the duration of the call.
    checkpoint_sink, checkpoint_every:
        When ``checkpoint_sink`` is given it receives a
        :class:`~repro.core.checkpoint.FrontierCheckpoint` at the top of
        every ``checkpoint_every``-th wave (the first wave is never
        checkpointed — it holds no progress).  Sinks should store the
        checkpoint atomically (e.g.
        :meth:`repro.store.PartitionStore.put_checkpoint`); a sink that
        raises aborts the run.
    resume_from:
        A checkpoint from an earlier, interrupted run of the *same*
        graph/config (validated via
        :meth:`~repro.core.checkpoint.FrontierCheckpoint.validate_against`).
        The run restarts at the checkpoint's wave; by the
        deterministic-seeding contract the final assignment is
        bit-identical to the uninterrupted run's.
    """
    config = config if config is not None else GDConfig()
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1")
    epsilon = validate_epsilon(epsilon)
    num_parts = validate_num_parts(num_parts, graph.num_vertices)
    weights = validate_weights(graph, weights)

    if num_parts == 1:
        return Partition.trivial(graph, num_parts=1)

    _, epsilon_per_level = per_level_epsilon(num_parts, epsilon)

    if resume_from is not None:
        resume_from.validate_against(
            num_vertices=graph.num_vertices, num_edges=graph.num_edges,
            num_parts=num_parts, epsilon=epsilon, seed=config.seed)
        level = resume_from.level
        assignment = np.array(resume_from.assignment, dtype=np.int64, copy=True)
        frontier = [_Task(vertex_ids=np.asarray(task.vertex_ids, dtype=np.int64),
                          num_parts=task.num_parts, first_part=task.first_part,
                          depth=task.depth)
                    for task in resume_from.tasks]
    else:
        level = 0
        assignment = np.zeros(graph.num_vertices, dtype=np.int64)
        frontier = [_Task(vertex_ids=np.arange(graph.num_vertices), num_parts=num_parts,
                          first_part=0, depth=0)]

    checkpoint_meta = {"num_vertices": graph.num_vertices,
                       "num_edges": graph.num_edges, "num_parts": num_parts,
                       "epsilon": epsilon, "seed": config.seed}

    owns_executor = executor is None
    if owns_executor:
        executor = BisectionExecutor(config.execution)
    try:
        while frontier:
            if checkpoint_sink is not None and level > 0 and level % checkpoint_every == 0:
                checkpoint_sink(FrontierCheckpoint(
                    level=level, assignment=assignment.copy(),
                    tasks=tuple(TaskState(vertex_ids=task.vertex_ids,
                                          num_parts=task.num_parts,
                                          first_part=task.first_part,
                                          depth=task.depth)
                                for task in frontier),
                    meta=dict(checkpoint_meta)))
            # Chaos hook: lets kill-and-resume tests die right after (or
            # right before) a checkpoint, keyed by wave level.
            fault_site("recursive.wave", label=f"level={level}")

            pending: list[_Task] = []
            for task in frontier:
                if task.num_parts == 1 or task.vertex_ids.size == 0:
                    assignment[task.vertex_ids] = task.first_part
                else:
                    pending.append(task)

            prepared = _prepare_wave(graph, weights, pending, epsilon_per_level, config)
            local_assignments = executor.solve_frontier(
                [subproblem for subproblem, _ in prepared], _run_subproblem,
                labels=[f"depth={task.depth}/part={task.first_part}"
                        for task in pending])

            frontier = [child
                        for task, (_, mapping), local in zip(pending, prepared, local_assignments)
                        for child in _expand(task, mapping, local)]
            level += 1
    finally:
        if owns_executor:
            executor.shutdown()

    return Partition(graph=graph, assignment=assignment, num_parts=num_parts)
