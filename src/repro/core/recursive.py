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
*frontier* of tasks (:class:`~repro.core.checkpoint.TaskState` records,
each a node's vertex set and tree coordinate), one wave per level.  All
tasks in a wave touch disjoint, sorted vertex sets.  :func:`walk_tree`
hands each wave, with one :class:`Walk` record of what every task reads
(input graph, weights, per-level ε, config), to
:meth:`~repro.core.executor.BisectionExecutor.solve_frontier`, and every
task runs through :func:`solve_group`: it extracts the nodes' induced
subgraphs (one :meth:`Graph.subgraphs` call, a row filter of the input
graph's CSR; the root task's is the input graph itself, uncopied),
bisects them in lock step — one GD iteration body steps every task of
the group together (:class:`~repro.core.gd.BisectionStepper`) — and
hands back only each node's sides, from which the next wave's tasks are
cut.  The serial backend runs a whole wave as one group in process; the
``shm`` backend runs each task as a group of one on a process pool that
shares the whole walk zero-copy through one shared-memory arena
(``parallelism="shm"``; see :mod:`repro.core.shm`), as
:attr:`GDConfig.execution` (an :class:`~repro.core.ExecutionConfig`) or
a caller-owned executor says.  A task's bits do not depend on the group
it was stepped in.

The same walk serves the incremental repartitioner
(:mod:`repro.dynamic.repartition`): given a mask of released vertices it
warm-starts every task from the current assignment's sides with the
other vertices fixed, and skips the subtrees that hold no released
vertex.  A full solve is the walk with nothing fixed.

Each task constructs its own
:class:`~repro.core.projection.ProjectionEngine` for its subproblem's
feasible region, so the projection's warm-start state lives only as long
as that one solve — a task hands back its sides and nothing else — and
the engine's results are independent of the execution backend and of
the task's group.

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
from typing import Callable, Iterable, Sequence

import numpy as np

from ..faults import fault_site
from ..graphs.graph import Graph
from ..partition.partition import Partition
from ..partition.validation import validate_epsilon, validate_num_parts, validate_weights
from .checkpoint import FrontierCheckpoint, TaskState
from .config import GDConfig
from .executor import BisectionExecutor, task_seed
from .gd import Bisection, solve_bisections

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
class Walk:
    """What every task of one walk of the recursion tree reads.

    ``epsilon`` is the per-level imbalance budget and ``config`` the
    workers' config (serial, no history).  A repair walk also carries
    ``assignment``, whose labels warm-start each task, and the ``free``
    mask of the vertices it may move; a full solve leaves both ``None``.
    A leaf writes only its own vertices, so every pending task's vertices
    hold the walk's starting labels whenever that task runs: one
    assignment serves the whole walk, in process or shared with a pool.
    """

    graph: Graph
    weights: np.ndarray
    epsilon: float
    config: GDConfig
    assignment: np.ndarray | None = None
    free: np.ndarray | None = None


def solve_group(walk: Walk, tasks: Sequence[TaskState]) -> list[np.ndarray]:
    """Bisect nodes of the recursion tree in lock step.

    Extracts the nodes' induced subgraphs (one :meth:`Graph.subgraphs`
    call), seeds each solve by its node's coordinate (the
    deterministic-seeding contract), warm-starts a repair's nodes from
    the walk's labels with the vertices outside ``walk.free`` fixed, and
    steps them as one group (:func:`~repro.core.gd.solve_bisections`).
    Returns the sides of each ``task.vertex_ids`` (sorted, as every task
    of a walk is), in task order; each is bit-identical to the sides the
    node gets when bisected alone.  The one task function of both
    execution backends: the serial backend runs a whole wave through it
    in process, and an ``shm`` worker runs one task.
    """
    extracted = walk.graph.subgraphs([task.vertex_ids for task in tasks])
    bisections = []
    for task, (subgraph, mapping) in zip(tasks, extracted):
        left_parts = (task.num_parts + 1) // 2
        warm_start = {}
        if walk.free is not None:
            warm_start = {
                "initial_x": np.where(walk.assignment[mapping] < task.first_part + left_parts,
                                      1.0, -1.0),
                "initial_fixed": ~walk.free[mapping]}
        config = walk.config.with_updates(
            seed=task_seed(walk.config.seed, task.depth, task.first_part))
        bisections.append(Bisection(subgraph, walk.weights[:, mapping], walk.epsilon, config,
                                    target_fraction=left_parts / task.num_parts,
                                    **warm_start))
    return [result.partition.assignment for result in solve_bisections(bisections)]


def _expand(task: TaskState, sides: np.ndarray) -> Iterable[TaskState]:
    """Turn a finished bisection into the two child tasks of the next level."""
    left_parts = (task.num_parts + 1) // 2
    right_parts = task.num_parts - left_parts
    yield TaskState(vertex_ids=task.vertex_ids[sides == 0], num_parts=left_parts,
                    first_part=task.first_part, depth=task.depth + 1)
    yield TaskState(vertex_ids=task.vertex_ids[sides == 1], num_parts=right_parts,
                    first_part=task.first_part + left_parts, depth=task.depth + 1)


def walk_tree(graph: Graph, weights: np.ndarray, assignment: np.ndarray,
              frontier: list[TaskState], epsilon_per_level: float, config: GDConfig,
              executor: BisectionExecutor, *, free: np.ndarray | None = None,
              on_wave: Callable[[list[TaskState]], None] | None = None) -> int:
    """Solve the recursion tree below ``frontier``, one wave per level.

    Leaves write their part into ``assignment``; empty tasks are skipped.
    Each wave's tasks go to ``executor.solve_frontier`` with one
    :class:`Walk` record, and every task runs through :func:`solve_group`.

    ``free`` turns the solve into a repair: each task starts from
    ``assignment``'s current sides with the vertices outside ``free``
    fixed, and a task holding no free vertex keeps its parts.  Nothing
    else carries over from earlier solves, so a repair depends only on
    the graph, weights, assignment, ``free`` and config.
    ``on_wave`` is called with the frontier at the top of every wave.
    The executor's walk state (the ``shm`` arena) is released when the
    walk returns or raises.

    Returns the number of bisections run.
    """
    # Workers bisect serially: the frontier is the unit of parallelism.
    walk = Walk(graph=graph, weights=weights, epsilon=epsilon_per_level,
                config=config.with_updates(
                    record_history=False,
                    execution=config.execution.with_updates(parallelism="serial",
                                                            max_workers=None)),
                assignment=assignment if free is not None else None, free=free)
    bisections = 0
    try:
        while frontier:
            if on_wave is not None:
                on_wave(frontier)
            pending: list[TaskState] = []
            for task in frontier:
                if task.num_parts == 1:
                    assignment[task.vertex_ids] = task.first_part
                elif task.vertex_ids.size and (free is None or free[task.vertex_ids].any()):
                    pending.append(task)

            results = executor.solve_frontier(walk, pending)
            frontier = [child for task, sides in zip(pending, results)
                        for child in _expand(task, sides)]
            bisections += len(pending)
    finally:
        executor.end_walk()
    return bisections


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
        frontier = list(resume_from.tasks)
    else:
        level = 0
        assignment = np.zeros(graph.num_vertices, dtype=np.int64)
        frontier = [TaskState(vertex_ids=np.arange(graph.num_vertices), num_parts=num_parts,
                              first_part=0, depth=0)]

    checkpoint_meta = {"num_vertices": graph.num_vertices,
                       "num_edges": graph.num_edges, "num_parts": num_parts,
                       "epsilon": epsilon, "seed": config.seed}

    def on_wave(wave: list[TaskState]) -> None:
        nonlocal level
        if checkpoint_sink is not None and level > 0 and level % checkpoint_every == 0:
            checkpoint_sink(FrontierCheckpoint(level=level, assignment=assignment.copy(),
                                               tasks=tuple(wave),
                                               meta=dict(checkpoint_meta)))
        # Chaos hook: lets kill-and-resume tests die right after (or
        # right before) a checkpoint, keyed by wave level.
        fault_site("recursive.wave", label=f"level={level}")
        level += 1

    owns_executor = executor is None
    if owns_executor:
        executor = BisectionExecutor(config.execution)
    try:
        walk_tree(graph, weights, assignment, frontier, epsilon_per_level, config, executor,
                  on_wave=on_wave)
    finally:
        if owns_executor:
            executor.shutdown()

    return Partition(graph=graph, assignment=assignment, num_parts=num_parts)
