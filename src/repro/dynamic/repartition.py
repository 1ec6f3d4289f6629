"""Incremental repartitioning under edge churn.

The paper computes a partition once over a static graph; the workloads it
targets (social-graph serving à la SHP/BLP) churn continuously.  Re-running
full recursive GD after every update batch costs
``(k−1) · iterations · O(|E|)`` regardless of how small the batch was.
:class:`IncrementalRepartitioner` absorbs a batch for a fraction of that:

1. **Score the damage.**  The batch's relative cut increase plus its
   normalized balance violation (both maintained incrementally by
   :class:`~repro.dynamic.metrics.IncrementalMetrics`).  A batch of
   purely intra-part insertions scores zero — nothing to repair.
2. **Repair locally when the damage is small.**  Freeze every vertex
   farther than :attr:`GDConfig.repartition_hops` hops from a touched
   edge/vertex, then walk the recursion tree *implied by the previous
   assignment* (the same ⌈log₂ k⌉-level shape as
   :func:`repro.core.recursive_bisection`, groups split
   ``⌈k'/2⌉ / ⌊k'/2⌋`` by part id).  Subtrees containing no released
   vertex are skipped outright; each remaining node runs a short GD pass
   on its free vertices (:mod:`repro.core.compaction`) warm-started
   from the previous sides — the released vertices start at their old
   ±1 values, the frozen ones enter as the free-vertex system's boundary
   term, and the projection engine is seeded with the multipliers the
   previous solve of the same tree node exported
   (:attr:`BisectionResult.warm_lambdas`).  Finalization reuses the
   shared clean-up/rounding tail with the greedy balance repair confined
   to the released vertices, so frozen vertices provably keep their
   part.
3. **Fall back to full recursive GD** when the damage exceeds
   :attr:`GDConfig.repartition_damage_threshold` — heavy churn
   invalidates the locality structure the warm start relies on, and the
   full solve is the quality anchor.

Repair waves run through the same
:class:`~repro.core.executor.BisectionExecutor` as the one-shot
scheduler, with per-task seeds keyed by the node's recursion-tree
coordinate, so repaired assignments are **bit-identical** across the
``serial`` / ``thread`` / ``process`` / ``shm`` backends (repair tasks
carry warm-start state, so ``shm`` runs them on its pickling path).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.config import GDConfig
from ..core.executor import BisectionExecutor, task_seed
from ..core.gd import BisectionStepper, finalize_bisection
from ..core.recursive import per_level_epsilon, recursive_bisection
from ..graphs.graph import Graph
from ..partition.partition import Partition
from .graph import DynamicGraph, UpdateBatch
from .metrics import IncrementalMetrics

__all__ = ["DamageScore", "IncrementalRepartitioner", "RepairReport", "repair_config"]


@dataclass(frozen=True)
class DamageScore:
    """How badly one update batch hurt the current partition.

    ``total = cut_increase_fraction + balance_violation`` is what the
    repair-vs-recompute decision thresholds on; ``churn_fraction`` (the
    batch's share of the edge set) is reported for context only — churn
    that lands inside parts is harmless and should not trigger work.
    """

    churn_fraction: float
    cut_increase_fraction: float
    balance_violation: float

    @property
    def total(self) -> float:
        return self.cut_increase_fraction + self.balance_violation


@dataclass(frozen=True)
class RepairReport:
    """Outcome of absorbing one update batch.

    ``gd_iterations`` counts the GD iterations actually executed;
    ``full_recompute_iterations`` is what a from-scratch recursive solve
    of the same configuration would execute (``(k−1) · iterations``), so
    ``work_ratio`` > 1 quantifies the saving (it is 1.0 for the
    recompute fallback by construction, and slightly below 1.0 for
    ``"escalated"`` batches — a repair that ended out of the ε band and
    was replaced by a full solve, its iterations charged on top).
    """

    mode: str  # "repair", "recompute", "escalated" or "noop"
    damage: DamageScore
    gd_iterations: int
    full_recompute_iterations: int
    freed_vertices: int
    repair_tasks: int
    moved_vertices: int
    edge_locality_pct: float
    max_imbalance_pct: float
    balanced: bool
    elapsed_seconds: float

    @property
    def work_ratio(self) -> float:
        return self.full_recompute_iterations / max(self.gd_iterations, 1)


def repair_config(config: GDConfig) -> GDConfig:
    """Per-node parameters of a local repair pass, derived from the user
    config: short budget, no fresh noise (the warm iterate is far from
    the saddle) and vertex fixing active immediately (the start *is*
    integral)."""
    return config.with_updates(iterations=config.repartition_iterations,
                               noise_std=0.0,
                               fixing_start_fraction=0.0,
                               record_history=False,
                               execution=config.execution.with_updates(
                                   parallelism="serial", max_workers=None))


@dataclass(frozen=True)
class _RepairTask:
    """One node of the implied recursion tree, shipped to a worker."""

    subgraph: Graph
    weights: np.ndarray = field(repr=False)
    epsilon: float = 0.05
    config: GDConfig = None
    target_fraction: float = 0.5
    initial_x: np.ndarray = field(default=None, repr=False)
    initial_fixed: np.ndarray = field(default=None, repr=False)
    warm_lambdas: dict = None


@dataclass(frozen=True)
class _RepairOutcome:
    """What travels back from a worker: the node's repaired local sides,
    the iteration count, and the engine's exported multipliers."""

    sides: np.ndarray = field(repr=False)
    iterations: int = 0
    warm_lambdas: dict | None = None


def _run_repair_task(task: _RepairTask) -> _RepairOutcome:
    """Worker entry point (module-level so the process backend can pickle
    it by reference): one warm-started bisection repair."""
    stepper = BisectionStepper(task.subgraph, task.weights, task.epsilon,
                               task.config, task.target_fraction,
                               initial_x=task.initial_x,
                               initial_fixed=task.initial_fixed,
                               warm_lambdas=task.warm_lambdas)
    iterations = 0
    if not stepper.converged:
        for iteration in range(task.config.iterations):
            stepper.step(iteration)
            iterations += 1
    movable = ~np.asarray(task.initial_fixed, dtype=bool)
    sides = finalize_bisection(task.subgraph, stepper.weights, task.config,
                               task.epsilon, stepper.final_region, stepper.center,
                               stepper.x, stepper.fixed, stepper.rng,
                               movable=movable)
    return _RepairOutcome(sides=sides, iterations=iterations,
                          warm_lambdas=stepper.engine.export_warm_lambdas())


@dataclass(frozen=True)
class _TreeNode:
    """A node of the implied recursion tree during a repair walk."""

    vertex_ids: np.ndarray
    num_parts: int
    first_part: int
    depth: int


def expand_hops(indptr: np.ndarray, indices: np.ndarray, seeds: np.ndarray,
                hops: int, num_vertices: int) -> np.ndarray:
    """Boolean mask of vertices within ``hops`` hops of ``seeds``.

    ``hops = 0`` releases the seeds only.  Plain frontier BFS over the
    CSR; each vertex is expanded at most once, so the cost is
    O(edges within the released ball).
    """
    mask = np.zeros(num_vertices, dtype=bool)
    seeds = np.asarray(seeds, dtype=np.int64)
    mask[seeds] = True
    frontier = seeds
    for _ in range(hops):
        if frontier.size == 0:
            break
        neighbors = np.concatenate(
            [indices[indptr[v]:indptr[v + 1]] for v in frontier])
        fresh = np.unique(neighbors[~mask[neighbors]]) if neighbors.size else neighbors
        mask[fresh] = True
        frontier = fresh
    return mask


class IncrementalRepartitioner:
    """Maintains a k-way partition of a :class:`DynamicGraph` under churn.

    Parameters
    ----------
    dynamic:
        The live graph + weight state (updates flow through
        :meth:`apply`, which forwards them to the graph).
    assignment:
        The current partition (e.g. from a one-shot
        :class:`~repro.core.gd.GDPartitioner` run).
    num_parts, epsilon:
        The partitioning problem; ``epsilon`` is the end-to-end balance
        tolerance, split across recursion levels exactly as the one-shot
        scheduler splits it.
    config:
        GD parameters.  ``repartition_hops`` /
        ``repartition_damage_threshold`` / ``repartition_iterations``
        control the repair policy; ``config.execution`` selects the
        execution backend of both the repair waves and the recompute
        fallback (outputs are bit-identical across backends).
    """

    def __init__(self, dynamic: DynamicGraph, assignment: np.ndarray,
                 num_parts: int, epsilon: float = 0.05,
                 config: GDConfig | None = None):
        self.dynamic = dynamic
        self.config = config if config is not None else GDConfig()
        self.epsilon = float(epsilon)
        self.num_parts = int(num_parts)
        self.metrics = IncrementalMetrics(dynamic, assignment, num_parts)
        # Warm projection multipliers per recursion-tree coordinate
        # (depth, first_part), exported by the most recent solve of that
        # node and seeded into the next repair of the same node.
        self._warm: dict[tuple[int, int], dict[int, float]] = {}

    @classmethod
    def from_partition(cls, partition: Partition, weights: np.ndarray,
                       epsilon: float = 0.05,
                       config: GDConfig | None = None) -> "IncrementalRepartitioner":
        """Convenience constructor wrapping an existing static partition."""
        dynamic = DynamicGraph(partition.graph, weights)
        return cls(dynamic, partition.assignment, partition.num_parts,
                   epsilon=epsilon, config=config)

    # ------------------------------------------------------------------ #
    @property
    def assignment(self) -> np.ndarray:
        """The current assignment (a copy)."""
        return self.metrics.assignment

    def partition(self) -> Partition:
        """The current state as an immutable :class:`Partition`."""
        return self.metrics.partition()

    @property
    def full_recompute_iterations(self) -> int:
        """GD iterations a from-scratch recursive solve would execute:
        one ``config.iterations`` budget per internal tree node."""
        return (self.num_parts - 1) * self.config.iterations

    # ------------------------------------------------------------------ #
    def apply(self, batch: UpdateBatch) -> RepairReport:
        """Absorb one update batch: update the graph and metrics, score
        the damage, then repair locally or recompute (see module docs)."""
        start = time.perf_counter()
        edges_before = self.metrics.num_edges
        cut_before = self.metrics.cut_size
        canonical = self.dynamic.apply(batch)
        self.metrics.apply_batch(canonical)

        damage = self._score_damage(canonical, edges_before, cut_before)
        if damage.total > self.config.repartition_damage_threshold:
            return self._recompute(damage, start)
        if canonical.is_empty or damage.total == 0.0:
            # Nothing hurt the partition (e.g. intra-part insertions or
            # in-band weight drift): absorbing the metrics update is all
            # the work there is.
            return self._report("noop", damage, 0, 0, 0, 0, start)
        return self._repair(canonical, damage, start)

    # ------------------------------------------------------------------ #
    def _score_damage(self, canonical: UpdateBatch, edges_before: int,
                      cut_before: int) -> DamageScore:
        edges_after = max(self.metrics.num_edges, 1)
        churn = canonical.num_edge_changes / max(edges_before, 1)
        cut_increase = max(0, self.metrics.cut_size - cut_before) / edges_after

        # Normalized ε-balance violation: how many slack-widths the worst
        # part/dimension sits outside its band (0 when ε-balanced).
        part_weights = self.metrics.part_weights
        targets = part_weights.sum(axis=1, keepdims=True) / self.num_parts
        slack = np.maximum(self.epsilon * targets, 1e-12)
        over = (part_weights - (1.0 + self.epsilon) * targets) / slack
        under = ((1.0 - self.epsilon) * targets - part_weights) / slack
        violation = float(max(np.max(over), np.max(under), 0.0))
        return DamageScore(churn_fraction=churn,
                           cut_increase_fraction=cut_increase,
                           balance_violation=violation)

    def _report(self, mode: str, damage: DamageScore, iterations: int,
                freed: int, tasks: int, moved: int, start: float) -> RepairReport:
        return RepairReport(
            mode=mode,
            damage=damage,
            gd_iterations=iterations,
            full_recompute_iterations=self.full_recompute_iterations,
            freed_vertices=freed,
            repair_tasks=tasks,
            moved_vertices=moved,
            edge_locality_pct=self.metrics.edge_locality_pct,
            max_imbalance_pct=100.0 * self.metrics.max_imbalance(),
            balanced=self.metrics.is_epsilon_balanced(self.epsilon),
            elapsed_seconds=time.perf_counter() - start,
        )

    def recompute(self) -> RepairReport:
        """Rebuild the partition from the live graph, outside any batch.

        The serving stack's circuit breaker calls this after repeated
        repair failures: whatever inconsistent state the failed repairs
        left behind (partially mutated multipliers, a damaged
        assignment), a from-scratch recursive solve of the *current*
        graph replaces it wholesale.  Reported with mode
        ``"escalated"``.
        """
        return self._recompute(DamageScore(churn_fraction=0.0,
                                           cut_increase_fraction=0.0,
                                           balance_violation=0.0),
                               time.perf_counter(), mode="escalated")

    def _recompute(self, damage: DamageScore, start: float,
                   mode: str = "recompute",
                   extra_iterations: int = 0) -> RepairReport:
        previous = self.metrics.assignment
        partition = recursive_bisection(self.dynamic.snapshot(),
                                        self.dynamic.weights, self.num_parts,
                                        self.epsilon, self.config)
        self.metrics.reset(partition.assignment)
        # The repair multipliers describe the abandoned solution — drop
        # them rather than seeding future repairs from a stale state.
        self._warm.clear()
        moved = int(np.count_nonzero(partition.assignment != previous))
        return self._report(mode, damage,
                            self.full_recompute_iterations + extra_iterations,
                            0, 0, moved, start)

    # ------------------------------------------------------------------ #
    def _repair(self, canonical: UpdateBatch, damage: DamageScore,
                start: float) -> RepairReport:
        config = self.config
        snapshot = self.dynamic.snapshot()
        weights = self.dynamic.weights
        free_mask = expand_hops(self.dynamic.indptr, self.dynamic.indices,
                                canonical.touched_vertices(),
                                config.repartition_hops, snapshot.num_vertices)
        freed = int(np.count_nonzero(free_mask))
        if freed == 0:
            return self._report("noop", damage, 0, 0, 0, 0, start)

        # The identical split recursive_bisection applies, so repaired and
        # recomputed partitions answer to the same per-level bands.
        _, eps_level = per_level_epsilon(self.num_parts, self.epsilon)
        node_config = repair_config(config)
        previous = self.metrics.assignment
        working = previous.copy()
        total_iterations = 0
        tasks_run = 0

        frontier = [_TreeNode(vertex_ids=np.arange(snapshot.num_vertices),
                              num_parts=self.num_parts, first_part=0, depth=0)]
        with BisectionExecutor.from_execution(config.execution) as executor:
            while frontier:
                pending: list[_TreeNode] = []
                for node in frontier:
                    if node.vertex_ids.size == 0:
                        continue
                    if node.num_parts == 1:
                        working[node.vertex_ids] = node.first_part
                        continue
                    if not free_mask[node.vertex_ids].any():
                        # No released vertex anywhere below this node:
                        # the whole subtree keeps its previous parts.
                        continue
                    pending.append(node)
                if not pending:
                    break

                extracted = snapshot.subgraphs(
                    [node.vertex_ids for node in pending])
                tasks = []
                for node, (subgraph, mapping) in zip(pending, extracted):
                    left_parts = (node.num_parts + 1) // 2
                    sides = np.where(
                        working[mapping] < node.first_part + left_parts, 1.0, -1.0)
                    tasks.append(_RepairTask(
                        subgraph=subgraph,
                        weights=weights[:, mapping],
                        epsilon=eps_level,
                        config=node_config.with_updates(
                            seed=task_seed(config.seed, node.depth,
                                           node.first_part)),
                        target_fraction=left_parts / node.num_parts,
                        initial_x=sides,
                        initial_fixed=~free_mask[mapping],
                        warm_lambdas=self._warm.get(
                            (node.depth, node.first_part)),
                    ))
                outcomes = executor.map(_run_repair_task, tasks)

                children: list[_TreeNode] = []
                for node, (_, mapping), outcome in zip(pending, extracted,
                                                       outcomes):
                    total_iterations += outcome.iterations
                    tasks_run += 1
                    if outcome.warm_lambdas:
                        coordinate = (node.depth, node.first_part)
                        self._warm[coordinate] = outcome.warm_lambdas
                    left_parts = (node.num_parts + 1) // 2
                    children.append(_TreeNode(
                        vertex_ids=mapping[outcome.sides > 0],
                        num_parts=left_parts,
                        first_part=node.first_part,
                        depth=node.depth + 1))
                    children.append(_TreeNode(
                        vertex_ids=mapping[outcome.sides < 0],
                        num_parts=node.num_parts - left_parts,
                        first_part=node.first_part + left_parts,
                        depth=node.depth + 1))
                frontier = children

        moved_ids = np.flatnonzero(working != previous)
        if moved_ids.size:
            self.metrics.move(moved_ids, working[moved_ids])
        if not self.metrics.is_epsilon_balanced(self.epsilon):
            # The released set could not carry the partition back into the
            # ε band — the damage score under-estimated the batch.  Rather
            # than serve an out-of-band partition (or wait for the next
            # batch's damage feedback), escalate to the full solve now;
            # its iterations are charged on top of the wasted repair.
            return self._recompute(damage, start, mode="escalated",
                                   extra_iterations=total_iterations)
        return self._report("repair", damage, total_iterations, freed,
                            tasks_run, int(moved_ids.size), start)
