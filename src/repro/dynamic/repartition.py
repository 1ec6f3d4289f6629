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
   assignment* with the wave scheduler of
   :func:`repro.core.recursive_bisection` itself
   (:func:`repro.core.recursive.walk_tree`: the same ⌈log₂ k⌉-level
   shape, groups split ``⌈k'/2⌉ / ⌊k'/2⌋`` by part id).  Subtrees
   containing no released vertex are skipped outright; each remaining
   node runs a short GD pass on its free vertices
   (:mod:`repro.core.compaction`) warm-started from the previous sides
   — the released vertices start at their old ±1 values and the frozen
   ones enter as the free-vertex system's boundary term.  The
   bisection's greedy balance repair is confined to the released
   vertices, so frozen vertices provably keep their part.
3. **Fall back to full recursive GD** when the damage exceeds
   :attr:`GDConfig.repartition_damage_threshold` — heavy churn
   invalidates the locality structure the warm start relies on, and the
   full solve is the quality anchor.

Repair waves are the one-shot scheduler's waves: the same task record,
task function (:func:`~repro.core.recursive.solve_task`) and
:class:`~repro.core.executor.BisectionExecutor` path (on ``shm``, one
shared-memory arena per repair walk that also carries the starting
assignment and the free mask), with per-task seeds keyed by the node's
recursion-tree coordinate, so repaired assignments are **bit-identical**
across the ``serial`` and ``shm`` backends.

A repartitioner keeps no solver state between batches: a repair depends
only on the live graph, the weights, the current assignment, the batch
and the config.  So a repartitioner rebuilt from a stored snapshot and
assignment (a restarted ``serve``, say) repairs every later batch exactly
as a long-running one does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.checkpoint import TaskState
from ..core.config import GDConfig
from ..core.executor import BisectionExecutor
from ..core.recursive import per_level_epsilon, recursive_bisection, walk_tree
from ..graphs.graph import row_positions
from ..partition.partition import Partition
from ..partition.validation import validate_epsilon, validate_num_parts
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
                               fixing_start_fraction=0.0)


def expand_hops(indptr: np.ndarray, indices: np.ndarray, seeds: np.ndarray,
                hops: int, num_vertices: int) -> np.ndarray:
    """Boolean mask of vertices within ``hops`` hops of ``seeds``.

    ``hops = 0`` releases the seeds only.  Frontier BFS over the CSR: each
    hop gathers its frontier's rows at once
    (:func:`~repro.graphs.graph.row_positions`) and marks the vertices it
    reaches first in a boolean mask, so a hop costs O(n) plus its
    frontier rows' edges, and each vertex is expanded at most once.
    """
    mask = np.zeros(num_vertices, dtype=bool)
    frontier = np.asarray(seeds, dtype=np.int64)
    mask[frontier] = True
    for _ in range(hops):
        if frontier.size == 0:
            break
        positions, _ = row_positions(indptr, frontier)
        fresh = np.zeros(num_vertices, dtype=bool)
        fresh[indices[positions]] = True
        fresh &= ~mask
        mask |= fresh
        frontier = np.flatnonzero(fresh)
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
        tolerance in (0, 1], split across recursion levels exactly as the
        one-shot scheduler splits it.  Both are checked here, before any
        batch is absorbed.
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
        self.epsilon = validate_epsilon(epsilon)
        self.num_parts = validate_num_parts(num_parts, dynamic.num_vertices)
        self.metrics = IncrementalMetrics(dynamic, assignment, num_parts)

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
        repair failures: whatever damaged assignment the failed repairs
        left behind, a from-scratch recursive solve of the *current*
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
        moved = int(np.count_nonzero(partition.assignment != previous))
        return self._report(mode, damage,
                            self.full_recompute_iterations + extra_iterations,
                            0, 0, moved, start)

    # ------------------------------------------------------------------ #
    def _repair(self, canonical: UpdateBatch, damage: DamageScore,
                start: float) -> RepairReport:
        config = self.config
        snapshot = self.dynamic.snapshot()
        free = expand_hops(self.dynamic.indptr, self.dynamic.indices,
                           canonical.touched_vertices(), config.repartition_hops,
                           snapshot.num_vertices)
        freed = int(np.count_nonzero(free))
        if freed == 0:
            return self._report("noop", damage, 0, 0, 0, 0, start)

        # The identical split recursive_bisection applies, so repaired and
        # recomputed partitions answer to the same per-level bands.
        _, eps_level = per_level_epsilon(self.num_parts, self.epsilon)
        previous = self.metrics.assignment
        working = previous.copy()
        root = TaskState(vertex_ids=np.arange(snapshot.num_vertices),
                         num_parts=self.num_parts, first_part=0, depth=0)
        with BisectionExecutor(config.execution) as executor:
            tasks = walk_tree(snapshot, self.dynamic.weights, working, [root], eps_level,
                              repair_config(config), executor, free=free)
        # Every task that runs holds a free vertex, so it uses its whole budget.
        iterations = tasks * config.repartition_iterations

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
                                   extra_iterations=iterations)
        return self._report("repair", damage, iterations, freed, tasks,
                            int(moved_ids.size), start)
