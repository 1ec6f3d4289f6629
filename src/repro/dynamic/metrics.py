"""Partition quality under churn, maintained without full recomputation.

:mod:`repro.partition.metrics` recomputes cut, locality and per-dimension
balance from scratch — O(m + n·d) per call.  Under a stream of update
batches that cost dominates everything else the incremental repartitioner
does, so :class:`IncrementalMetrics` maintains the same quantities as
running sums:

* **edge churn** — an inserted edge adjusts the cut iff its endpoints lie
  in different parts; a deleted edge reverses that (O(batch));
* **weight deltas** — scatter-added into the owning part's totals
  (O(batch · d));
* **repair moves** — when the repartitioner reassigns vertices, the cut is
  corrected by re-scoring only the edges at a vertex whose part changed,
  read off those vertices' CSR rows in one gather (each edge counted
  once, from its lower endpoint's row when both endpoints changed), and
  the part weights by two scatter passes (O(moved-degree sum · d)).

The tracker reads the live graph through its CSR alone: a from-scratch
cut (:meth:`IncrementalMetrics.reset`) counts the crossing CSR entries,
as :func:`repro.partition.metrics.cut_size` does.

Every derived number (locality %, per-dimension imbalance, ε-balance)
matches :mod:`repro.partition.metrics` on the current snapshot exactly —
the running sums are integers (cut) and float additions over the same
values, and the parity is enforced by a hypothesis property test
(``tests/test_dynamic.py``).
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import row_positions
from ..partition.metrics import cut_size
from ..partition.partition import Partition
from .graph import DynamicGraph, UpdateBatch

__all__ = ["IncrementalMetrics"]


class IncrementalMetrics:
    """Running cut / balance tracker for a partitioned :class:`DynamicGraph`.

    The tracker observes the graph through two entry points that mirror
    the two ways state changes: :meth:`apply_batch` for graph updates
    (call it with the canonicalized batch :meth:`DynamicGraph.apply`
    returns, *after* applying it) and :meth:`move` for assignment changes
    made by the repartitioner.
    """

    def __init__(self, dynamic: DynamicGraph, assignment: np.ndarray, num_parts: int):
        self._dynamic = dynamic
        assignment = np.asarray(assignment, dtype=np.int64).copy()
        if assignment.shape != (dynamic.num_vertices,):
            raise ValueError("assignment must have one entry per vertex")
        if num_parts < 1:
            raise ValueError("num_parts must be positive")
        if assignment.size and (assignment.min() < 0 or assignment.max() >= num_parts):
            raise ValueError("assignment contains part ids outside 0..num_parts-1")
        self._assignment = assignment
        self._num_parts = int(num_parts)
        self._recompute()

    def _recompute(self) -> None:
        assignment = self._assignment
        self._cut = cut_size(Partition(graph=self._dynamic.snapshot(), assignment=assignment,
                                       num_parts=self._num_parts))
        self._part_weights = np.vstack([
            np.bincount(assignment, weights=row, minlength=self._num_parts)
            for row in self._dynamic.weights])

    # ------------------------------------------------------------------ #
    # State transitions
    # ------------------------------------------------------------------ #
    def apply_batch(self, batch: UpdateBatch) -> None:
        """Absorb a (canonicalized) update batch already applied to the graph."""
        assignment = self._assignment
        if batch.insertions.size:
            self._cut += int(np.count_nonzero(
                assignment[batch.insertions[:, 0]] != assignment[batch.insertions[:, 1]]))
        if batch.deletions.size:
            self._cut -= int(np.count_nonzero(
                assignment[batch.deletions[:, 0]] != assignment[batch.deletions[:, 1]]))
        if batch.weight_vertices.size:
            parts = assignment[batch.weight_vertices]
            for dimension in range(self._part_weights.shape[0]):
                np.add.at(self._part_weights[dimension], parts,
                          batch.weight_deltas[dimension])

    def move(self, vertices: np.ndarray, new_parts: np.ndarray) -> None:
        """Reassign ``vertices`` (unique ids) to ``new_parts``.

        The cut correction re-scores exactly the edges at a vertex whose
        part changes: one gather of those vertices' CSR rows, in which an
        edge between two of them is counted from its lower endpoint's row
        only.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        new_parts = np.asarray(new_parts, dtype=np.int64)
        if vertices.size == 0:
            return
        if new_parts.shape != vertices.shape:
            raise ValueError("new_parts must align with vertices")
        if new_parts.min() < 0 or new_parts.max() >= self._num_parts:
            raise ValueError("new part id out of range")
        assignment = self._assignment
        updated = assignment.copy()
        updated[vertices] = new_parts

        changed = vertices[new_parts != assignment[vertices]]
        positions, bounds = row_positions(self._dynamic.indptr, changed)
        targets = self._dynamic.indices[positions]
        sources = np.repeat(changed, np.diff(bounds))
        once = (updated[targets] == assignment[targets]) | (sources < targets)
        sources, targets = sources[once], targets[once]
        self._cut += int(np.count_nonzero(updated[sources] != updated[targets])
                         - np.count_nonzero(assignment[sources] != assignment[targets]))

        weights = self._dynamic.weights
        old_parts = assignment[vertices]
        for dimension in range(self._part_weights.shape[0]):
            moved_weights = weights[dimension, vertices]
            np.add.at(self._part_weights[dimension], old_parts, -moved_weights)
            np.add.at(self._part_weights[dimension], new_parts, moved_weights)
        self._assignment = updated

    def reset(self, assignment: np.ndarray) -> None:
        """Replace the tracked assignment (after a full recompute) and
        rebuild the running sums from scratch."""
        assignment = np.asarray(assignment, dtype=np.int64).copy()
        if assignment.shape != (self._dynamic.num_vertices,):
            raise ValueError("assignment must have one entry per vertex")
        self._assignment = assignment
        self._recompute()

    # ------------------------------------------------------------------ #
    # Derived metrics (same definitions as repro.partition.metrics)
    # ------------------------------------------------------------------ #
    @property
    def num_parts(self) -> int:
        return self._num_parts

    @property
    def assignment(self) -> np.ndarray:
        """The tracked assignment (a copy)."""
        return self._assignment.copy()

    @property
    def cut_size(self) -> int:
        return self._cut

    @property
    def num_edges(self) -> int:
        return self._dynamic.num_edges

    @property
    def edge_locality_pct(self) -> float:
        total = self._dynamic.num_edges
        if total == 0:
            return 100.0
        return 100.0 * (total - self._cut) / total

    @property
    def part_weights(self) -> np.ndarray:
        """Per-dimension per-part weight totals, shape ``(d, k)`` (a copy)."""
        return self._part_weights.copy()

    def imbalance(self) -> np.ndarray:
        """Per-dimension ``max_i w(V_i) / avg_i w(V_i) − 1``."""
        averages = self._part_weights.mean(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(averages > 0,
                            self._part_weights.max(axis=1) / averages - 1.0, 0.0)

    def max_imbalance(self) -> float:
        values = self.imbalance()
        return float(values.max()) if values.size else 0.0

    def is_epsilon_balanced(self, epsilon: float) -> bool:
        """The MDBGP constraint: every part within ``(1 ± ε) · W_j / k``."""
        totals = self._part_weights.sum(axis=1, keepdims=True)
        targets = totals / self._num_parts
        lower = (1.0 - epsilon) * targets
        upper = (1.0 + epsilon) * targets
        return bool(np.all((self._part_weights >= lower - 1e-9)
                           & (self._part_weights <= upper + 1e-9)))

    def partition(self) -> Partition:
        """The tracked state as an immutable :class:`Partition` snapshot."""
        return Partition(graph=self._dynamic.snapshot(),
                         assignment=self._assignment.copy(),
                         num_parts=self._num_parts)
