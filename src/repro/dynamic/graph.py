"""Mutable graph state under edge churn: batched updates on a live CSR.

The partitioners in this package operate on the immutable
:class:`~repro.graphs.graph.Graph`, which is the right contract for a
one-shot solve but the wrong one for the workloads the paper targets:
social-graph serving churns continuously, and re-canonicalizing the whole
edge list per update batch costs O(m log m) regardless of how small the
batch is.  :class:`DynamicGraph` is the update layer underneath the
incremental repartitioner (:mod:`repro.dynamic.repartition`): it owns the
CSR adjacency and the vertex weight matrix, and nothing else — no edge
list and no edge-key array beside the CSR.  It applies an
:class:`UpdateBatch` for one copy per array plus work that grows with the
batch and the touched rows' entries, never a re-sort and never a numpy
call per touched vertex —

* the touched CSR rows are gathered once
  (:func:`~repro.graphs.graph.row_positions`) and their entries keyed in
  the canonical row order (:func:`_row_order_keys`);
* membership is checked on those gathered rows: each inserted or deleted
  entry is looked up by a binary search of its key among them, which
  also locates every deleted entry and places every inserted one;
* the CSR ``indices`` are copied once, by one masked copy that drops the
  deleted entries and places the inserted ones, and ``indptr`` once;
* vertex-weight deltas are scattered into the touched columns only.

Snapshot parity contract
------------------------
:meth:`DynamicGraph.snapshot` returns a :class:`Graph` that is
**bit-identical** to ``Graph.from_edges(n, current_edge_set)`` — the
exact CSR layout ``from_edges`` would produce, and so the same canonical
edge array once derived: the row order stated in the
:class:`~repro.graphs.graph.Graph` docstring (all neighbors > r
ascending, then all neighbors < r ascending), which the splice keeps by
placing every inserted entry by its key in that order, and on which wave
extraction (:meth:`Graph.subgraphs`) relies.  Everything downstream — metrics, GD repair,
full recompute — therefore behaves as if the graph had been rebuilt from
scratch, which is what makes the incremental path testable against the
from-scratch one.

Snapshots share the live arrays: :meth:`apply` always *replaces* the
internal arrays instead of mutating them, so a previously returned
snapshot keeps describing the pre-update graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import Graph, _canonicalize_edges, in_sorted, row_positions
from ..partition.validation import validate_weights

__all__ = ["DynamicGraph", "UpdateBatch", "degree_weight_deltas"]


def _as_edge_array(edges) -> np.ndarray:
    if edges is None:
        return np.empty((0, 2), dtype=np.int64)
    array = np.asarray(edges, dtype=np.int64)
    if array.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError("edge updates must form an (m, 2) array of vertex pairs")
    return array


def _row_order_keys(rows: np.ndarray, targets: np.ndarray, n: int) -> np.ndarray:
    """Sort keys of CSR entries in the canonical row order.

    Row ``r`` lists its neighbours > ``r`` ascending, then its neighbours
    < ``r`` ascending; ``(v - r - 1) mod n`` increases along that order,
    so ``r·n + (v - r - 1) mod n`` orders entries by row, then by their
    place in the row, and stays below ``n²``.
    """
    return rows * np.int64(n) + (targets - rows - 1) % n


def _splice(array: np.ndarray, delete_at: np.ndarray, insert_at: np.ndarray,
            values: np.ndarray) -> np.ndarray:
    """A copy of the 1-D ``array`` without its entries at ``delete_at``,
    and with ``values`` placed before its entries at ``insert_at``.

    Both position arrays index ``array`` and ascend (``insert_at`` may
    repeat; equal positions keep the order of ``values``; a position of
    ``array.size`` appends).  The kept entries move in one masked copy.
    """
    size = array.size - delete_at.size + insert_at.size
    slots = insert_at - np.searchsorted(delete_at, insert_at) + np.arange(insert_at.size)
    out = np.empty(size, dtype=array.dtype)
    out[slots] = values
    old = np.ones(array.size, dtype=bool)
    old[delete_at] = False
    kept = np.ones(size, dtype=bool)
    kept[slots] = False
    out[kept] = array[old]
    return out


@dataclass(frozen=True)
class UpdateBatch:
    """One batch of graph updates: edge churn plus vertex-weight deltas.

    Attributes
    ----------
    insertions, deletions:
        ``(m, 2)`` arrays of undirected edges to add / remove.  Orientation
        does not matter; self loops and duplicates within the batch are
        dropped when the batch is applied.
    weight_vertices:
        Vertex ids whose balance weights change.
    weight_deltas:
        ``(d, t)`` additive deltas, one column per entry of
        ``weight_vertices`` (``d`` must match the graph's weight matrix at
        apply time).  Duplicate vertex ids accumulate.
    """

    insertions: np.ndarray = field(default=None, repr=False)
    deletions: np.ndarray = field(default=None, repr=False)
    weight_vertices: np.ndarray = field(default=None, repr=False)
    weight_deltas: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "insertions", _as_edge_array(self.insertions))
        object.__setattr__(self, "deletions", _as_edge_array(self.deletions))
        vertices = (np.empty(0, dtype=np.int64) if self.weight_vertices is None
                    else np.asarray(self.weight_vertices, dtype=np.int64).ravel())
        deltas = (np.empty((0, vertices.size)) if self.weight_deltas is None
                  else np.atleast_2d(np.asarray(self.weight_deltas, dtype=np.float64)))
        if deltas.shape[1] != vertices.size:
            raise ValueError("weight_deltas must have one column per weight vertex")
        if vertices.size and self.weight_deltas is None:
            raise ValueError("weight_vertices given without weight_deltas")
        object.__setattr__(self, "weight_vertices", vertices)
        object.__setattr__(self, "weight_deltas", deltas)

    @property
    def is_empty(self) -> bool:
        return (self.insertions.size == 0 and self.deletions.size == 0
                and self.weight_vertices.size == 0)

    @property
    def num_edge_changes(self) -> int:
        """Inserted plus deleted edge count (after batch canonicalization
        when read off the batch :meth:`DynamicGraph.apply` returns)."""
        return int(self.insertions.shape[0] + self.deletions.shape[0])

    def touched_vertices(self) -> np.ndarray:
        """Unique vertex ids incident to any update in the batch."""
        return np.unique(np.concatenate([
            self.insertions.ravel(), self.deletions.ravel(), self.weight_vertices]))


def degree_weight_deltas(dynamic: "DynamicGraph", insertions: np.ndarray,
                         deletions: np.ndarray,
                         floor: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Weight deltas that keep a unit+degree weight matrix in sync.

    The standard d = 2 stack balances vertex counts and degrees; edge
    churn changes the degrees, so callers that replay churn feed the
    weight dimension its own updates through the batch's delta channel
    (dimension 0, the unit weights, never changes).  The floored degree
    weight (:func:`repro.graphs.weights.degree_weights`) is reproduced
    exactly: the delta moves a vertex from ``max(old_degree, floor)`` to
    ``max(new_degree, floor)``.

    Used by :mod:`repro.experiments.churn_replay` and by the serving
    layer (:mod:`repro.serve`), which generates churn against its own
    live graph.
    """
    n = dynamic.num_vertices
    degree_delta = np.zeros(n, dtype=np.float64)
    for edges, sign in ((insertions, 1.0), (deletions, -1.0)):
        if edges.size:
            np.add.at(degree_delta, edges.ravel(), sign)
    vertices = np.flatnonzero(degree_delta)
    if vertices.size == 0:
        return np.empty(0, dtype=np.int64), np.empty((dynamic.num_dimensions, 0))
    current = dynamic.weights[1, vertices]
    # Recover the true degree from the floored weight (degrees >= 1 pass
    # through the floor untouched; an isolated vertex sits at the floor).
    old_degree = np.where(current <= floor, 0.0, current)
    new_weight = np.maximum(old_degree + degree_delta[vertices], floor)
    deltas = np.zeros((dynamic.num_dimensions, vertices.size))
    deltas[1] = new_weight - current
    return vertices, deltas


class DynamicGraph:
    """A graph plus weight matrix that absorbs :class:`UpdateBatch` es.

    Parameters
    ----------
    graph:
        Initial topology (its arrays are shared, never mutated).
    weights:
        ``(d, n)`` (or ``(n,)``) strictly positive weight matrix; copied.
    """

    def __init__(self, graph: Graph, weights: np.ndarray):
        self._num_vertices = graph.num_vertices
        self._indptr = graph.indptr
        self._indices = graph.indices
        self._weights = validate_weights(graph, weights).copy()
        self._snapshot: Graph | None = graph

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return self._indices.size // 2

    @property
    def num_dimensions(self) -> int:
        return int(self._weights.shape[0])

    @property
    def weights(self) -> np.ndarray:
        """The live ``(d, n)`` weight matrix (treat as read-only)."""
        return self._weights

    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` is an edge: a scan of ``u``'s CSR row."""
        n = self._num_vertices
        if u == v or not (0 <= u < n and 0 <= v < n):
            return False
        return bool(np.any(self._indices[self._indptr[u]:self._indptr[u + 1]] == v))

    def snapshot(self) -> Graph:
        """The current topology as an immutable :class:`Graph`.

        Bit-identical to ``Graph.from_edges`` over the current edge set
        (see the module docstring); cached until the next :meth:`apply`.
        """
        if self._snapshot is None:
            self._snapshot = Graph(num_vertices=self._num_vertices, indptr=self._indptr,
                                   indices=self._indices)
        return self._snapshot

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def apply(self, batch: UpdateBatch) -> UpdateBatch:
        """Apply one update batch; returns the *canonicalized* batch.

        The returned batch carries the deduplicated, ``u < v``-oriented
        edge arrays that actually took effect — the form the incremental
        metrics consume.  Raises :class:`ValueError` on conflicting
        updates: inserting an edge that already exists, deleting one that
        does not, or inserting and deleting the same edge in one batch.
        Weight deltas must keep every touched weight strictly positive.
        """
        n = self._num_vertices
        insertions = _canonicalize_edges(batch.insertions, n)
        deletions = _canonicalize_edges(batch.deletions, n)
        scale = np.int64(max(n, 1))
        if np.intersect1d(insertions[:, 0] * scale + insertions[:, 1],
                          deletions[:, 0] * scale + deletions[:, 1]).size:
            raise ValueError("an edge cannot be both inserted and deleted in one batch")

        delete_at, insert_at, inserted_targets = self._locate(insertions, deletions)

        # Validate (and stage) the weight deltas BEFORE splicing the edges:
        # apply must be atomic — a rejected batch leaves neither half
        # applied, so a caller that catches the ValueError still holds a
        # consistent graph/metrics pair and can re-submit a corrected batch.
        updated_weights = (self._staged_weights(batch.weight_vertices,
                                                batch.weight_deltas)
                           if batch.weight_vertices.size else None)

        if insertions.size or deletions.size:
            self._indices = _splice(self._indices, delete_at, insert_at, inserted_targets)
            degree_delta = (np.bincount(insertions.ravel(), minlength=n)
                            - np.bincount(deletions.ravel(), minlength=n))
            indptr = self._indptr.copy()
            indptr[1:] += np.cumsum(degree_delta)
            self._indptr = indptr
            self._snapshot = None
        if updated_weights is not None:
            self._weights = updated_weights

        return UpdateBatch(insertions=insertions, deletions=deletions,
                           weight_vertices=batch.weight_vertices,
                           weight_deltas=batch.weight_deltas)

    # ------------------------------------------------------------------ #
    def _staged_weights(self, vertices: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """Validate the weight deltas and return the would-be weight matrix
        (the caller commits it only after the rest of the batch succeeds)."""
        if vertices.size and (vertices.min() < 0 or vertices.max() >= self._num_vertices):
            raise ValueError("weight vertex id out of range")
        if deltas.shape[0] != self._weights.shape[0]:
            raise ValueError(
                f"weight deltas have {deltas.shape[0]} dimensions but the graph "
                f"weights have {self._weights.shape[0]}")
        updated = self._weights.copy()
        for dimension in range(deltas.shape[0]):
            np.add.at(updated[dimension], vertices, deltas[dimension])
        touched = updated[:, np.unique(vertices)]
        if not np.all(np.isfinite(touched)) or np.any(touched <= 0):
            raise ValueError("weight deltas must keep every weight strictly positive")
        return updated

    def _locate(self, insertions: np.ndarray, deletions: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where the batch's CSR entries leave and enter ``indices``.

        Each edge is two entries, one in each endpoint's row.  The
        touched rows are gathered once (:func:`row_positions`) and their
        entries keyed in the canonical row order (:func:`_row_order_keys`;
        ascending, as the rows ascend and the keys within a row do).  A
        binary search of each edited entry's key among them checks it
        against the live edges, raising :class:`ValueError` on an insert
        of an existing edge or a delete of a missing one, and places it.

        Returns the deleted entries' positions, ascending, and the
        inserted entries' positions and targets, in key order.
        """
        n = self._num_vertices
        touched = np.unique(np.concatenate([insertions.ravel(), deletions.ravel()]))
        positions, bounds = row_positions(self._indptr, touched)
        row_keys = _row_order_keys(np.repeat(touched, np.diff(bounds)),
                                   self._indices[positions], n)

        rows = np.concatenate([insertions[:, 0], insertions[:, 1]])
        targets = np.concatenate([insertions[:, 1], insertions[:, 0]])
        keys = _row_order_keys(rows, targets, n)
        order = np.argsort(keys)
        rows, targets, keys = rows[order], targets[order], keys[order]
        ranks = np.searchsorted(row_keys, keys)
        if in_sorted(row_keys, keys, ranks).any():
            raise ValueError("cannot insert an edge that already exists")
        deleted_keys = np.sort(np.concatenate([
            _row_order_keys(deletions[:, 0], deletions[:, 1], n),
            _row_order_keys(deletions[:, 1], deletions[:, 0], n)]))
        deleted_ranks = np.searchsorted(row_keys, deleted_keys)
        if not in_sorted(row_keys, deleted_keys, deleted_ranks).all():
            raise ValueError("cannot delete an edge that does not exist")

        # An inserted entry goes before the first entry of its row with a
        # larger key: ``row start + (entries of the row with a smaller key)``.
        insert_at = self._indptr[rows] + ranks - bounds[np.searchsorted(touched, rows)]
        return positions[deleted_ranks], insert_at, targets
