"""Compressed sparse row (CSR) graph representation.

All algorithms in this package operate on :class:`Graph`, an immutable,
undirected graph stored in CSR form.  The representation is chosen to make
the two operations that dominate the projected-gradient-descent algorithm
cheap:

* sparse matrix--vector products with the adjacency matrix (``A @ x``), and
* iteration over the neighborhood of a vertex.

Vertices are integers ``0 .. n-1``.  Parallel edges and self loops are
removed during construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvec as _scipy_csr_matvec

__all__ = ["Graph", "csr_matvec", "in_sorted", "restrict_csr", "row_positions"]

#: Above this share of the vertices kept, :func:`restrict_csr` labels every
#: entry in one pass over ``indices`` instead of gathering the kept rows'
#: entries.  The scan then clears the dropped rows' entries and re-gathers
#: the rows that lost one, which is cheap only while few vertices drop: on
#: ``fb_like(80, 4)`` with a random subset the two cost the same at 95 %
#: kept, and the scan takes half the gather's time at 99.9 %.
_SCAN_FRACTION = 0.95


def _canonicalize_edges(edges: np.ndarray, num_vertices: int) -> np.ndarray:
    """Return a deduplicated ``(m, 2)`` int64 array of undirected edges.

    Self loops are dropped and each edge is stored with its smaller endpoint
    first so that duplicates in either orientation collapse to one entry.
    """
    if edges.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must be an (m, 2) array of vertex pairs")
    if edges.min(initial=0) < 0 or edges.max(initial=-1) >= num_vertices:
        raise ValueError("edge endpoint out of range")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    keys = lo * np.int64(num_vertices) + hi
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    unique_mask = np.empty(keys.shape, dtype=bool)
    unique_mask[0] = True
    unique_mask[1:] = keys[1:] != keys[:-1]
    lo, hi = lo[order][unique_mask], hi[order][unique_mask]
    return np.column_stack([lo, hi])


def row_positions(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the CSR entries of ``rows`` sit in ``indices``, row after row.

    Returns ``(positions, bounds)``: ``indices[positions]`` lists the
    entries of ``rows[0]``, then of ``rows[1]``, and so on, and the
    entries of ``rows[i]`` are ``positions[bounds[i]:bounds[i + 1]]``.
    This is the row gather of :func:`restrict_csr` and of the churn
    bookkeeping in :mod:`repro.dynamic`: a few array passes over the rows
    and their entries, with no per-row numpy call.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    bounds = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    positions = np.repeat(starts - bounds[:-1], lengths)
    positions += np.arange(positions.size)
    return positions, bounds


def in_sorted(sorted_keys: np.ndarray, keys: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Which ``keys`` are in the ascending ``sorted_keys``, given their ranks
    ``np.searchsorted(sorted_keys, keys)``."""
    found = ranks < sorted_keys.size
    found[found] = sorted_keys[ranks[found]] == keys[found]
    return found


def csr_matvec(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
               x: np.ndarray, shape: tuple[int, int],
               out: np.ndarray | None = None) -> np.ndarray:
    """``A @ x`` for the ``shape`` CSR matrix ``(data, indices, indptr)``.

    The C loop that scipy's ``csr_matrix @ x`` ends in, run into a zeroed
    output as scipy runs it, so the result has the same bits: each row
    sums its entries in entry order, starting from +0.0.  Calling it
    directly skips scipy's per-call dispatch, which costs more than the
    loop on a matrix of a few hundred entries.  The loop reads and writes
    what the arrays' lengths say, so those are checked; the entries are
    trusted to form a valid CSR matrix, as scipy trusts a constructed
    matrix.

    ``out``, when given, is the result: the loop adds each row's sum to
    its entry, so a zeroed ``out`` (a block of a larger zeroed buffer,
    say) receives the bits of ``A @ x``.  It must have one entry per row
    and the result's dtype.
    """
    num_rows, num_columns = shape
    if x.shape != (num_columns,) or indptr.shape != (num_rows + 1,):
        raise ValueError(f"dimension mismatch: a {shape} matrix with {indptr.size} row "
                         f"pointers times a vector of shape {x.shape}")
    dtype = np.promote_types(data.dtype, x.dtype)
    if out is None:
        out = np.zeros(num_rows, dtype=dtype)
    elif out.shape != (num_rows,) or out.dtype != dtype:
        raise ValueError(f"out must be a {dtype} vector of length {num_rows}, "
                         f"not {out.dtype} of shape {out.shape}")
    _scipy_csr_matvec(num_rows, num_columns, indptr, indices, data, x, out)
    return out


def restrict_csr(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray,
                 local: np.ndarray, values: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Restrict a unit-weight CSR matrix to a vertex subset.

    ``rows`` lists the subset's vertices in ascending order and ``local``
    maps every vertex to its id in the subset (``local[rows[i]] == i``)
    or to -1 outside it.  Returns ``(sub_indptr, sub_indices,
    contribution)``:

    * the subset's CSR, in ``local``'s dtype: the rows of ``rows``, each
      keeping, in its entry order, the entries whose target is in the
      subset, relabelled through ``local``.  The same arrays as scipy's
      ``A[rows][:, rows]``.
    * given ``values`` (one per vertex), each kept row's sum of
      ``values`` over its dropped targets, ``A[rows][:, dropped] @
      values[dropped]``, summed by :func:`csr_matvec` over the row's
      entries in order with the kept targets' values zeroed: a +0.0 term
      leaves a partial sum that starts at +0.0 unchanged, so the bits
      are scipy's.  ``None`` without ``values``.

    The one CSR row filter of the package: :meth:`Graph.subgraphs`
    extracts recursion waves through it, and
    :class:`~repro.core.compaction.FreeVertexSystem` restricts the
    gradient operator to the free vertices.  Its work follows what it
    keeps: up to ``_SCAN_FRACTION`` of the vertices it gathers the kept
    rows' entries (:func:`row_positions`) and filters them; above that it
    labels all entries in one pass, clears the few dropped rows' entries
    and, for the contribution, gathers only the rows that lost an entry.
    """
    num_vertices = local.size
    if rows.size > _SCAN_FRACTION * num_vertices:
        labels = local[indices]
        labels[row_positions(indptr, (local < 0).nonzero()[0])[0]] = -1
        kept = labels >= 0
        sub_indices = labels[kept]
        # Row i starts after the entries kept before rows[i]'s first one.
        starts = indptr[rows]
        sub_indptr = np.empty(rows.size + 1, dtype=local.dtype)
        np.subtract(starts, (~kept).nonzero()[0].searchsorted(starts),
                    out=sub_indptr[:-1])
        sub_indptr[-1] = sub_indices.size
        if values is None:
            return sub_indptr, sub_indices, None
        # Only a row that lost an entry has a dropped target to sum.
        lost = (np.diff(sub_indptr) < indptr[rows + 1] - starts).nonzero()[0]
        positions, bounds = row_positions(indptr, rows[lost])
        contribution = np.zeros(rows.size)
        contribution[lost] = _dropped_sums(bounds, indices[positions], local, values)
        return sub_indptr, sub_indices, contribution
    positions, bounds = row_positions(indptr, rows)
    targets = indices[positions]
    labels = local[targets]
    kept = (labels >= 0).nonzero()[0]
    sub_indptr = kept.searchsorted(bounds).astype(local.dtype, copy=False)
    contribution = None if values is None else _dropped_sums(bounds, targets, local, values)
    return sub_indptr, labels[kept], contribution


def _dropped_sums(bounds: np.ndarray, targets: np.ndarray, local: np.ndarray,
                  values: np.ndarray) -> np.ndarray:
    """Per gathered row, the sum of ``values`` over its targets outside the
    subset, in entry order (the contribution of :func:`restrict_csr`)."""
    return csr_matvec(bounds.astype(targets.dtype, copy=False), targets,
                      np.ones(targets.size), np.where(local < 0, values, 0.0),
                      (bounds.size - 1, local.size))


@dataclass(frozen=True, eq=False)
class Graph:
    """An undirected graph, stored as its CSR adjacency.

    Attributes
    ----------
    num_vertices:
        Number of vertices ``n``; vertices are ``0 .. n-1``.
    indptr, indices:
        CSR adjacency structure: the neighbors of vertex ``v`` are
        ``indices[indptr[v]:indptr[v + 1]]``; each edge is two entries,
        one in each endpoint's row.

    Every graph this package builds keeps one CSR row order — row ``r``
    lists its neighbors > ``r`` ascending, then its neighbors < ``r``
    ascending — the order :meth:`from_edges` gives, that
    :meth:`repro.dynamic.DynamicGraph.snapshot` reproduces, and that
    :meth:`subgraphs` relies on and keeps.  A graph stores no edge list:
    these three arrays are all it holds until :attr:`edges` is read,
    which derives the list from the CSR (only code that writes edges out
    or simulates them per edge reads it).
    """

    num_vertices: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Sequence[int]] | np.ndarray) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` pairs.

        Duplicate edges (in either orientation) and self loops are ignored.
        The canonical edge array built on the way is dropped once the CSR
        is built: the graph keeps only its CSR.
        """
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                                dtype=np.int64)
        if edge_array.size == 0:
            edge_array = np.empty((0, 2), dtype=np.int64)
        canonical = _canonicalize_edges(edge_array, num_vertices)
        indptr, indices = cls._build_csr(num_vertices, canonical)
        return cls(num_vertices=num_vertices, indptr=indptr, indices=indices)

    @classmethod
    def from_csr(cls, num_vertices: int, indptr: np.ndarray, indices: np.ndarray) -> "Graph":
        """Adopt caller-owned CSR buffers without copying.

        The zero-copy constructor of the shared-memory execution path
        (:mod:`repro.core.shm`) and of :func:`~repro.graphs.io.load_graph_npz`:
        ``indptr``/``indices`` may be views into a shared segment
        (read-only views included — no algorithm in this package writes
        into a graph's arrays) and are stored as-is.  The caller
        guarantees the arrays form a valid CSR graph in the class's row
        order (as produced by :meth:`from_edges` / :meth:`subgraphs`);
        only cheap shape/dtype invariants are checked here.
        """
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        for name, array in (("indptr", indptr), ("indices", indices)):
            if not isinstance(array, np.ndarray) or array.dtype != np.int64:
                raise ValueError(f"{name} must be an int64 numpy array")
        if indptr.shape != (num_vertices + 1,):
            raise ValueError("indptr must have length num_vertices + 1")
        if indices.shape != (int(indptr[-1]),):
            raise ValueError("indices length must match indptr[-1]")
        return cls(num_vertices=num_vertices, indptr=indptr, indices=indices)

    @staticmethod
    def _build_csr(num_vertices: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if edges.size == 0:
            return np.zeros(num_vertices + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
        sources = np.concatenate([edges[:, 0], edges[:, 1]])
        targets = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.argsort(sources, kind="stable")
        sources, targets = sources[order], targets[order]
        counts = np.bincount(sources, minlength=num_vertices)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, targets.astype(np.int64)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @cached_property
    def edges(self) -> np.ndarray:
        """``(m, 2)`` int64 array of the unique undirected edges ``(u, v)``,
        ``u < v``, sorted: the CSR's upper entries (target > row) in CSR
        order, which the row order of the class docstring lists sorted."""
        rows = np.repeat(np.arange(self.num_vertices), np.diff(self.indptr))
        upper = np.flatnonzero(self.indices > rows)
        return np.column_stack([rows[upper], self.indices[upper]])

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.indices.size // 2

    @property
    def degrees(self) -> np.ndarray:
        """Vertex degrees as a float64 array of length ``num_vertices``."""
        return np.diff(self.indptr).astype(np.float64)

    def degree(self, vertex: int) -> int:
        """Degree of a single vertex."""
        return int(self.indptr[vertex + 1] - self.indptr[vertex])

    def neighbors(self, vertex: int) -> np.ndarray:
        """Neighbors of ``vertex`` as an int64 array."""
        return self.indices[self.indptr[vertex]:self.indptr[vertex + 1]]

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over undirected edges as ``(u, v)`` tuples with ``u < v``."""
        for u, v in self.edges:
            yield int(u), int(v)

    def __len__(self) -> int:
        return self.num_vertices

    def __eq__(self, other: object) -> bool:
        """Same vertex count and CSR.  Every graph keeps one row order, so
        equal edge sets give equal CSRs.  A graph is unhashable."""
        if not isinstance(other, Graph):
            return NotImplemented
        return self is other or (self.num_vertices == other.num_vertices
                                 and np.array_equal(self.indptr, other.indptr)
                                 and np.array_equal(self.indices, other.indices))

    # ------------------------------------------------------------------ #
    # Linear algebra views
    # ------------------------------------------------------------------ #
    def adjacency_matrix(self, dtype=np.float64) -> sparse.csr_matrix:
        """Return the symmetric adjacency matrix as a scipy CSR matrix."""
        n = self.num_vertices
        data = np.ones(len(self.indices), dtype=dtype)
        return sparse.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def subgraph(self, vertices: np.ndarray | Sequence[int]) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``, as a remapped CSR graph.

        Returns the subgraph and an array mapping new vertex ids to the
        original ids (``original_id = mapping[new_id]``); the mapping is
        the sorted set of ``vertices``.  Shorthand for
        ``self.subgraphs([vertices])[0]``.
        """
        return self.subgraphs([vertices])[0]

    def subgraphs(self, vertex_sets: Sequence[np.ndarray | Sequence[int]]
                  ) -> list[tuple["Graph", np.ndarray]]:
        """Induced subgraphs of several pairwise-disjoint vertex sets.

        Returns one ``(subgraph, mapping)`` pair per set, as :meth:`subgraph`
        does; this is the wave extraction of the recursive-bisection
        scheduler.  A mapping is its sorted set (a strictly increasing input
        is used as is), so the relabelling is monotone and a subgraph's CSR
        is a *row filter* of this graph's in the row order of the class
        docstring (:func:`restrict_csr`): the set's rows, keeping the
        entries whose target is in the set.  No sort runs, no edge list is
        built (a subgraph derives :attr:`edges` only if it is read), and the
        arrays equal :meth:`from_edges` on the induced edges.  A set of
        every vertex returns this graph itself.

        Raises :class:`ValueError` if the sets overlap or contain invalid
        vertex ids.
        """
        n = self.num_vertices
        taken = np.zeros(n, dtype=bool)
        # The current set's relabelling, -1 outside it: each set writes
        # its own ids and clears them again, O(set) per set.
        local = np.full(n, -1, dtype=np.int64)
        results: list[tuple[Graph, np.ndarray]] = []
        for ids in vertex_sets:
            ids = np.asarray(ids, dtype=np.int64).ravel()
            if ids.size > 1 and not np.all(ids[1:] > ids[:-1]):
                ids = np.unique(ids)
            if ids.size and (ids[0] < 0 or ids[-1] >= n):
                raise ValueError("vertex id out of range")
            if taken[ids].any():
                raise ValueError("vertex sets must be pairwise disjoint")
            taken[ids] = True
            if ids.size == n:
                # Sorted, in range and n long: every vertex, so no copy.
                results.append((self, ids))
                continue
            local[ids] = np.arange(ids.size)
            indptr, indices, _ = restrict_csr(self.indptr, self.indices, ids, local)
            local[ids] = -1
            results.append((Graph(num_vertices=int(ids.size), indptr=indptr,
                                  indices=indices), ids))
        return results

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (for interop and testing)."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(self.num_vertices))
        nx_graph.add_edges_from(self.iter_edges())
        return nx_graph

    @classmethod
    def from_networkx(cls, nx_graph) -> "Graph":
        """Build a :class:`Graph` from a networkx graph with integer-like nodes.

        Nodes are relabelled to ``0 .. n-1`` in sorted order.
        """
        nodes = sorted(nx_graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in nx_graph.edges()]
        return cls.from_edges(len(nodes), edges)
