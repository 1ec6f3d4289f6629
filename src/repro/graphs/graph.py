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
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

__all__ = ["Graph"]


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


@dataclass(frozen=True)
class Graph:
    """An undirected graph in CSR form.

    Attributes
    ----------
    num_vertices:
        Number of vertices ``n``; vertices are ``0 .. n-1``.
    edges:
        ``(m, 2)`` array of unique undirected edges with ``u < v``.
    indptr, indices:
        CSR adjacency structure: the neighbors of vertex ``v`` are
        ``indices[indptr[v]:indptr[v + 1]]``.
    """

    num_vertices: int
    edges: np.ndarray
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Sequence[int]] | np.ndarray) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` pairs.

        Duplicate edges (in either orientation) and self loops are ignored.
        """
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                                dtype=np.int64)
        if edge_array.size == 0:
            edge_array = np.empty((0, 2), dtype=np.int64)
        canonical = _canonicalize_edges(edge_array, num_vertices)
        indptr, indices = cls._build_csr(num_vertices, canonical)
        return cls(num_vertices=num_vertices, edges=canonical, indptr=indptr, indices=indices)

    @classmethod
    def from_csr(cls, num_vertices: int, edges: np.ndarray, indptr: np.ndarray,
                 indices: np.ndarray) -> "Graph":
        """Adopt caller-owned CSR buffers without copying.

        The zero-copy constructor of the shared-memory execution path
        (:mod:`repro.core.shm`): ``edges``/``indptr``/``indices`` may be
        views into a shared segment (read-only views included — no
        algorithm in this package writes into a graph's arrays) and are
        stored as-is.  The caller guarantees the arrays form a valid
        canonical CSR graph (as produced by :meth:`from_edges` /
        :meth:`subgraph`); only cheap shape/dtype invariants are checked
        here.
        """
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        for name, array, dtype in (("edges", edges, np.int64),
                                   ("indptr", indptr, np.int64),
                                   ("indices", indices, np.int64)):
            if not isinstance(array, np.ndarray) or array.dtype != dtype:
                raise ValueError(f"{name} must be an int64 numpy array")
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) array")
        if indptr.shape != (num_vertices + 1,):
            raise ValueError("indptr must have length num_vertices + 1")
        if indices.shape != (int(indptr[-1]) if indptr.size else 0,):
            raise ValueError("indices length must match indptr[-1]")
        return cls(num_vertices=num_vertices, edges=edges,
                   indptr=indptr, indices=indices)

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
    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.edges.shape[0])

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
        original ids (``original_id = mapping[new_id]``).  The mapping is
        sorted ascending, so the relabelling is monotone: the stored edges
        are already canonical (unique, ``u < v``) and remain so after
        remapping, which lets the CSR structure be rebuilt directly without
        re-deduplicating.  This is the hot path of the parallel recursive
        bisection scheduler, which extracts one induced subgraph per node of
        the recursion tree.
        """
        vertex_ids = np.unique(np.asarray(vertices, dtype=np.int64))
        if vertex_ids.size and (vertex_ids[0] < 0 or vertex_ids[-1] >= self.num_vertices):
            raise ValueError("vertex id out of range")
        new_id = np.full(self.num_vertices, -1, dtype=np.int64)
        new_id[vertex_ids] = np.arange(vertex_ids.size)
        if self.num_edges:
            src_new = new_id[self.edges[:, 0]]
            dst_new = new_id[self.edges[:, 1]]
            keep = (src_new >= 0) & (dst_new >= 0)
            sub_edges = np.column_stack([src_new[keep], dst_new[keep]])
        else:
            sub_edges = np.empty((0, 2), dtype=np.int64)
        indptr, indices = self._build_csr(vertex_ids.size, sub_edges)
        sub = Graph(num_vertices=int(vertex_ids.size), edges=sub_edges,
                    indptr=indptr, indices=indices)
        return sub, vertex_ids

    def subgraphs(self, vertex_sets: Sequence[np.ndarray | Sequence[int]]
                  ) -> list[tuple["Graph", np.ndarray]]:
        """Induced subgraphs of several pairwise-disjoint vertex sets.

        Equivalent to ``[self.subgraph(s) for s in vertex_sets]`` — the same
        graphs and the same sorted mappings — but the edge list is scanned
        once for the whole collection instead of once per set.  This is the
        wave-extraction path of the recursive-bisection scheduler: every
        level of the recursion tree is a frontier of tasks on disjoint
        vertex sets, and all of their subgraphs are materialized here in one
        pass regardless of the execution backend.

        Raises :class:`ValueError` if the sets overlap or contain invalid
        vertex ids.
        """
        mappings = [np.unique(np.asarray(ids, dtype=np.int64)) for ids in vertex_sets]
        owner = np.full(self.num_vertices, -1, dtype=np.int64)
        local_id = np.zeros(self.num_vertices, dtype=np.int64)
        for index, mapping in enumerate(mappings):
            if mapping.size and (mapping[0] < 0 or mapping[-1] >= self.num_vertices):
                raise ValueError("vertex id out of range")
            if np.any(owner[mapping] != -1):
                raise ValueError("vertex sets must be pairwise disjoint")
            owner[mapping] = index
            local_id[mapping] = np.arange(mapping.size)

        per_set_edges: list[np.ndarray] = [np.empty((0, 2), dtype=np.int64)
                                           for _ in mappings]
        if self.num_edges and mappings:
            src_owner = owner[self.edges[:, 0]]
            # An edge is induced iff both endpoints share a (non-negative)
            # owner; sets are disjoint, so comparing owners suffices.
            keep = (src_owner >= 0) & (src_owner == owner[self.edges[:, 1]])
            kept_owner = src_owner[keep]
            kept_edges = np.column_stack([local_id[self.edges[keep, 0]],
                                          local_id[self.edges[keep, 1]]])
            # Stable grouping preserves each set's original edge order, so
            # the per-set edge arrays match what Graph.subgraph would build.
            order = np.argsort(kept_owner, kind="stable")
            kept_owner, kept_edges = kept_owner[order], kept_edges[order]
            boundaries = np.searchsorted(kept_owner, np.arange(len(mappings) + 1))
            for index in range(len(mappings)):
                per_set_edges[index] = kept_edges[boundaries[index]:boundaries[index + 1]]

        results: list[tuple[Graph, np.ndarray]] = []
        for mapping, sub_edges in zip(mappings, per_set_edges):
            indptr, indices = self._build_csr(mapping.size, sub_edges)
            results.append((Graph(num_vertices=int(mapping.size), edges=sub_edges,
                                  indptr=indptr, indices=indices), mapping))
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
