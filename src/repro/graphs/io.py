"""Reading and writing graphs, weights, and partitions.

Supports the plain edge-list format used by SNAP datasets (one ``u v`` pair
per line, ``#`` comments), a compact ``.npz`` format for round-tripping the
CSR representation, and simple text formats for weights and partition
assignments.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .graph import Graph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "save_graph_npz",
    "load_graph_npz",
    "write_partition",
    "read_partition",
    "write_weights",
    "read_weights",
]


def read_edge_list(path: str | Path, num_vertices: int | None = None,
                   comment: str = "#") -> Graph:
    """Read a whitespace-separated edge list (SNAP format).

    Vertex ids must be non-negative integers.  If ``num_vertices`` is not
    given it is inferred as ``max id + 1``.
    """
    path = Path(path)
    sources: list[int] = []
    targets: list[int] = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped or stripped.startswith(comment):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line: {line!r}")
            sources.append(int(parts[0]))
            targets.append(int(parts[1]))
    if sources:
        edges = np.column_stack([sources, targets])
        inferred = int(edges.max()) + 1
    else:
        edges = np.empty((0, 2), dtype=np.int64)
        inferred = 0
    n = num_vertices if num_vertices is not None else inferred
    return Graph.from_edges(n, edges)


def write_edge_list(graph: Graph, path: str | Path, header: bool = True) -> None:
    """Write the graph as a SNAP-style edge list."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        if header:
            handle.write(f"# vertices: {graph.num_vertices} edges: {graph.num_edges}\n")
        for u, v in graph.iter_edges():
            handle.write(f"{u} {v}\n")


def save_graph_npz(graph: Graph, path: str | Path) -> None:
    """Save the graph's CSR in compressed ``.npz`` form (fast round trip)."""
    np.savez_compressed(
        Path(path),
        num_vertices=np.int64(graph.num_vertices),
        indptr=graph.indptr,
        indices=graph.indices,
    )


def load_graph_npz(path: str | Path) -> Graph:
    """Load a graph previously stored with :func:`save_graph_npz`.

    The graph is its CSR; an ``edges`` array, which older files carry,
    is not read.
    """
    with np.load(Path(path)) as data:
        return Graph.from_csr(int(data["num_vertices"]), data["indptr"], data["indices"])


def write_partition(assignment: Sequence[int] | np.ndarray, path: str | Path) -> None:
    """Write a partition assignment, one part id per line (line i = vertex i)."""
    assignment = np.asarray(assignment, dtype=np.int64)
    Path(path).write_text("\n".join(str(int(p)) for p in assignment) + "\n",
                          encoding="utf-8")


def read_partition(path: str | Path) -> np.ndarray:
    """Read a partition assignment written by :func:`write_partition`."""
    text = Path(path).read_text(encoding="utf-8")
    values = [int(line) for line in text.splitlines() if line.strip()]
    return np.asarray(values, dtype=np.int64)


def write_weights(weights: np.ndarray, path: str | Path,
                  names: Sequence[str] | None = None) -> None:
    """Write a ``(d, n)`` weight matrix as JSON-headed whitespace text."""
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    header = {"dimensions": int(weights.shape[0]), "vertices": int(weights.shape[1])}
    if names is not None:
        if len(names) != weights.shape[0]:
            raise ValueError("number of names must match number of weight rows")
        header["names"] = list(names)
    lines = ["# " + json.dumps(header)]
    for column in weights.T:
        lines.append(" ".join(f"{value:.12g}" for value in column))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_weights(path: str | Path) -> np.ndarray:
    """Read a weight matrix written by :func:`write_weights` (returns (d, n))."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = [
        [float(token) for token in line.split()]
        for line in lines
        if line.strip() and not line.startswith("#")
    ]
    if not rows:
        return np.empty((0, 0), dtype=np.float64)
    return np.asarray(rows, dtype=np.float64).T
