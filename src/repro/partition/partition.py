"""Partition data model.

A :class:`Partition` couples a graph with an assignment of every vertex to
one of ``k`` parts.  It is the common return type of all partitioners in
this package (the GD algorithm and every baseline) and the common input of
the quality metrics and the distributed-processing simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..graphs.graph import Graph

__all__ = ["Partition"]


@dataclass(frozen=True)
class Partition:
    """An assignment of every vertex of ``graph`` to a part in ``0..k-1``.

    Attributes
    ----------
    graph:
        The partitioned graph.
    assignment:
        Integer array of length ``graph.num_vertices``; entry ``i`` is the
        part of vertex ``i``.
    num_parts:
        Number of parts ``k``.  Parts may be empty.
    """

    graph: Graph
    assignment: np.ndarray = field(repr=False)
    num_parts: int

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", assignment)
        if assignment.shape != (self.graph.num_vertices,):
            raise ValueError(
                f"assignment has shape {assignment.shape}, expected "
                f"({self.graph.num_vertices},)")
        if self.num_parts <= 0:
            raise ValueError("num_parts must be positive")
        if assignment.size and (assignment.min() < 0 or assignment.max() >= self.num_parts):
            raise ValueError("assignment contains part ids outside 0..num_parts-1")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_sides(cls, graph: Graph, sides: np.ndarray | Sequence[int]) -> "Partition":
        """Build a 2-way partition from a ±1 (or 0/1) side vector."""
        sides = np.asarray(sides)
        if sides.shape != (graph.num_vertices,):
            raise ValueError("sides must have one entry per vertex")
        if np.isin(sides, (-1, 1)).all():
            assignment = (sides < 0).astype(np.int64)
        elif np.isin(sides, (0, 1)).all():
            assignment = sides.astype(np.int64)
        else:
            raise ValueError("sides must be ±1 or 0/1 valued")
        return cls(graph=graph, assignment=assignment, num_parts=2)

    @classmethod
    def trivial(cls, graph: Graph, num_parts: int = 1) -> "Partition":
        """All vertices in part 0 (useful as a degenerate baseline)."""
        return cls(graph=graph,
                   assignment=np.zeros(graph.num_vertices, dtype=np.int64),
                   num_parts=num_parts)

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def parts(self) -> list[np.ndarray]:
        """Vertex ids of each part, as a list of ``k`` arrays."""
        return [np.flatnonzero(self.assignment == p) for p in range(self.num_parts)]

    def part_sizes(self) -> np.ndarray:
        """Number of vertices in each part."""
        return np.bincount(self.assignment, minlength=self.num_parts)

    def part_weights(self, weights: np.ndarray) -> np.ndarray:
        """Total weight per part for each weight dimension.

        ``weights`` is ``(d, n)`` or ``(n,)``; the result is ``(d, k)`` or
        ``(k,)`` respectively.
        """
        weights = np.asarray(weights, dtype=np.float64)
        single = weights.ndim == 1
        matrix = np.atleast_2d(weights)
        if matrix.shape[1] != self.graph.num_vertices:
            raise ValueError("weights must have one column per vertex")
        totals = np.vstack([
            np.bincount(self.assignment, weights=row, minlength=self.num_parts)
            for row in matrix
        ])
        return totals[0] if single else totals

    def side_vector(self) -> np.ndarray:
        """±1 vector for 2-way partitions (+1 for part 0, −1 for part 1)."""
        if self.num_parts != 2:
            raise ValueError("side_vector is only defined for 2-way partitions")
        return np.where(self.assignment == 0, 1.0, -1.0)

    def relabel(self, mapping: np.ndarray | Sequence[int], num_parts: int) -> "Partition":
        """Return a new partition with parts relabelled through ``mapping``."""
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.shape != (self.num_parts,):
            raise ValueError("mapping must have one entry per current part")
        return Partition(graph=self.graph, assignment=mapping[self.assignment],
                         num_parts=num_parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.graph == other.graph
                and self.num_parts == other.num_parts
                and np.array_equal(self.assignment, other.assignment))
