"""Bulk-synchronous-parallel execution engine (the Giraph stand-in).

The engine executes a :class:`~repro.distributed.apps.base.VertexProgram`
superstep by superstep.  The *computation* is performed exactly (the final
application output is real and testable); the *distribution* is simulated:
vertices are placed on workers according to a partition, message traffic is
routed along edges, and a :class:`~repro.distributed.cost_model.CostModel`
converts each worker's per-superstep load into a compute time.  The
superstep latency is the maximum worker time (global synchronization
barrier), which is exactly the mechanism that makes balanced partitioning
matter in the paper.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..partition.partition import Partition
from .apps.base import VertexProgram
from .cost_model import CostModel
from .stats import JobStats, SuperstepStats

__all__ = ["BSPEngine"]


class BSPEngine:
    """Runs vertex programs over a simulated worker cluster."""

    def __init__(self, cost_model: CostModel | None = None):
        self._cost_model = cost_model if cost_model is not None else CostModel()

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    # ------------------------------------------------------------------ #
    def run(self, graph: Graph, placement: Partition, program: VertexProgram,
            max_supersteps: int | None = None) -> tuple[np.ndarray, JobStats]:
        """Execute ``program`` on ``graph`` distributed according to ``placement``.

        Returns the final per-vertex state and the collected job statistics.
        """
        if placement.graph != graph:
            # Edge *content* is compared, not just the sizes: under edge
            # churn a stale snapshot's placement has the right vertex
            # count and, typically, edge count, and must be wrapped in a
            # Partition over the updated graph explicitly.  The O(m)
            # comparison is dwarfed by the superstep loop below.
            raise ValueError("placement was computed for a different graph")
        num_workers = placement.num_parts
        worker_of = placement.assignment
        budget = max_supersteps if max_supersteps is not None else program.default_supersteps

        hosted_vertices = np.bincount(worker_of, minlength=num_workers).astype(np.float64)
        edges = graph.edges
        if edges.size:
            worker_u = worker_of[edges[:, 0]]
            worker_v = worker_of[edges[:, 1]]
            crossing = worker_u != worker_v
        else:
            worker_u = worker_v = np.empty(0, dtype=np.int64)
            crossing = np.empty(0, dtype=bool)

        state = program.initialize(graph)
        supersteps: list[SuperstepStats] = []

        for superstep in range(budget):
            result = program.compute(graph, state, superstep)
            state = result.state
            messages = np.asarray(result.messages_per_edge, dtype=np.float64)

            local_received, remote_received = self._route_messages(
                edges, worker_u, worker_v, crossing, messages, num_workers)
            edge_endpoints = self._active_edge_endpoints(graph, worker_of, result.active,
                                                         num_workers)

            worker_times = np.array([
                self._cost_model.worker_compute_time(
                    hosted_vertices[w], edge_endpoints[w],
                    local_received[w], remote_received[w])
                for w in range(num_workers)
            ])
            communication = self._cost_model.message_bytes * remote_received
            supersteps.append(SuperstepStats(
                superstep=superstep,
                worker_times=worker_times,
                worker_communication_bytes=communication,
                active_vertices=int(np.count_nonzero(result.active)),
            ))
            if result.halt:
                break

        stats = JobStats(application=program.name, num_workers=num_workers,
                         supersteps=supersteps)
        return program.result(state), stats

    # ------------------------------------------------------------------ #
    @staticmethod
    def _route_messages(edges: np.ndarray, worker_u: np.ndarray, worker_v: np.ndarray,
                        crossing: np.ndarray, messages_per_edge: np.ndarray,
                        num_workers: int) -> tuple[np.ndarray, np.ndarray]:
        """Local / remote messages *received* by each worker this superstep."""
        local = np.zeros(num_workers)
        remote = np.zeros(num_workers)
        if edges.size == 0:
            return local, remote
        sent_u = messages_per_edge[edges[:, 0]]   # u -> v, received by worker_v
        sent_v = messages_per_edge[edges[:, 1]]   # v -> u, received by worker_u
        same = ~crossing
        np.add.at(local, worker_v[same], sent_u[same])
        np.add.at(local, worker_u[same], sent_v[same])
        np.add.at(remote, worker_v[crossing], sent_u[crossing])
        np.add.at(remote, worker_u[crossing], sent_v[crossing])
        return local, remote

    @staticmethod
    def _active_edge_endpoints(graph: Graph, worker_of: np.ndarray, active: np.ndarray,
                               num_workers: int) -> np.ndarray:
        """Edge endpoints processed by each worker (degree sum of its active vertices)."""
        active_degrees = graph.degrees * np.asarray(active, dtype=np.float64)
        return np.bincount(worker_of, weights=active_degrees, minlength=num_workers)
