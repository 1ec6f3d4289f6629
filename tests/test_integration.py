"""End-to-end integration tests reproducing the paper's headline claims in miniature."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import HashPartitioner, SpinnerPartitioner
from repro.core import GDConfig, GDPartitioner
from repro.distributed import GiraphCluster, PageRank
from repro.graphs import livejournal_like, standard_weights, twitter_like
from repro.partition import edge_locality, is_epsilon_balanced, max_imbalance


@pytest.fixture(scope="module")
def twitter_graph():
    return twitter_like(scale=0.3, seed=1)


@pytest.fixture(scope="module")
def lj_graph_module():
    return livejournal_like(scale=0.3, seed=1)


class TestHeadlineClaims:
    def test_gd_balanced_and_local_multi_dimensional(self, twitter_graph):
        """GD achieves near-perfect 2-D balance with high locality (§4.1)."""
        weights = standard_weights(twitter_graph, 2)
        partitioner = GDPartitioner(epsilon=0.05, config=GDConfig(iterations=60, seed=0))
        partition = partitioner.partition(twitter_graph, weights, num_parts=8)
        assert is_epsilon_balanced(partition, weights, epsilon=0.06)
        hash_partition = HashPartitioner().partition(twitter_graph, weights, 8)
        assert edge_locality(partition) > edge_locality(hash_partition) + 20

    def test_spinner_cannot_balance_both_dimensions(self, twitter_graph):
        """Spinner leaves one dimension imbalanced on skewed graphs (Fig. 4)."""
        weights = standard_weights(twitter_graph, 2)
        spinner = SpinnerPartitioner(seed=0).partition(twitter_graph, weights, 8)
        gd = GDPartitioner(epsilon=0.05, config=GDConfig(iterations=60, seed=0)).partition(
            twitter_graph, weights, 8)
        assert max_imbalance(gd, weights) < max_imbalance(spinner, weights)

    def test_gd_handles_four_dimensions(self, lj_graph_module):
        """GD stays balanced with d = 4 unrelated weights (Table 3)."""
        weights = standard_weights(lj_graph_module, 4)
        partitioner = GDPartitioner(epsilon=0.05, config=GDConfig(iterations=60, seed=0))
        partition = partitioner.partition(lj_graph_module, weights, num_parts=2)
        assert max_imbalance(partition, weights) < 0.06
        assert edge_locality(partition) > 60.0

    def test_vertex_edge_partitioning_speeds_up_pagerank(self, lj_graph_module):
        """2-D balanced placement beats hash placement end to end (Fig. 7)."""
        weights = standard_weights(lj_graph_module, 2)
        num_workers = 8
        cluster = GiraphCluster(num_workers=num_workers)
        program = PageRank(supersteps=3)

        hash_placement = HashPartitioner().partition(lj_graph_module, weights, num_workers)
        gd_placement = GDPartitioner(
            epsilon=0.05, config=GDConfig(iterations=40, seed=0)).partition(
            lj_graph_module, weights, num_workers)

        hash_report = cluster.run_job(lj_graph_module, hash_placement, program)
        gd_report = cluster.run_job(lj_graph_module, gd_placement, program)
        assert gd_report.total_runtime < hash_report.total_runtime
        assert (gd_report.total_communication_bytes
                < hash_report.total_communication_bytes)

    def test_pagerank_output_independent_of_placement(self, lj_graph_module):
        """The simulator changes cost accounting, never application results."""
        weights = standard_weights(lj_graph_module, 2)
        cluster = GiraphCluster(num_workers=4)
        program = PageRank(supersteps=5)
        placements = [
            HashPartitioner(salt=s).partition(lj_graph_module, weights, 4) for s in (0, 1)
        ]
        outputs = [cluster.run_job(lj_graph_module, p, program).output for p in placements]
        assert np.allclose(outputs[0], outputs[1])

    def test_gd_scales_roughly_linearly(self):
        """Doubling |E| roughly doubles GD runtime (Fig. 11)."""
        from repro.core import gd_bisect
        from repro.graphs import fb_like

        times = []
        edges = []
        for scale in (0.5, 2.0):
            graph = fb_like(80, scale=scale, seed=0)
            weights = standard_weights(graph, 2)
            result = gd_bisect(graph, weights, 0.05, GDConfig(iterations=20, seed=0))
            times.append(result.elapsed_seconds)
            edges.append(graph.num_edges)
        ratio = (times[1] / times[0]) / (edges[1] / edges[0])
        # Allow generous slack: constant overheads dominate at tiny sizes.
        assert ratio < 6.0


class TestSolvePathReadsOnlyTheCsr:
    """The GD solve reads a graph through its CSR alone: no code that
    ``repro.run`` or ``IncrementalRepartitioner.apply`` runs builds a
    scipy matrix (``Graph.adjacency_matrix`` raises here), and no task
    subgraph holds an edge list once its task is solved.  Every task
    function call checks its own subgraphs, so ``shm`` workers (forked
    with the patches) check theirs too."""

    @pytest.fixture
    def extracted(self, monkeypatch):
        from repro.core import recursive
        from repro.graphs import Graph

        def no_scipy_matrix(graph, dtype=np.float64):
            raise AssertionError("the solve path built a scipy adjacency matrix")

        subgraphs, solve_group = Graph.subgraphs, recursive.solve_group
        extracted = []

        def recording_subgraphs(graph, vertex_sets):
            results = subgraphs(graph, vertex_sets)
            extracted.extend(subgraph for subgraph, _ in results if subgraph is not graph)
            return results

        def checked_solve_group(walk, tasks):
            start = len(extracted)
            sides = solve_group(walk, tasks)
            holding = sum("edges" in vars(subgraph) for subgraph in extracted[start:])
            if holding:
                raise AssertionError(f"{holding} task subgraphs hold an edge list")
            return sides

        monkeypatch.setattr(Graph, "adjacency_matrix", no_scipy_matrix)
        monkeypatch.setattr(Graph, "subgraphs", recording_subgraphs)
        monkeypatch.setattr(recursive, "solve_group", checked_solve_group)
        return extracted

    @pytest.mark.parametrize("parallelism", ["serial", "shm"])
    def test_kway_run(self, extracted, parallelism):
        from repro import ExecutionConfig, run
        from repro.graphs import fb_like

        graph = fb_like(80, scale=0.5, seed=0)
        weights = standard_weights(graph, 2)
        result = run(graph, 8, weights=weights, epsilon=0.05,
                     gd=GDConfig(iterations=30, seed=0),
                     execution=ExecutionConfig(parallelism=parallelism, max_workers=2))
        assert np.array_equal(np.unique(result.partition.assignment), np.arange(8))
        if parallelism == "serial":
            # Waves 1-2: 2 + 4 subgraphs extracted in this process.
            assert len(extracted) == 6
        assert not any("edges" in vars(subgraph) for subgraph in extracted)

    def test_churn_repairs(self, extracted):
        from repro.dynamic import DynamicGraph, IncrementalRepartitioner, UpdateBatch
        from repro.graphs import churn_trace, fb_like

        graph = fb_like(80, scale=0.4, seed=0)
        weights = standard_weights(graph, 2)
        config = GDConfig(iterations=40, seed=0)
        initial = GDPartitioner(epsilon=0.05, config=config).partition(graph, weights, 4)
        repartitioner = IncrementalRepartitioner(DynamicGraph(graph, weights),
                                                 initial.assignment, 4, epsilon=0.05,
                                                 config=config)
        modes = [repartitioner.apply(UpdateBatch(insertions=insertions,
                                                 deletions=deletions)).mode
                 for insertions, deletions in churn_trace(graph, 5, 0.002, seed=5)]
        assert modes == ["repair"] * 5
        assert extracted
        assert not any("edges" in vars(subgraph) for subgraph in extracted)


class TestChurnPathReadsOnlyTheCsr:
    """The churn path reads the live graph through its CSR alone: with
    ``Graph.edges`` raising, a live graph is built, repairs a batch,
    recomputes (forced by a low damage threshold, and on request), and
    answers ``has_edge``, a metrics reset and the edge locality.  The
    update batches are drawn before the patch, since simulating churn
    samples the edge list."""

    def test_churn_path(self, monkeypatch):
        from repro.dynamic import (
            DynamicGraph,
            IncrementalRepartitioner,
            UpdateBatch,
            degree_weight_deltas,
        )
        from repro.graphs import Graph, churn_trace, fb_like

        graph = fb_like(80, scale=0.4, seed=0)
        weights = standard_weights(graph, 2)
        config = GDConfig(iterations=40, seed=0)
        initial = GDPartitioner(epsilon=0.05, config=config).partition(graph, weights, 4)
        trace = churn_trace(graph, 3, 0.002, seed=5)

        def no_edge_list(graph):
            raise AssertionError("the churn path read an edge list")

        monkeypatch.setattr(Graph, "edges", property(no_edge_list))
        dynamic = DynamicGraph(graph, weights)

        def batch(index):
            insertions, deletions = trace[index]
            vertices, deltas = degree_weight_deltas(dynamic, insertions, deletions)
            return UpdateBatch(insertions=insertions, deletions=deletions,
                               weight_vertices=vertices, weight_deltas=deltas)

        repartitioner = IncrementalRepartitioner(dynamic, initial.assignment, 4,
                                                 epsilon=0.05, config=config)
        assert repartitioner.apply(batch(0)).mode == "repair"
        recomputing = IncrementalRepartitioner(
            dynamic, repartitioner.assignment, 4, epsilon=0.05,
            config=config.with_updates(repartition_damage_threshold=1e-9))
        assert recomputing.apply(batch(1)).mode == "recompute"
        assert recomputing.recompute().mode == "escalated"
        inserted, deleted = trace[1][0][0], trace[1][1][0]
        assert dynamic.has_edge(*inserted) and not dynamic.has_edge(*deleted)
        recomputing.metrics.reset(initial.assignment)
        assert recomputing.metrics.edge_locality_pct == edge_locality(recomputing.partition())
