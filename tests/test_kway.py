"""Unit tests for recursive bisection and the direct k-way relaxation."""

from __future__ import annotations

import numpy as np
import pytest

from reference_gd import reference_recursive_bisection
from repro.core import GDConfig, gd_multiway, project_rows_to_simplex, recursive_bisection
from repro.graphs import fb_like, ring_of_cliques, standard_weights
from repro.graphs.generators import power_law_cluster_graph
from repro.partition import edge_locality, max_imbalance


def _config(**overrides) -> GDConfig:
    defaults = dict(iterations=40, seed=0)
    defaults.update(overrides)
    return GDConfig(**defaults)


class TestRecursiveBisection:
    def test_power_of_two_parts(self, social_graph, social_weights):
        partition = recursive_bisection(social_graph, social_weights, 4, 0.05, _config())
        assert partition.num_parts == 4
        assert set(np.unique(partition.assignment)) == {0, 1, 2, 3}

    def test_non_power_of_two_parts(self, social_graph, social_weights):
        partition = recursive_bisection(social_graph, social_weights, 3, 0.05, _config())
        assert partition.num_parts == 3
        sizes = partition.part_sizes()
        assert sizes.min() > 0
        # Every part close to n/3.
        assert sizes.max() / sizes.mean() - 1.0 < 0.15

    def test_balanced_across_dimensions(self, social_graph, social_weights):
        partition = recursive_bisection(social_graph, social_weights, 4, 0.05, _config())
        assert max_imbalance(partition, social_weights) < 0.10

    def test_locality_beats_random(self, lj_graph):
        weights = standard_weights(lj_graph, 2)
        partition = recursive_bisection(lj_graph, weights, 4, 0.05, _config())
        assert edge_locality(partition) > 100.0 / 4 + 10

    def test_single_part(self, social_graph, social_weights):
        partition = recursive_bisection(social_graph, social_weights, 1, 0.05, _config())
        assert partition.num_parts == 1
        assert np.all(partition.assignment == 0)

    def test_clique_ring_recovers_cliques(self):
        graph = ring_of_cliques(8, 8)
        weights = standard_weights(graph, 2)
        partition = recursive_bisection(graph, weights, 4, 0.05, _config(iterations=60))
        # Optimal 4-way split cuts at most 8 ring edges out of 8*28+8.
        assert edge_locality(partition) > 90.0

    def test_invalid_num_parts(self, social_graph, social_weights):
        with pytest.raises(ValueError):
            recursive_bisection(social_graph, social_weights, 0, 0.05, _config())

    def test_too_many_parts(self, triangle_graph):
        weights = standard_weights(triangle_graph, 1)
        with pytest.raises(ValueError):
            recursive_bisection(triangle_graph, weights, 10, 0.05, _config())


_ORACLE_GRAPHS = {"fb_like": lambda: fb_like(80, scale=0.25),
                  "power_law": lambda: power_law_cluster_graph(300, 6, 8.0, seed=2)}


@pytest.mark.parametrize("graph_name", sorted(_ORACLE_GRAPHS))
@pytest.mark.parametrize("num_parts", [2, 3, 5, 7, 8, 13])
def test_wave_scheduler_matches_plain_recursion(graph_name, num_parts):
    """The frontier scheduler is the paper's depth-first recursion,
    reordered: the same assignment, bit for bit."""
    graph = _ORACLE_GRAPHS[graph_name]()
    weights = standard_weights(graph, 2)
    for seed in range(3):
        config = _config(iterations=30, seed=seed)
        expected = reference_recursive_bisection(graph, weights, num_parts, 0.05, config)
        partition = recursive_bisection(graph, weights, num_parts, 0.05, config)
        np.testing.assert_array_equal(partition.assignment, expected,
                                      err_msg=f"seed {seed}")


class TestSimplexProjection:
    def test_rows_sum_to_one(self, rng):
        matrix = rng.normal(size=(50, 6))
        projected = project_rows_to_simplex(matrix)
        assert np.allclose(projected.sum(axis=1), 1.0)
        assert np.all(projected >= -1e-12)

    def test_already_on_simplex_unchanged(self):
        matrix = np.array([[0.25, 0.75], [0.5, 0.5]])
        assert np.allclose(project_rows_to_simplex(matrix), matrix)

    def test_one_hot_preserved(self):
        matrix = np.array([[0.0, 1.0, 0.0]])
        assert np.allclose(project_rows_to_simplex(matrix), matrix)

    def test_uniform_from_equal_scores(self):
        matrix = np.array([[5.0, 5.0, 5.0, 5.0]])
        assert np.allclose(project_rows_to_simplex(matrix), 0.25)


class TestDirectMultiway:
    def test_partition_shape(self, social_graph, social_weights):
        result = gd_multiway(social_graph, social_weights, 4, 0.05, _config(iterations=30))
        assert result.partition.num_parts == 4
        assert result.fractional.shape == (social_graph.num_vertices, 4)

    def test_fractional_rows_are_distributions(self, social_graph, social_weights):
        result = gd_multiway(social_graph, social_weights, 3, 0.05, _config(iterations=20))
        assert np.allclose(result.fractional.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(result.fractional >= -1e-9)

    def test_reasonable_balance(self, social_graph, social_weights):
        result = gd_multiway(social_graph, social_weights, 4, 0.05, _config(iterations=30))
        assert max_imbalance(result.partition, social_weights) < 0.25

    def test_locality_beats_random(self, lj_graph):
        weights = standard_weights(lj_graph, 2)
        result = gd_multiway(lj_graph, weights, 4, 0.05, _config(iterations=40))
        assert edge_locality(result.partition) > 100.0 / 4

    def test_empty_graph(self):
        from repro.graphs import Graph

        graph = Graph.from_edges(0, [])
        result = gd_multiway(graph, np.empty((1, 0)) + 1.0, 3, 0.05, _config(iterations=5))
        assert result.partition.assignment.size == 0

    def test_invalid_parts(self, social_graph, social_weights):
        with pytest.raises(ValueError):
            gd_multiway(social_graph, social_weights, 0, 0.05, _config())
