"""Unit tests for recursive bisection and the direct k-way relaxation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reference_gd import reference_recursive_bisection
from repro.core import (
    PROJECTION_METHODS,
    GDConfig,
    gd_multiway,
    project_rows_to_simplex,
    recursive_bisection,
)
from repro.core.gd import Bisection, solve_bisections
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


def _assert_matches_plain_recursion(graph_name, num_parts, dimensions,
                                    method="alternating_oneshot"):
    graph = _ORACLE_GRAPHS[graph_name]()
    weights = standard_weights(graph, dimensions)
    for seed in range(3):
        config = _config(iterations=30, seed=seed, projection_method=method)
        expected = reference_recursive_bisection(graph, weights, num_parts, 0.05, config)
        partition = recursive_bisection(graph, weights, num_parts, 0.05, config)
        np.testing.assert_array_equal(partition.assignment, expected,
                                      err_msg=f"seed {seed}")


@pytest.mark.parametrize("graph_name", sorted(_ORACLE_GRAPHS))
@pytest.mark.parametrize("num_parts", [2, 3, 5, 7, 8, 13])
def test_wave_scheduler_matches_plain_recursion(graph_name, num_parts):
    """The frontier scheduler is the paper's depth-first recursion,
    reordered: the same assignment, bit for bit."""
    _assert_matches_plain_recursion(graph_name, num_parts, 2)


@pytest.mark.parametrize("graph_name", sorted(_ORACLE_GRAPHS))
@pytest.mark.parametrize("num_parts", [2, 3, 5, 7, 8, 13])
def test_wave_scheduler_matches_plain_recursion_d3(graph_name, num_parts):
    """The same oracle on ``standard_weights(graph, 3)`` (unit, degree
    and neighbour-degree sum): every bisection balances three rows."""
    _assert_matches_plain_recursion(graph_name, num_parts, 3)


@pytest.mark.parametrize("method", ["exact", "alternating", "dykstra"])
@pytest.mark.parametrize("num_parts", [3, 8])
def test_wave_scheduler_matches_plain_recursion_other_methods(method, num_parts):
    """The oracle for the projection methods besides the default sweep:
    each task of a lock-step wave projects its own slice through its own
    engine, and the assignment is per-node ``gd_bisect``'s."""
    _assert_matches_plain_recursion("fb_like", num_parts, 2, method)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), num_vertices=st.integers(40, 160),
       num_tasks=st.integers(2, 6), dimensions=st.integers(1, 3),
       method=st.sampled_from(PROJECTION_METHODS), warm=st.booleans(),
       fixing_start=st.sampled_from([0.0, 0.25]), noisy=st.booleans())
def test_lockstep_bits_do_not_depend_on_the_grouping(seed, num_vertices, num_tasks,
                                                     dimensions, method, warm,
                                                     fixing_start, noisy):
    """A wave of bisections stepped as one lock-step group, one by one,
    or as two groups gives every task the same bits: the same fractional
    iterate and the same sides.  Warm starts fix a random share of each
    task's vertices at their sides, as a repair walk does."""
    rng = np.random.default_rng(seed)
    graph = power_law_cluster_graph(num_vertices, 4, 6.0, seed=seed)
    weights = standard_weights(graph, dimensions)
    owner = rng.integers(0, num_tasks, graph.num_vertices)
    vertex_sets = [np.flatnonzero(owner == task) for task in range(num_tasks)]
    vertex_sets = [ids for ids in vertex_sets if ids.size]
    assume(len(vertex_sets) >= 2)
    bisections = []
    for index, (subgraph, mapping) in enumerate(graph.subgraphs(vertex_sets)):
        num_parts = int(rng.integers(2, 6))
        config = GDConfig(iterations=20, seed=seed + index, projection_method=method,
                          fixing_start_fraction=fixing_start,
                          noise_every_iteration=noisy)
        warm_start = {}
        if warm:
            warm_start = {"initial_x": np.where(rng.random(mapping.size) < 0.5, 1.0, -1.0),
                          "initial_fixed": rng.random(mapping.size) < 0.5}
        bisections.append(Bisection(subgraph, weights[:, mapping], 0.05, config,
                                    ((num_parts + 1) // 2) / num_parts, **warm_start))
    alone = [result for bisection in bisections for result in solve_bisections([bisection])]
    cut = len(bisections) // 2
    groupings = {"one group": solve_bisections(bisections),
                 "two groups": (solve_bisections(bisections[:cut])
                                + solve_bisections(bisections[cut:]))}
    for name, results in groupings.items():
        for index, (result, expected) in enumerate(zip(results, alone)):
            where = f"{name}, task {index}"
            np.testing.assert_array_equal(result.fractional, expected.fractional,
                                          err_msg=where)
            np.testing.assert_array_equal(result.partition.assignment,
                                          expected.partition.assignment, err_msg=where)


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
