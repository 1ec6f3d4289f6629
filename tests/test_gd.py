"""Unit and behavioural tests for the GD bisection algorithm."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GDConfig, GDPartitioner, gd_bisect
from repro.core.gd import Bisection, BisectionStepper
from repro.graphs import Graph, power_law_cluster_graph, standard_weights, unit_weights
from repro.partition import edge_locality, is_epsilon_balanced, max_imbalance


def _config(**overrides) -> GDConfig:
    defaults = dict(iterations=50, seed=0)
    defaults.update(overrides)
    return GDConfig(**defaults)


class TestBisectBasics:
    def test_returns_two_way_partition(self, clique_ring):
        weights = standard_weights(clique_ring, 2)
        result = gd_bisect(clique_ring, weights, 0.05, _config())
        assert result.partition.num_parts == 2
        assert result.partition.assignment.shape == (clique_ring.num_vertices,)

    def test_fractional_solution_in_box(self, clique_ring):
        weights = standard_weights(clique_ring, 2)
        result = gd_bisect(clique_ring, weights, 0.05, _config())
        assert np.all(np.abs(result.fractional) <= 1.0 + 1e-9)

    def test_balance_satisfied(self, social_graph, social_weights):
        result = gd_bisect(social_graph, social_weights, 0.05, _config())
        assert is_epsilon_balanced(result.partition, social_weights, epsilon=0.06)

    def test_clique_ring_high_locality(self, clique_ring):
        weights = standard_weights(clique_ring, 2)
        result = gd_bisect(clique_ring, weights, 0.05, _config(iterations=80))
        # The optimal bisection cuts 2 of the ring edges => locality ~ 99%.
        assert edge_locality(result.partition) > 90.0

    def test_beats_random_split(self, social_graph, social_weights):
        result = gd_bisect(social_graph, social_weights, 0.05, _config())
        assert edge_locality(result.partition) > 60.0  # random split ≈ 50%

    def test_empty_graph(self):
        graph = Graph.from_edges(0, [])
        result = gd_bisect(graph, np.empty((1, 0)) + 1.0, 0.05, _config())
        assert result.partition.assignment.size == 0

    def test_deterministic_given_seed(self, social_graph, social_weights):
        a = gd_bisect(social_graph, social_weights, 0.05, _config(seed=9))
        b = gd_bisect(social_graph, social_weights, 0.05, _config(seed=9))
        assert np.array_equal(a.partition.assignment, b.partition.assignment)

    def test_single_weight_dimension(self, social_graph):
        weights = unit_weights(social_graph)
        result = gd_bisect(social_graph, weights, 0.05, _config())
        assert is_epsilon_balanced(result.partition, weights, epsilon=0.06)

    def test_invalid_epsilon(self, social_graph, social_weights):
        with pytest.raises(ValueError):
            gd_bisect(social_graph, social_weights, 0.0, _config())

    def test_invalid_target_fraction(self, social_graph, social_weights):
        with pytest.raises(ValueError):
            gd_bisect(social_graph, social_weights, 0.05, _config(), target_fraction=1.0)

    def test_warm_start_keeps_fixed_vertices_on_their_side(self, social_graph,
                                                           social_weights):
        """The final balance repair flips only the vertices a warm start
        left free, even when the fixed ones hold the split out of band."""
        n = social_graph.num_vertices
        fixed = np.arange(n) < 3 * n // 4
        result = gd_bisect(social_graph, social_weights, 0.05, _config(iterations=10),
                           initial_x=np.ones(n), initial_fixed=fixed)
        assert np.all(result.partition.assignment[fixed] == 0)

    def test_elapsed_time_recorded(self, social_graph, social_weights):
        result = gd_bisect(social_graph, social_weights, 0.05, _config(iterations=5))
        assert result.elapsed_seconds > 0


class TestTargetFraction:
    def test_asymmetric_split(self, social_graph, social_weights):
        result = gd_bisect(social_graph, social_weights, 0.05, _config(),
                           target_fraction=0.75)
        sizes = result.partition.part_sizes()
        fraction = sizes[0] / sizes.sum()
        assert 0.65 < fraction < 0.85


class TestHistory:
    def test_history_recorded_when_enabled(self, social_graph, social_weights):
        result = gd_bisect(social_graph, social_weights, 0.05,
                           _config(iterations=10, record_history=True))
        # One record per iteration plus the final rounded snapshot.
        assert len(result.history) == 11
        assert all(0.0 <= record.edge_locality_pct <= 100.0 for record in result.history)

    def test_history_empty_when_disabled(self, social_graph, social_weights):
        result = gd_bisect(social_graph, social_weights, 0.05,
                           _config(iterations=10, record_history=False))
        assert result.history == []

    def test_locality_improves_over_run(self, lj_graph):
        weights = standard_weights(lj_graph, 2)
        result = gd_bisect(lj_graph, weights, 0.05,
                           _config(iterations=60, record_history=True))
        early = result.history[0].edge_locality_pct
        late = result.history[-1].edge_locality_pct
        assert late > early


class TestConfigurations:
    @pytest.mark.parametrize("projection", ["exact", "alternating", "alternating_oneshot",
                                            "dykstra"])
    def test_all_projection_methods_balanced(self, social_graph, social_weights, projection):
        result = gd_bisect(social_graph, social_weights, 0.05,
                           _config(iterations=30, projection_method=projection))
        assert is_epsilon_balanced(result.partition, social_weights, epsilon=0.06)

    def test_vertex_fixing_freezes_vertices(self, social_graph, social_weights):
        with_fixing = gd_bisect(social_graph, social_weights, 0.05,
                                _config(iterations=40, vertex_fixing=True,
                                        record_history=True))
        assert with_fixing.history[-1].num_fixed > 0

    def test_without_vertex_fixing_none_frozen(self, social_graph, social_weights):
        result = gd_bisect(social_graph, social_weights, 0.05,
                           _config(iterations=20, vertex_fixing=False,
                                   record_history=True))
        assert result.history[-1].num_fixed == 0

    def test_noise_every_iteration_still_balanced(self, social_graph, social_weights):
        result = gd_bisect(social_graph, social_weights, 0.05,
                           _config(iterations=30, noise_every_iteration=True))
        assert is_epsilon_balanced(result.partition, social_weights, epsilon=0.06)

    def test_projection_epsilon_override(self, social_graph, social_weights):
        result = gd_bisect(social_graph, social_weights, 0.05,
                           _config(iterations=30, projection_method="exact",
                                   projection_epsilon=0.2))
        # The final result is still repaired to the requested epsilon.
        assert is_epsilon_balanced(result.partition, social_weights, epsilon=0.06)

    def test_nonadaptive_step(self, social_graph, social_weights):
        result = gd_bisect(social_graph, social_weights, 0.05,
                           _config(iterations=30, adaptive_step=False))
        assert result.partition.num_parts == 2


class TestGDPartitioner:
    def test_two_way(self, social_graph, social_weights):
        partitioner = GDPartitioner(epsilon=0.05, config=_config())
        partition = partitioner.partition(social_graph, social_weights, num_parts=2)
        assert partition.num_parts == 2

    def test_k_way_delegates_to_recursive(self, social_graph, social_weights):
        partitioner = GDPartitioner(epsilon=0.05, config=_config(iterations=30))
        partition = partitioner.partition(social_graph, social_weights, num_parts=4)
        assert partition.num_parts == 4
        assert max_imbalance(partition, social_weights) < 0.10

    def test_bisect_returns_result(self, social_graph, social_weights):
        partitioner = GDPartitioner(epsilon=0.05, config=_config(iterations=10))
        result = partitioner.bisect(social_graph, social_weights)
        assert result.epsilon == 0.05

    def test_name(self):
        assert GDPartitioner().name == "GD"


class TestStepperGroup:
    """The stepper's one constructor takes a group of bisections."""

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="at least one bisection"):
            BisectionStepper([])

    def test_configs_must_agree_up_to_the_seed(self, social_graph, social_weights):
        first = Bisection(social_graph, social_weights, 0.05, _config(seed=1))
        reseeded = Bisection(social_graph, social_weights, 0.05, _config(seed=2))
        assert len(BisectionStepper([first, reseeded]).tasks) == 2
        other = Bisection(social_graph, social_weights, 0.05, _config(seed=2, iterations=40))
        with pytest.raises(ValueError, match="up to its seed"):
            BisectionStepper([first, other])

    def test_empty_graph_rejected(self, social_graph, social_weights):
        empty = Graph.from_edges(0, [])
        with pytest.raises(ValueError, match="non-empty graph"):
            BisectionStepper([Bisection(social_graph, social_weights, 0.05, _config()),
                              Bisection(empty, np.ones((2, 0)), 0.05, _config())])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       method=st.sampled_from(["exact", "alternating", "dykstra"]))
def test_output_independent_of_weight_memory_order(seed, method):
    """A column slice such as ``weights[:, mapping]`` is Fortran-ordered;
    the solver must give the same bits as for the C-ordered copy the shm
    executor ships."""
    graph = power_law_cluster_graph(num_vertices=300, num_communities=6,
                                    average_degree=12.0, seed=7)
    weights = standard_weights(graph, 2)
    config = GDConfig(iterations=20, seed=seed, projection_method=method)
    c_order = gd_bisect(graph, np.ascontiguousarray(weights), 0.05, config)
    f_order = gd_bisect(graph, np.asfortranarray(weights), 0.05, config)
    assert np.array_equal(c_order.fractional, f_order.fractional)
    assert np.array_equal(c_order.partition.assignment, f_order.partition.assignment)

