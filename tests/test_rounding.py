"""Unit tests for randomized rounding and balance repair."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import balance_repair, deterministic_round, randomized_round
from repro.graphs import Graph, unit_weights
from repro.partition import Partition, is_epsilon_balanced


class TestRandomizedRound:
    def test_integral_input_unchanged(self, rng):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        assert np.array_equal(randomized_round(x, rng), x)

    def test_output_is_plus_minus_one(self, rng):
        x = rng.uniform(-1, 1, size=100)
        sides = randomized_round(x, rng)
        assert set(np.unique(sides)).issubset({-1.0, 1.0})

    def test_expectation_matches_fraction(self):
        x = np.full(20000, 0.5)  # P(+1) = 0.75
        sides = randomized_round(x, np.random.default_rng(0))
        assert np.isclose((sides == 1).mean(), 0.75, atol=0.02)

    def test_zero_gives_fair_coin(self):
        sides = randomized_round(np.zeros(20000), np.random.default_rng(1))
        assert np.isclose((sides == 1).mean(), 0.5, atol=0.02)

    def test_default_rng_is_deterministic(self):
        x = np.linspace(-1, 1, 50)
        assert np.array_equal(randomized_round(x), randomized_round(x))


class TestDeterministicRound:
    def test_sign_rounding(self):
        assert np.array_equal(deterministic_round(np.array([0.3, -0.2, 0.0])),
                              [1.0, -1.0, 1.0])

    def test_idempotent(self):
        x = np.array([0.9, -0.9])
        assert np.array_equal(deterministic_round(deterministic_round(x)),
                              deterministic_round(x))


class TestBalanceRepair:
    def test_repairs_unit_weight_imbalance(self, clique_ring):
        graph = clique_ring
        weights = unit_weights(graph)[None, :]
        sides = np.ones(graph.num_vertices)   # everything on one side
        repaired = balance_repair(graph, sides, weights, epsilon=0.05)
        partition = Partition.from_sides(graph, repaired)
        assert is_epsilon_balanced(partition, weights, epsilon=0.05)

    def test_repairs_two_dimensions(self, social_graph, social_weights):
        rng = np.random.default_rng(3)
        sides = np.where(rng.random(social_graph.num_vertices) < 0.8, 1.0, -1.0)
        repaired = balance_repair(social_graph, sides, social_weights, epsilon=0.05)
        partition = Partition.from_sides(social_graph, repaired)
        assert is_epsilon_balanced(partition, social_weights, epsilon=0.06)

    def test_balanced_input_unchanged(self, clique_ring):
        graph = clique_ring
        weights = unit_weights(graph)[None, :]
        sides = np.where(np.arange(graph.num_vertices) % 2 == 0, 1.0, -1.0)
        repaired = balance_repair(graph, sides, weights, epsilon=0.1)
        assert np.array_equal(repaired, sides)

    def test_never_increases_total_violation(self, social_graph, social_weights):
        rng = np.random.default_rng(5)
        sides = np.where(rng.random(social_graph.num_vertices) < 0.9, 1.0, -1.0)
        totals = social_weights.sum(axis=1)
        slack = 0.03 * totals

        def violation(s):
            return float((np.maximum(np.abs(social_weights @ s) - slack, 0) / totals).sum())

        repaired = balance_repair(social_graph, sides, social_weights, epsilon=0.03)
        assert violation(repaired) <= violation(sides) + 1e-12

    def test_respects_max_moves(self, clique_ring):
        graph = clique_ring
        weights = unit_weights(graph)[None, :]
        sides = np.ones(graph.num_vertices)
        repaired = balance_repair(graph, sides, weights, epsilon=0.01, max_moves=3)
        # Only 3 vertices may have been flipped.
        assert int((repaired != sides).sum()) <= 3

    def test_empty_graph(self):
        graph = Graph.from_edges(0, [])
        repaired = balance_repair(graph, np.empty(0), np.empty((1, 0)), epsilon=0.1)
        assert repaired.size == 0

    def test_movable_none_is_bit_identical(self, social_graph, social_weights):
        rng = np.random.default_rng(7)
        sides = np.where(rng.random(social_graph.num_vertices) < 0.8, 1.0, -1.0)
        default = balance_repair(social_graph, sides, social_weights, epsilon=0.05)
        all_movable = balance_repair(social_graph, sides, social_weights, epsilon=0.05,
                                     movable=np.ones(social_graph.num_vertices, bool))
        np.testing.assert_array_equal(default, all_movable)

    def test_movable_mask_confines_flips(self, clique_ring):
        graph = clique_ring
        weights = unit_weights(graph)[None, :]
        sides = np.ones(graph.num_vertices)
        movable = np.zeros(graph.num_vertices, dtype=bool)
        movable[:graph.num_vertices // 2] = True
        repaired = balance_repair(graph, sides, weights, epsilon=0.05,
                                  movable=movable)
        assert np.array_equal(repaired[~movable], sides[~movable])

    def test_movable_shape_validated(self, clique_ring):
        graph = clique_ring
        weights = unit_weights(graph)[None, :]
        with pytest.raises(ValueError, match="movable"):
            balance_repair(graph, np.ones(graph.num_vertices), weights,
                           epsilon=0.05, movable=np.ones(3, dtype=bool))

    def test_prefers_low_damage_moves(self, two_cliques_graph):
        # Starting from everything in one part, the repair must end balanced;
        # with two 5-cliques the best split keeps the cliques intact.
        graph = two_cliques_graph
        weights = unit_weights(graph)[None, :]
        sides = np.ones(graph.num_vertices)
        repaired = balance_repair(graph, sides, weights, epsilon=0.05)
        partition = Partition.from_sides(graph, repaired)
        assert is_epsilon_balanced(partition, weights, epsilon=0.05)


def _reference_balance_repair(graph, sides, weights, epsilon, center=None,
                              movable=None):
    """:func:`balance_repair` transcribed plainly: every vertex's cut gain
    is recomputed from the whole adjacency before each move."""
    sides = np.asarray(sides, dtype=np.float64).copy()
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    adjacency = graph.adjacency_matrix()
    totals = weights.sum(axis=1)
    slack = epsilon * totals
    center = np.zeros_like(totals) if center is None else center
    sums = weights @ sides - center
    for _ in range(graph.num_vertices):
        excess = np.maximum(np.abs(sums) - slack, 0.0) / np.maximum(totals, 1e-12)
        current_violation = float(excess.sum())
        if current_violation <= 1e-12:
            break
        worst_dim = int(np.argmax(excess))
        donor_side = 1.0 if sums[worst_dim] > 0 else -1.0
        on_donor_side = sides == donor_side
        if movable is not None:
            on_donor_side &= movable
        candidates = np.flatnonzero(on_donor_side)
        if candidates.size == 0:
            break
        new_sums = sums[:, None] - 2.0 * donor_side * weights[:, candidates]
        new_excess = np.maximum(np.abs(new_sums) - slack[:, None], 0.0)
        new_violation = (new_excess / np.maximum(totals[:, None], 1e-12)).sum(axis=0)
        best_violation = new_violation.min()
        if best_violation >= current_violation - 1e-15:
            break
        near_best = candidates[new_violation <= best_violation + 1e-12]
        gains = -(sides * (adjacency @ sides))
        best = near_best[np.argmax(gains[near_best])]
        sides[best] = -donor_side
        sums -= 2.0 * donor_side * weights[:, best]
    return sides


@st.composite
def _repair_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=120))
    dimensions = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 3.0, size=(dimensions, n))
    sides = np.where(rng.random(n) < draw(st.floats(0.5, 1.0)), 1.0, -1.0)
    movable = draw(st.none() | st.just(rng.random(n) < 0.7))
    # An uneven split (odd part counts) shifts the balance center.
    center = draw(st.none() | st.just(rng.uniform(-0.3, 0.3, dimensions)
                                      * weights.sum(axis=1)))
    epsilon = draw(st.sampled_from([0.0, 0.02, 0.1]))
    return Graph.from_edges(n, edges), sides, weights, epsilon, center, movable


@settings(max_examples=150, deadline=None)
@given(inputs=_repair_inputs())
def test_incremental_gains_match_full_recompute(inputs):
    graph, sides, weights, epsilon, center, movable = inputs
    repaired = balance_repair(graph, sides, weights, epsilon, center=center,
                              movable=movable)
    expected = _reference_balance_repair(graph, sides, weights, epsilon,
                                         center=center, movable=movable)
    np.testing.assert_array_equal(repaired, expected)
