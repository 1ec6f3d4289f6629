"""Unit tests for randomized rounding and balance repair."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_gd import reference_balance_repair
from repro.core import balance_repair, deterministic_round, randomized_round, rounding
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
        # Sides already within ε come back before any neighbour sum.
        with mock.patch.object(rounding, "csr_matvec") as neighbour_sums:
            repaired = balance_repair(graph, sides, weights, epsilon=0.1)
        neighbour_sums.assert_not_called()
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
        balanced = np.where(np.arange(graph.num_vertices) % 2 == 0, 1.0, -1.0)
        for sides in (np.ones(graph.num_vertices), balanced):
            with pytest.raises(ValueError, match="movable"):
                balance_repair(graph, sides, weights,
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
    expected = reference_balance_repair(graph, sides, weights, epsilon,
                                        center=center, movable=movable)
    np.testing.assert_array_equal(repaired, expected)


@st.composite
def _class_repair_inputs(draw):
    """Repair inputs with few weight classes or many: weight rows with
    repeated columns (unit, small-integer, degree) or a real-valued row
    that makes every column distinct, from starts mostly on one side."""
    n = draw(st.integers(min_value=2, max_value=200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    edges = rng.integers(0, n, size=(draw(st.integers(0, 4 * n)), 2))
    graph = Graph.from_edges(n, edges)
    rows = {"unit": lambda: np.ones(n),
            "small": lambda: rng.integers(1, 4, n).astype(np.float64),
            "degree": lambda: graph.degrees,
            "real": lambda: rng.uniform(0.5, 2.0, n)}
    kinds = draw(st.lists(st.sampled_from(sorted(rows)), min_size=1, max_size=3))
    weights = np.array([rows[kind]() for kind in kinds])
    plus = draw(st.floats(0.7, 1.0))
    sides = np.where(rng.random(n) < plus, 1.0, -1.0) * draw(st.sampled_from([1.0, -1.0]))
    movable = draw(st.none() | st.just(rng.random(n) < draw(st.floats(0.3, 0.9))))
    center = draw(st.none() | st.just(rng.uniform(-0.3, 0.3, len(kinds))
                                      * weights.sum(axis=1)))
    epsilon = draw(st.sampled_from([0.0, 0.02, 0.1]))
    max_moves = draw(st.none() | st.integers(0, n))
    return graph, sides, weights, epsilon, center, movable, max_moves


@settings(max_examples=200, deadline=None)
@given(inputs=_class_repair_inputs())
def test_repair_matches_the_reference(inputs):
    """The repair over weight classes is bit-identical to the per-vertex
    oracle, on few classes (unit, small-integer and degree rows) and on
    all-distinct columns (real-valued rows)."""
    graph, sides, weights, epsilon, center, movable, max_moves = inputs
    repaired = balance_repair(graph, sides, weights, epsilon, center=center,
                              max_moves=max_moves, movable=movable)
    expected = reference_balance_repair(graph, sides, weights, epsilon, center=center,
                                        movable=movable, max_moves=max_moves)
    np.testing.assert_array_equal(repaired, expected)
