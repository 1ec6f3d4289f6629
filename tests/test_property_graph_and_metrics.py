"""Property-based tests for the graph substrate, metrics, and rounding."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import balance_repair, randomized_round
from repro.graphs import Graph, unit_weights
from repro.graphs.graph import row_positions
from repro.partition import (
    Partition,
    cut_size,
    edge_locality,
    imbalance,
    is_epsilon_balanced,
    objective_value,
)


@st.composite
def random_graphs(draw, max_vertices=30, max_edges=80):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=num_edges, max_size=num_edges))
    return Graph.from_edges(n, edges)


@st.composite
def graphs_with_assignments(draw, max_parts=4):
    graph = draw(random_graphs())
    num_parts = draw(st.integers(min_value=1, max_value=max_parts))
    assignment = draw(hnp.arrays(np.int64, graph.num_vertices,
                                 elements=st.integers(0, num_parts - 1)))
    return graph, Partition(graph=graph, assignment=assignment, num_parts=num_parts)


class TestGraphInvariants:
    @settings(max_examples=80)
    @given(graph=random_graphs())
    def test_degree_sum_is_twice_edges(self, graph):
        assert graph.degrees.sum() == 2 * graph.num_edges

    @settings(max_examples=80)
    @given(graph=random_graphs())
    def test_edges_unique_and_canonical(self, graph):
        edges = {tuple(edge) for edge in graph.edges.tolist()}
        assert len(edges) == graph.num_edges
        assert all(u < v for u, v in edges)

    @settings(max_examples=50)
    @given(graph=random_graphs())
    def test_adjacency_symmetric(self, graph):
        adjacency = graph.adjacency_matrix()
        assert (adjacency != adjacency.T).nnz == 0

    @settings(max_examples=50)
    @given(graph=random_graphs())
    def test_neighbor_lists_match_edges(self, graph):
        neighbor_pairs = {(min(v, int(u)), max(v, int(u)))
                          for v in range(graph.num_vertices)
                          for u in graph.neighbors(v)}
        assert neighbor_pairs == {tuple(edge) for edge in graph.edges.tolist()}

    @settings(max_examples=50)
    @given(graph=random_graphs(), data=st.data())
    def test_subgraph_never_gains_edges(self, graph, data):
        if graph.num_vertices == 0:
            return
        subset = data.draw(st.lists(st.integers(0, graph.num_vertices - 1),
                                    max_size=graph.num_vertices))
        subgraph, _ = graph.subgraph(subset)
        assert subgraph.num_edges <= graph.num_edges


    @settings(max_examples=80)
    @given(graph=random_graphs(), data=st.data())
    @example(graph=Graph.from_edges(4, [(0, 1)]), data=None)
    def test_row_positions_concatenate_the_rows(self, graph, data):
        """The row gather equals the concatenated per-row ranges, empty
        rows (isolated vertices), repeated rows and an empty row set
        included."""
        rows = ([] if data is None else
                data.draw(st.lists(st.integers(0, graph.num_vertices - 1),
                                   max_size=2 * graph.num_vertices)))
        rows = np.asarray(rows, dtype=np.int64)
        positions, bounds = row_positions(graph.indptr, rows)
        indptr = graph.indptr
        expected = [np.arange(indptr[r], indptr[r + 1]) for r in rows]
        np.testing.assert_array_equal(
            positions, np.concatenate(expected) if expected else np.empty(0, np.int64))
        assert positions.dtype == bounds.dtype == np.int64
        np.testing.assert_array_equal(
            bounds, np.concatenate([[0], np.cumsum([part.size for part in expected])]))


class TestMetricInvariants:
    @settings(max_examples=80)
    @given(pair=graphs_with_assignments())
    def test_cut_plus_objective_is_edge_count(self, pair):
        graph, partition = pair
        assert cut_size(partition) + objective_value(partition) == graph.num_edges

    @settings(max_examples=80)
    @given(pair=graphs_with_assignments())
    def test_locality_in_range(self, pair):
        _, partition = pair
        assert 0.0 <= edge_locality(partition) <= 100.0

    @settings(max_examples=80)
    @given(pair=graphs_with_assignments())
    def test_imbalance_nonnegative(self, pair):
        graph, partition = pair
        values = imbalance(partition, unit_weights(graph))
        assert np.all(values >= -1e-12)

    @settings(max_examples=80)
    @given(pair=graphs_with_assignments())
    def test_epsilon_one_always_balanced_for_two_parts(self, pair):
        graph, partition = pair
        if partition.num_parts != 2:
            return
        assert is_epsilon_balanced(partition, unit_weights(graph), epsilon=1.0)


class TestRoundingProperties:
    @settings(max_examples=60)
    @given(x=hnp.arrays(np.float64, 40, elements=st.floats(-1.0, 1.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_rounding_is_sign_valued(self, x, seed):
        sides = randomized_round(x, np.random.default_rng(seed))
        assert set(np.unique(sides)).issubset({-1.0, 1.0})

    @settings(max_examples=40, deadline=None)
    @given(graph=random_graphs(max_vertices=20, max_edges=40),
           seed=st.integers(0, 1000))
    def test_repair_reaches_balance_on_unit_weights(self, graph, seed):
        if graph.num_vertices < 4:
            return
        rng = np.random.default_rng(seed)
        weights = unit_weights(graph)[None, :]
        sides = np.where(rng.random(graph.num_vertices) < 0.5, 1.0, -1.0)
        repaired = balance_repair(graph, sides, weights, epsilon=0.5)
        partition = Partition.from_sides(graph, repaired)
        # epsilon=0.5 on unit weights is satisfiable whenever n >= 4 (split
        # sizes within [n/4, 3n/4] exist); repair must reach it.
        assert is_epsilon_balanced(partition, weights, epsilon=0.51)
