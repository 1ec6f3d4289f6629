"""Property-based tests for the graph substrate, metrics, and rounding."""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import balance_repair, randomized_round
from repro.graphs import Graph, unit_weights
from repro.graphs import graph as graph_module
from repro.graphs.graph import _canonicalize_edges, csr_matvec, restrict_csr, row_positions
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
def graphs_with_isolated_vertices(draw):
    """``(n, pairs, labels)``: up to 25 vertices with edges (self loops and
    duplicates included, possibly none), up to 4 isolated vertices spread
    among them, and a label per vertex naming one of three disjoint
    vertex sets (or none, -1)."""
    connected = draw(st.integers(min_value=0, max_value=25))
    n = connected + draw(st.integers(min_value=0, max_value=4))
    pairs = draw(st.lists(st.tuples(st.integers(0, connected - 1),
                                    st.integers(0, connected - 1)),
                          max_size=80)) if connected else []
    relabel = draw(st.permutations(range(n)))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(-1, 2)))
    return n, [(relabel[u], relabel[v]) for u, v in pairs], labels


def _assert_derived_edges(graph: Graph, expected: np.ndarray) -> None:
    edges = graph.edges
    assert edges.dtype == np.int64 and edges.shape == expected.shape
    np.testing.assert_array_equal(edges, expected)
    assert graph.num_edges == graph.indices.size // 2 == expected.shape[0]


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

    @settings(max_examples=80)
    @given(case=graphs_with_isolated_vertices())
    @example(case=(4, [], np.array([0, 0, 1, -1])))
    def test_edges_derive_from_the_csr(self, case):
        """A graph is its CSR, and ``edges`` is derived from it: for
        ``from_edges``, ``from_csr`` and every ``subgraphs`` output it
        equals the canonical induced edges, and ``num_edges`` is half the
        CSR's entries."""
        n, pairs, labels = case
        raw = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        built = Graph.from_edges(n, raw)
        adopted = Graph.from_csr(n, built.indptr, built.indices)
        assert "edges" not in vars(adopted)
        for graph in (built, adopted):
            _assert_derived_edges(graph, _canonicalize_edges(raw, n))
        sets = [np.flatnonzero(labels == part) for part in range(3)]
        for ids, (subgraph, mapping) in zip(sets, adopted.subgraphs(sets)):
            np.testing.assert_array_equal(mapping, ids)
            inside = np.isin(raw, ids).all(axis=1)
            _assert_derived_edges(subgraph, _canonicalize_edges(
                np.searchsorted(ids, raw[inside]), ids.size))

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

    @settings(max_examples=80)
    @given(graph=random_graphs(max_vertices=40, max_edges=160), data=st.data())
    @example(graph=Graph.from_edges(4, [(0, 1)]), data=None)
    def test_restriction_matches_scipy_fancy_indexing(self, graph, data):
        """:func:`restrict_csr` against scipy's ``A[rows][:, rows]`` and
        ``A[rows][:, dropped] @ values[dropped]``, bit for bit, on both of
        its paths: random, keep-all, keep-none, single-vertex and
        all-but-one subsets, ±1 and fractional values, the graph's int64
        CSR and scipy's int32 one, int64 and int32 relabelling."""
        n = graph.num_vertices
        if data is None:
            keep, values = np.zeros(n, dtype=bool), np.ones(n)
        else:
            kind = data.draw(st.sampled_from(["random", "all", "none", "one", "all_but_one"]))
            keep = np.zeros(n, dtype=bool)
            if kind == "random":
                keep = data.draw(hnp.arrays(bool, n))
            elif kind == "all":
                keep[:] = True
            elif kind in ("one", "all_but_one"):
                keep[data.draw(st.integers(0, n - 1))] = True
                if kind == "all_but_one":
                    keep = ~keep
            # Mixed magnitudes: a sum in another order loses the small terms.
            fractional = hnp.arrays(np.float64, n, elements=st.one_of(
                st.floats(-2, 2, width=32), st.sampled_from([1e16, -1e16, 2.0 ** -30])))
            values = data.draw(st.one_of(fractional, hnp.arrays(np.float64, n,
                                                                  elements=st.sampled_from([-1.0, 1.0]))))
        rows, dropped = np.flatnonzero(keep), np.flatnonzero(~keep)
        adjacency = graph.adjacency_matrix()
        expected = adjacency[rows][:, rows]
        expected_contribution = np.asarray(adjacency[rows][:, dropped]
                                           @ values[dropped]).ravel()
        for indptr, indices, dtype in ((graph.indptr, graph.indices, np.int64),
                                       (graph.indptr, graph.indices, np.int32),
                                       (adjacency.indptr, adjacency.indices, np.int32)):
            local = np.full(n, -1, dtype=dtype)
            local[rows] = np.arange(rows.size)
            for scan_fraction in (0.0, 1.0):  # every subset down both paths
                with mock.patch.object(graph_module, "_SCAN_FRACTION", scan_fraction):
                    sub_indptr, sub_indices, contribution = restrict_csr(
                        indptr, indices, rows, local, values)
                    assert restrict_csr(indptr, indices, rows, local)[2] is None
                assert sub_indptr.dtype == sub_indices.dtype == dtype
                assert np.array_equal(sub_indptr, expected.indptr)
                assert np.array_equal(sub_indices, expected.indices)
                assert contribution.dtype == np.float64
                assert np.array_equal(contribution, expected_contribution)
                # Bit for bit: -0.0 and +0.0 compare equal above.
                assert np.array_equal(np.signbit(contribution),
                                      np.signbit(expected_contribution))

    def test_restriction_sums_each_row_in_entry_order(self):
        """A hub whose dropped neighbours' values cancel differently in
        another order (the hub row lists 1..40 ascending): pairwise or
        reordered sums give other bits, on both paths."""
        hub = Graph.from_edges(41, [(0, leaf) for leaf in range(1, 41)])
        values = np.tile([1e16, 1.0, -1e16, 0.5], 11)[:41]
        keep = np.arange(41) % 7 == 0
        rows, dropped = np.flatnonzero(keep), np.flatnonzero(~keep)
        local = np.full(41, -1)
        local[rows] = np.arange(rows.size)
        adjacency = hub.adjacency_matrix()
        expected = np.asarray(adjacency[rows][:, dropped] @ values[dropped]).ravel()
        assert expected[0] != np.sort(values[dropped]).sum()  # the order shows
        for scan_fraction in (0.0, 1.0):
            with mock.patch.object(graph_module, "_SCAN_FRACTION", scan_fraction):
                contribution = restrict_csr(hub.indptr, hub.indices, rows, local, values)[2]
            assert contribution.tobytes() == expected.tobytes()

    @settings(max_examples=40)
    @given(graph=random_graphs(), data=st.data())
    def test_csr_matvec_matches_scipy(self, graph, data):
        n = graph.num_vertices
        x = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-2, 2, width=32)))
        adjacency = graph.adjacency_matrix()
        result = csr_matvec(adjacency.indptr, adjacency.indices, adjacency.data, x,
                            adjacency.shape)
        assert result.tobytes() == (adjacency @ x).tobytes()


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
