"""Unit tests for the CSR graph representation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph


class TestConstruction:
    def test_from_edges_basic(self):
        graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert graph.num_vertices == 4
        assert graph.num_edges == 3

    def test_duplicate_edges_are_removed(self):
        graph = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert graph.num_edges == 1

    def test_self_loops_are_removed(self):
        graph = Graph.from_edges(3, [(0, 0), (1, 1), (0, 1)])
        assert graph.num_edges == 1

    def test_empty_graph(self):
        graph = Graph.from_edges(5, [])
        assert graph.num_vertices == 5
        assert graph.num_edges == 0
        assert graph.degrees.sum() == 0

    def test_zero_vertices(self):
        graph = Graph.from_edges(0, [])
        assert graph.num_vertices == 0
        assert len(graph) == 0

    def test_edges_canonical_order(self):
        graph = Graph.from_edges(4, [(3, 1), (2, 0)])
        for u, v in graph.iter_edges():
            assert u < v

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(-1, 2)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(-1, [])

    def test_malformed_edge_array_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, np.array([[0, 1, 2]]))

    def test_from_numpy_array(self):
        edges = np.array([[0, 1], [1, 2]])
        graph = Graph.from_edges(3, edges)
        assert graph.num_edges == 2


class TestEquality:
    def test_equal_edge_sets_give_equal_graphs(self):
        assert Graph.from_edges(3, [(0, 1), (1, 2)]) == Graph.from_edges(3, [(0, 1), (1, 2)])

    def test_differences_are_seen(self):
        graph = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert graph != Graph.from_edges(3, [(0, 1), (0, 2)])
        assert graph != Graph.from_edges(4, [(0, 1), (1, 2)])
        assert graph != Graph.from_edges(3, [(0, 1)])
        assert graph != "not a graph"

    def test_from_csr_equals_from_edges(self, social_graph):
        copy = Graph.from_csr(social_graph.num_vertices, social_graph.indptr.copy(),
                              social_graph.indices.copy())
        assert copy == social_graph

    def test_graphs_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(Graph.from_edges(3, [(0, 1), (1, 2)]))

    @settings(max_examples=50)
    @given(data=st.data(), num_vertices=st.integers(1, 12))
    def test_from_edges_ignores_order_orientation_and_duplicates(self, data, num_vertices):
        vertex = st.integers(0, num_vertices - 1)
        edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=30))
        shuffled = data.draw(st.permutations(edges))
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        rewritten = [(v, u) if flip else (u, v) for (u, v), flip in zip(shuffled, flips)]
        duplicates = data.draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
        graph = Graph.from_edges(num_vertices, edges)
        assert Graph.from_edges(num_vertices, rewritten + duplicates) == graph


class TestAccessors:
    def test_degrees(self, triangle_graph):
        assert np.array_equal(triangle_graph.degrees, [2, 2, 2])

    def test_degree_single_vertex(self, path_graph):
        assert path_graph.degree(0) == 1
        assert path_graph.degree(1) == 2

    def test_neighbors(self, triangle_graph):
        assert sorted(triangle_graph.neighbors(0).tolist()) == [1, 2]

    def test_neighbors_isolated_vertex(self):
        graph = Graph.from_edges(3, [(0, 1)])
        assert graph.neighbors(2).size == 0

    def test_iter_edges_count(self, clique_ring):
        assert len(list(clique_ring.iter_edges())) == clique_ring.num_edges

    def test_len_is_vertex_count(self, path_graph):
        assert len(path_graph) == 6

    def test_star_degrees(self, small_star):
        degrees = small_star.degrees
        assert degrees[0] == 12
        assert np.all(degrees[1:] == 1)


class TestAdjacencyMatrix:
    def test_is_symmetric(self, social_graph):
        adjacency = social_graph.adjacency_matrix()
        assert (adjacency != adjacency.T).nnz == 0

    def test_row_sums_equal_degrees(self, social_graph):
        adjacency = social_graph.adjacency_matrix()
        row_sums = np.asarray(adjacency.sum(axis=1)).ravel()
        assert np.allclose(row_sums, social_graph.degrees)

    def test_zero_diagonal(self, triangle_graph):
        adjacency = triangle_graph.adjacency_matrix()
        assert adjacency.diagonal().sum() == 0

    def test_nnz_is_twice_edge_count(self, clique_ring):
        adjacency = clique_ring.adjacency_matrix()
        assert adjacency.nnz == 2 * clique_ring.num_edges


class TestSubgraph:
    def test_induced_subgraph_of_clique(self, two_cliques_graph):
        subgraph, mapping = two_cliques_graph.subgraph([0, 1, 2, 3, 4])
        assert subgraph.num_vertices == 5
        assert subgraph.num_edges == 10  # complete graph on 5 vertices
        assert np.array_equal(mapping, [0, 1, 2, 3, 4])

    def test_subgraph_drops_external_edges(self, path_graph):
        subgraph, _ = path_graph.subgraph([0, 1, 3, 4])
        # edges (0,1) and (3,4) survive; (1,2), (2,3), (4,5) are dropped
        assert subgraph.num_edges == 2

    def test_subgraph_mapping_is_sorted_unique(self, path_graph):
        _, mapping = path_graph.subgraph([4, 1, 1, 3])
        assert np.array_equal(mapping, [1, 3, 4])

    def test_subgraph_empty_selection(self, path_graph):
        subgraph, mapping = path_graph.subgraph([])
        assert subgraph.num_vertices == 0
        assert mapping.size == 0

    def test_subgraph_out_of_range_rejected(self, path_graph):
        with pytest.raises(ValueError):
            path_graph.subgraph([0, 99])


class TestNetworkxInterop:
    def test_roundtrip_preserves_structure(self, social_graph):
        nx_graph = social_graph.to_networkx()
        back = Graph.from_networkx(nx_graph)
        assert back.num_vertices == social_graph.num_vertices
        assert back.num_edges == social_graph.num_edges
        assert np.array_equal(back.edges, social_graph.edges)

    def test_to_networkx_counts(self, clique_ring):
        nx_graph = clique_ring.to_networkx()
        assert nx_graph.number_of_nodes() == clique_ring.num_vertices
        assert nx_graph.number_of_edges() == clique_ring.num_edges

    def test_from_networkx_relabels_nodes(self):
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_edges_from([(10, 20), (20, 30)])
        graph = Graph.from_networkx(nx_graph)
        assert graph.num_vertices == 3
        assert graph.num_edges == 2
