"""Unit tests for graph / partition / weight IO."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    load_graph_npz,
    read_edge_list,
    read_partition,
    read_weights,
    save_graph_npz,
    standard_weights,
    write_edge_list,
    write_partition,
    write_weights,
)


class TestEdgeList:
    def test_roundtrip(self, social_graph, tmp_path):
        path = tmp_path / "graph.txt"
        write_edge_list(social_graph, path)
        loaded = read_edge_list(path, num_vertices=social_graph.num_vertices)
        assert loaded.num_vertices == social_graph.num_vertices
        assert np.array_equal(loaded.edges, social_graph.edges)

    def test_infers_vertex_count(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n1 5\n")
        graph = read_edge_list(path)
        assert graph.num_vertices == 6

    def test_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# comment\n\n0 1\n# another\n1 2\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("")
        graph = read_edge_list(path)
        assert graph.num_vertices == 0


class TestNpz:
    def test_roundtrip(self, social_graph, tmp_path):
        path = tmp_path / "graph.npz"
        save_graph_npz(social_graph, path)
        loaded = load_graph_npz(path)
        assert loaded.num_vertices == social_graph.num_vertices
        assert np.array_equal(loaded.edges, social_graph.edges)
        assert np.array_equal(loaded.indptr, social_graph.indptr)
        assert np.array_equal(loaded.indices, social_graph.indices)

    def test_roundtrip_empty_graph(self, tmp_path):
        graph = Graph.from_edges(4, [])
        path = tmp_path / "empty.npz"
        save_graph_npz(graph, path)
        assert load_graph_npz(path).num_edges == 0

    def test_files_with_an_edge_list_still_load(self, social_graph, tmp_path):
        """A file saves the graph's CSR alone; a file in the earlier layout,
        which also holds the edge list, loads to the same graph."""
        path = tmp_path / "graph.npz"
        save_graph_npz(social_graph, path)
        with np.load(path) as data:
            assert sorted(data.files) == ["indices", "indptr", "num_vertices"]
        earlier = tmp_path / "earlier.npz"
        np.savez_compressed(earlier, num_vertices=np.int64(social_graph.num_vertices),
                            edges=social_graph.edges, indptr=social_graph.indptr,
                            indices=social_graph.indices)
        loaded = load_graph_npz(earlier)
        assert loaded.num_vertices == social_graph.num_vertices
        for name in ("edges", "indptr", "indices"):
            value, expected = getattr(loaded, name), getattr(social_graph, name)
            assert value.dtype == expected.dtype, name
            np.testing.assert_array_equal(value, expected, err_msg=name)


class TestPartitionIO:
    def test_roundtrip(self, tmp_path):
        assignment = np.array([0, 1, 2, 1, 0])
        path = tmp_path / "parts.txt"
        write_partition(assignment, path)
        assert np.array_equal(read_partition(path), assignment)


class TestWeightsIO:
    def test_roundtrip(self, social_graph, tmp_path):
        weights = standard_weights(social_graph, 3)
        path = tmp_path / "weights.txt"
        write_weights(weights, path, names=["unit", "degree", "nds"])
        loaded = read_weights(path)
        assert loaded.shape == weights.shape
        assert np.allclose(loaded, weights)

    def test_single_dimension_roundtrip(self, tmp_path):
        weights = np.array([1.0, 2.5, 3.25])
        path = tmp_path / "w.txt"
        write_weights(weights, path)
        assert np.allclose(read_weights(path), weights[None, :])

    def test_name_count_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_weights(np.ones((2, 3)), tmp_path / "w.txt", names=["only-one"])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# {}\n")
        assert read_weights(path).size == 0
