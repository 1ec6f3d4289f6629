"""Tests of the batched wave extraction :meth:`Graph.subgraphs`.

Every level of the recursive scheduler extracts the induced subgraphs of
a whole wave of disjoint vertex sets in one pass over the edge list.
"""

from __future__ import annotations

import numpy as np
import pytest


class TestSubgraphs:
    def test_matches_per_set_subgraph_calls(self, social_graph):
        rng = np.random.default_rng(3)
        order = rng.permutation(social_graph.num_vertices)
        sets = [order[:100], order[100:130], order[200:260]]
        batched = social_graph.subgraphs(sets)
        for ids, (subgraph, mapping) in zip(sets, batched):
            expected_graph, expected_mapping = social_graph.subgraph(ids)
            assert np.array_equal(mapping, expected_mapping)
            assert subgraph.num_vertices == expected_graph.num_vertices
            assert np.array_equal(subgraph.edges, expected_graph.edges)
            assert np.array_equal(subgraph.indptr, expected_graph.indptr)
            assert np.array_equal(subgraph.indices, expected_graph.indices)

    def test_empty_wave_and_empty_sets(self, small_grid):
        assert small_grid.subgraphs([]) == []
        (subgraph, mapping), = small_grid.subgraphs([np.array([], dtype=np.int64)])
        assert subgraph.num_vertices == 0
        assert mapping.size == 0

    def test_rejects_overlapping_sets(self, small_grid):
        with pytest.raises(ValueError, match="disjoint"):
            small_grid.subgraphs([[0, 1, 2], [2, 3]])

    def test_rejects_out_of_range_ids(self, small_grid):
        with pytest.raises(ValueError, match="out of range"):
            small_grid.subgraphs([[0, small_grid.num_vertices]])
