"""Tests of the batched wave extraction :meth:`Graph.subgraphs`.

Every level of the recursive scheduler extracts the induced subgraphs of
a whole wave of disjoint vertex sets in one call, each as a row filter of
the parent's CSR.  The property test below holds it to the definition: the
parent's edge list filtered to the set and rebuilt with ``_build_csr``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import DynamicGraph, UpdateBatch
from repro.graphs import Graph


def _reference_subgraph(graph: Graph, ids) -> tuple[Graph, np.ndarray]:
    """The induced subgraph by definition: relabel the parent's edges onto
    the sorted set, drop those leaving it, and sort them into a CSR.  The
    graph is built from that CSR, and the edge list it derives must be the
    filtered edges (already sorted: the relabelling is monotone)."""
    mapping = np.unique(np.asarray(ids, dtype=np.int64))
    new_id = np.full(graph.num_vertices, -1, dtype=np.int64)
    new_id[mapping] = np.arange(mapping.size)
    sources, targets = new_id[graph.edges[:, 0]], new_id[graph.edges[:, 1]]
    keep = (sources >= 0) & (targets >= 0)
    edges = np.column_stack([sources[keep], targets[keep]])
    indptr, indices = Graph._build_csr(mapping.size, edges)
    reference = Graph.from_csr(int(mapping.size), indptr, indices)
    np.testing.assert_array_equal(reference.edges, edges)
    return reference, mapping


def _assert_same(actual: tuple[Graph, np.ndarray], expected: tuple[Graph, np.ndarray]):
    (graph, mapping), (expected_graph, expected_mapping) = actual, expected
    assert graph.num_vertices == expected_graph.num_vertices
    for name in ("edges", "indptr", "indices"):
        value, reference = getattr(graph, name), getattr(expected_graph, name)
        assert value.dtype == reference.dtype, name
        np.testing.assert_array_equal(value, reference, err_msg=name)
    assert mapping.dtype == expected_mapping.dtype
    np.testing.assert_array_equal(mapping, expected_mapping)


@st.composite
def _from_edges_graphs(draw) -> Graph:
    connected = draw(st.integers(min_value=0, max_value=25))
    isolated = draw(st.integers(min_value=0, max_value=3))
    edges = draw(st.lists(st.tuples(st.integers(0, connected - 1),
                                    st.integers(0, connected - 1)),
                          max_size=90)) if connected else []
    return Graph.from_edges(connected + isolated, edges)


@st.composite
def _churned_snapshots(draw) -> Graph:
    """A :class:`DynamicGraph` snapshot after a few random update batches."""
    graph = draw(_from_edges_graphs().filter(lambda graph: graph.num_vertices >= 2))
    n = graph.num_vertices
    dynamic = DynamicGraph(graph, np.ones((1, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        edges = dynamic.snapshot().edges
        deletions = edges[rng.random(edges.shape[0]) < 0.3]
        existing = {tuple(edge) for edge in edges.tolist()}
        pairs = np.sort(rng.integers(0, n, size=(12, 2)), axis=1)
        insertions = sorted({(u, v) for u, v in pairs.tolist()
                             if u != v and (u, v) not in existing})
        dynamic.apply(UpdateBatch(insertions=np.array(insertions, dtype=np.int64)
                                  .reshape(-1, 2), deletions=deletions))
    return dynamic.snapshot()


@st.composite
def _disjoint_families(draw, n: int) -> list[np.ndarray]:
    """Disjoint vertex sets of ``0..n-1``, in any order and with repeats:
    some empty, some singletons, sometimes one set holding every vertex."""
    if draw(st.booleans()):
        labels = np.zeros(n, dtype=np.int64)
        num_sets = 1
    else:
        num_sets = draw(st.integers(min_value=1, max_value=5))
        labels = np.array(draw(st.lists(st.integers(-1, num_sets - 1),
                                        min_size=n, max_size=n)), dtype=np.int64)
    family = [np.flatnonzero(labels == index) for index in range(num_sets)]
    if n and num_sets > 1 and draw(st.booleans()):
        vertex = draw(st.integers(0, n - 1))
        family = [ids[ids != vertex] for ids in family] + [np.array([vertex])]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        family = [rng.permutation(np.concatenate([ids, ids[:1]])) for ids in family]
    if draw(st.booleans()):
        family = [ids.tolist() for ids in family]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        family.insert(draw(st.integers(0, len(family))), np.array([], dtype=np.int64))
    return family


@settings(max_examples=200, deadline=None)
@given(data=st.data(), graph=st.one_of(_from_edges_graphs(), _churned_snapshots()))
def test_extraction_equals_its_definition(data, graph):
    family = data.draw(_disjoint_families(graph.num_vertices))
    extracted = graph.subgraphs(family)
    assert len(extracted) == len(family)
    for ids, result in zip(family, extracted):
        _assert_same(result, _reference_subgraph(graph, ids))
        _assert_same(graph.subgraph(ids), result)
        if result[1].size == graph.num_vertices:
            assert result[0] is graph


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
