"""Tests of the coarsening layer (graphs/coarsening.py).

Covers the invariants the METIS-like baseline relies on: per-dimension
vertex-weight conservation, edge-weight accounting across contraction,
determinism of the seeded matching, the stall rule, and the baseline's
delegation to the shared implementation.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.baselines.metis_like import MetisLikePartitioner
from repro.graphs import (
    Graph,
    coarsen,
    contract,
    heavy_edge_matching,
    standard_weights,
)


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
@st.composite
def small_weighted_graphs(draw):
    """A connected-ish random graph with 1-3 positive weight dimensions."""
    n = draw(st.integers(min_value=2, max_value=40))
    num_edges = draw(st.integers(min_value=1, max_value=3 * n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(num_edges, 2))
    graph = Graph.from_edges(n, edges)
    d = draw(st.integers(min_value=1, max_value=3))
    weights = rng.uniform(0.5, 3.0, size=(d, n))
    return graph, weights, seed


def _total_edge_weight(adjacency: sparse.csr_matrix) -> float:
    return float(adjacency.sum()) / 2.0


def _coarsen(graph: Graph, weights: np.ndarray, coarsest_size: int, seed: int):
    return coarsen(graph.adjacency_matrix(), weights, coarsest_size=coarsest_size,
                   rng=np.random.default_rng(seed))


# --------------------------------------------------------------------- #
# Contraction invariants
# --------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(small_weighted_graphs())
def test_contraction_conserves_vertex_weight_totals(data):
    """Σ per-dimension vertex weight is identical at every level."""
    graph, weights, seed = data
    totals = weights.sum(axis=1)
    for level in _coarsen(graph, weights, 4, seed):
        np.testing.assert_allclose(level.vertex_weights.sum(axis=1), totals,
                                   rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(small_weighted_graphs())
def test_contraction_accounts_for_every_edge_weight(data):
    """Coarse edge weight plus collapsed intra-cluster weight equals the
    fine total — no weight is created or silently dropped."""
    graph, weights, seed = data
    levels = _coarsen(graph, weights, 4, seed)
    for fine, coarse in zip(levels, levels[1:]):
        mapping = coarse.fine_to_coarse
        upper = sparse.triu(fine.adjacency, k=1).tocoo()
        collapsed = float(upper.data[mapping[upper.row] == mapping[upper.col]].sum())
        np.testing.assert_allclose(
            _total_edge_weight(coarse.adjacency) + collapsed,
            _total_edge_weight(fine.adjacency), rtol=1e-9)


def test_contract_matches_brute_force_on_a_known_graph():
    """Hand-checkable contraction: a 4-cycle with one matched pair."""
    graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    adjacency = graph.adjacency_matrix()
    weights = np.array([[1.0, 2.0, 3.0, 4.0]])
    matching = np.array([1, 0, 2, 3])  # match 0-1; 2 and 3 stay singletons
    level = contract(adjacency, weights, matching)
    assert level.num_vertices == 3
    # Coarse vertex 0 = {0, 1}: weight 3; edges to both 2 (from 1) and 3 (from 0).
    np.testing.assert_allclose(level.vertex_weights, [[3.0, 3.0, 4.0]])
    dense = level.adjacency.toarray()
    expected = np.array([[0.0, 1.0, 1.0],
                         [1.0, 0.0, 1.0],
                         [1.0, 1.0, 0.0]])
    np.testing.assert_allclose(dense, expected)
    assert np.array_equal(level.fine_to_coarse, [0, 0, 1, 2])


# --------------------------------------------------------------------- #
# Matchings
# --------------------------------------------------------------------- #
def test_heavy_edge_matching_is_an_involution(social_graph):
    adjacency = social_graph.adjacency_matrix()
    match = heavy_edge_matching(adjacency, np.random.default_rng(3))
    vertices = np.arange(social_graph.num_vertices)
    # match is an involution: partner's partner is the vertex itself.
    assert np.array_equal(match[match], vertices)
    # Matched pairs are actual edges.
    paired = vertices[match != vertices]
    for vertex in paired[:50]:
        assert match[vertex] in social_graph.neighbors(vertex)


def test_coarsening_is_seed_deterministic(social_graph):
    weights = standard_weights(social_graph, 2)
    a = _coarsen(social_graph, weights, 32, 11)
    b = _coarsen(social_graph, weights, 32, 11)
    assert len(a) == len(b) > 1
    for la, lb in zip(a, b):
        assert (la.adjacency != lb.adjacency).nnz == 0
        np.testing.assert_array_equal(la.vertex_weights, lb.vertex_weights)
        if la.fine_to_coarse is not None:
            np.testing.assert_array_equal(la.fine_to_coarse, lb.fine_to_coarse)


def test_hierarchy_stalls_gracefully_on_a_star(small_star):
    """Star graphs are matching-hostile: coarsening must stop, not spin."""
    weights = standard_weights(small_star, 1)
    levels = _coarsen(small_star, weights, 4, 0)
    assert len(levels) >= 1
    assert levels[0].num_vertices == small_star.num_vertices


# --------------------------------------------------------------------- #
# METIS-like delegation (the deduplication satellite)
# --------------------------------------------------------------------- #
def test_metis_coarsen_delegates_to_shared_hierarchy(social_graph):
    """The baseline's _coarsen is a thin wrapper over the shared
    coarsening: identical levels for an identically-seeded RNG."""
    weights = standard_weights(social_graph, 2)
    adjacency = social_graph.adjacency_matrix()
    partitioner = MetisLikePartitioner(seed=0, coarsest_size=32)
    levels = partitioner._coarsen(adjacency, weights, np.random.default_rng(4))
    reference = _coarsen(social_graph, weights, 32, 4)
    assert len(levels) == len(reference)
    for ours, theirs in zip(levels, reference):
        assert (ours.adjacency != theirs.adjacency).nnz == 0
        np.testing.assert_array_equal(ours.vertex_weights, theirs.vertex_weights)


def test_metis_output_is_seed_stable(social_graph, social_weights):
    """Fixed seed ⇒ identical partition across runs of the refactored code."""
    a = MetisLikePartitioner(seed=3).partition(social_graph, social_weights, 4)
    b = MetisLikePartitioner(seed=3).partition(social_graph, social_weights, 4)
    assert np.array_equal(a.assignment, b.assignment)
