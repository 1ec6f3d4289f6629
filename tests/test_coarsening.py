"""Tests of the coarsening layer (graphs/coarsening.py).

Covers the invariants the METIS-like baseline relies on: per-dimension
vertex-weight conservation, edge-weight accounting across contraction,
exact prolongate/restrict round trips, determinism of the seeded
matching, and the baseline's delegation to the shared implementation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.baselines.metis_like import MetisLikePartitioner
from repro.graphs import (
    CoarseningHierarchy,
    Graph,
    contract,
    standard_weights,
)
from repro.graphs.coarsening import MATCHINGS


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


# --------------------------------------------------------------------- #
# Contraction invariants
# --------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(small_weighted_graphs())
def test_contraction_conserves_vertex_weight_totals(data):
    """Σ per-dimension vertex weight is identical at every level."""
    graph, weights, seed = data
    hierarchy = CoarseningHierarchy.build(graph, weights, coarsest_size=4,
                                          rng=seed, matching="sequential")
    totals = weights.sum(axis=1)
    for level in hierarchy.levels:
        np.testing.assert_allclose(level.vertex_weights.sum(axis=1), totals,
                                   rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(small_weighted_graphs())
def test_contraction_accounts_for_every_edge_weight(data):
    """Coarse edge weight plus collapsed intra-cluster weight equals the
    fine total — no weight is created or silently dropped."""
    graph, weights, seed = data
    hierarchy = CoarseningHierarchy.build(graph, weights, coarsest_size=4,
                                          rng=seed, matching="sequential")
    for fine, coarse in zip(hierarchy.levels, hierarchy.levels[1:]):
        mapping = coarse.fine_to_coarse
        upper = sparse.triu(fine.adjacency, k=1).tocoo()
        collapsed = float(upper.data[mapping[upper.row] == mapping[upper.col]].sum())
        np.testing.assert_allclose(
            _total_edge_weight(coarse.adjacency) + collapsed,
            _total_edge_weight(fine.adjacency), rtol=1e-9)


@settings(max_examples=40, deadline=None)
@given(small_weighted_graphs())
def test_prolongate_restrict_round_trips_labels_exactly(data):
    """restrict(prolongate(x)) is the identity for coarse label vectors,
    and prolongated labels are constant within every cluster."""
    graph, weights, seed = data
    hierarchy = CoarseningHierarchy.build(graph, weights, coarsest_size=4,
                                          rng=seed, matching="sequential")
    rng = np.random.default_rng(seed)
    for level in range(1, hierarchy.num_levels):
        labels = rng.integers(0, 2, size=hierarchy.levels[level].num_vertices)
        fine = hierarchy.prolongate(labels, level)
        assert np.array_equal(hierarchy.restrict(fine, level - 1), labels)
        mapping = hierarchy.levels[level].fine_to_coarse
        # Constant within clusters: every fine member carries its parent's label.
        assert np.array_equal(fine, labels[mapping])


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
@pytest.mark.parametrize("matcher", list(MATCHINGS.values()))
def test_matchings_are_involutions(matcher, social_graph):
    adjacency = social_graph.adjacency_matrix()
    match = matcher(adjacency, np.random.default_rng(3))
    vertices = np.arange(social_graph.num_vertices)
    # match is an involution: partner's partner is the vertex itself.
    assert np.array_equal(match[match], vertices)
    # Matched pairs are actual edges.
    paired = vertices[match != vertices]
    for vertex in paired[:50]:
        assert match[vertex] in social_graph.neighbors(vertex)


@pytest.mark.parametrize("matching", sorted(MATCHINGS))
def test_hierarchy_build_is_seed_deterministic(matching, social_graph):
    weights = standard_weights(social_graph, 2)
    a = CoarseningHierarchy.build(social_graph, weights, coarsest_size=32,
                                  rng=11, matching=matching)
    b = CoarseningHierarchy.build(social_graph, weights, coarsest_size=32,
                                  rng=11, matching=matching)
    assert a.sizes == b.sizes
    for la, lb in zip(a.levels, b.levels):
        assert (la.adjacency != lb.adjacency).nnz == 0
        np.testing.assert_array_equal(la.vertex_weights, lb.vertex_weights)
        if la.fine_to_coarse is not None:
            np.testing.assert_array_equal(la.fine_to_coarse, lb.fine_to_coarse)


def test_hierarchy_stalls_gracefully_on_a_star(small_star):
    """Star graphs are matching-hostile: the hierarchy must stop, not spin."""
    weights = standard_weights(small_star, 1)
    hierarchy = CoarseningHierarchy.build(small_star, weights, coarsest_size=4,
                                          rng=0, matching="sequential")
    assert hierarchy.num_levels >= 1
    assert hierarchy.sizes[0] == small_star.num_vertices


def test_graph_at_reconstructs_the_pattern(social_graph):
    weights = standard_weights(social_graph, 1)
    hierarchy = CoarseningHierarchy.build(social_graph, weights,
                                          coarsest_size=64, rng=5,
                                          matching="sequential")
    assert hierarchy.graph_at(0) is social_graph
    level = hierarchy.num_levels - 1
    coarse_graph = hierarchy.graph_at(level)
    adjacency = hierarchy.adjacency_at(level)
    assert coarse_graph.num_vertices == adjacency.shape[0]
    pattern = adjacency.copy()
    pattern.data[:] = 1.0
    assert (coarse_graph.adjacency_matrix() != pattern).nnz == 0


# --------------------------------------------------------------------- #
# METIS-like delegation (the deduplication satellite)
# --------------------------------------------------------------------- #
def test_metis_coarsen_delegates_to_shared_hierarchy(social_graph):
    """The baseline's _coarsen is a thin wrapper over the shared builder:
    identical levels for an identically-seeded RNG."""
    weights = standard_weights(social_graph, 2)
    adjacency = social_graph.adjacency_matrix()
    partitioner = MetisLikePartitioner(seed=0, coarsest_size=32)
    levels = partitioner._coarsen(adjacency, weights, np.random.default_rng(4))
    reference = CoarseningHierarchy.build(adjacency, weights, coarsest_size=32,
                                          rng=np.random.default_rng(4),
                                          matching="sequential").levels
    assert len(levels) == len(reference)
    for ours, theirs in zip(levels, reference):
        assert (ours.adjacency != theirs.adjacency).nnz == 0
        np.testing.assert_array_equal(ours.vertex_weights, theirs.vertex_weights)


def test_metis_output_is_seed_stable(social_graph, social_weights):
    """Fixed seed ⇒ identical partition across runs of the refactored code."""
    a = MetisLikePartitioner(seed=3).partition(social_graph, social_weights, 4)
    b = MetisLikePartitioner(seed=3).partition(social_graph, social_weights, 4)
    assert np.array_equal(a.assignment, b.assignment)


def test_build_rejects_unknown_matching(social_graph):
    weights = standard_weights(social_graph, 1)
    with pytest.raises(ValueError, match="matching"):
        CoarseningHierarchy.build(social_graph, weights, matching="magnetic")


def test_prolongate_restrict_validate_levels(social_graph):
    weights = standard_weights(social_graph, 1)
    hierarchy = CoarseningHierarchy.build(social_graph, weights,
                                          coarsest_size=64, rng=1,
                                          matching="sequential")
    with pytest.raises(ValueError):
        hierarchy.prolongate(np.zeros(3), 0)
    with pytest.raises(ValueError):
        hierarchy.restrict(np.zeros(3), hierarchy.num_levels - 1)
