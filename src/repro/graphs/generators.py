"""Synthetic graph generators used as stand-ins for the paper's datasets.

The paper evaluates on SNAP social networks (LiveJournal, Orkut, Twitter,
Friendster), subsets of the Facebook friendship graph with up to 800B edges
(FB-X), and the sx-stackoverflow interaction graph.  Those datasets are not
available offline and are far beyond laptop scale, so this module provides
generators that reproduce the two structural properties the partitioning
algorithms are sensitive to:

* a skewed (power-law-like) degree distribution, and
* community structure (clusters of well-connected vertices).

Each generator is deterministic given a seed.  ``datasets.py`` exposes
named presets (``livejournal_like`` etc.) with calibrated relative sizes.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, in_sorted

__all__ = [
    "chung_lu_graph",
    "churn_trace",
    "planted_partition_graph",
    "power_law_cluster_graph",
    "random_regular_graph",
    "erdos_renyi_graph",
    "ring_of_cliques",
    "star_graph",
    "grid_graph",
    "complete_graph",
]


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _power_law_weights(num_vertices: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Sample expected-degree weights from a Pareto-like distribution.

    The tail is truncated at ``n / 8`` — large social graphs have hub
    vertices whose degree is a sizable fraction of the graph, and that skew
    is what makes single-dimension balanced partitions overload individual
    workers (Figure 1 of the paper).
    """
    # Inverse-CDF sampling of P(W > w) ~ w^{-(exponent - 1)}.
    uniform = rng.random(num_vertices)
    weights = (1.0 - uniform) ** (-1.0 / (exponent - 1.0))
    return np.minimum(weights, max(num_vertices / 8.0, 1.0))


def chung_lu_graph(
    num_vertices: int,
    average_degree: float,
    exponent: float = 2.5,
    seed: int | np.random.Generator | None = None,
) -> Graph:
    """Chung--Lu random graph with a power-law expected-degree sequence.

    Edge ``(u, v)`` is present with probability proportional to
    ``w_u * w_v`` where the weights follow a truncated power law with the
    given ``exponent``.  The graph is sampled edge-by-edge using the
    efficient "weighted endpoint" approximation, which gives the correct
    expected degree sequence for sparse graphs.
    """
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    rng = _rng(seed)
    weights = _power_law_weights(num_vertices, exponent, rng)
    probabilities = weights / weights.sum()
    target_edges = int(average_degree * num_vertices / 2)
    # Oversample to compensate for self loops / duplicates removed later.
    sample_size = int(target_edges * 1.3) + 1
    sources = rng.choice(num_vertices, size=sample_size, p=probabilities)
    targets = rng.choice(num_vertices, size=sample_size, p=probabilities)
    edges = np.column_stack([sources, targets])
    graph = Graph.from_edges(num_vertices, edges)
    return graph


def planted_partition_graph(
    num_vertices: int,
    num_communities: int,
    intra_degree: float,
    inter_degree: float,
    seed: int | np.random.Generator | None = None,
) -> Graph:
    """Graph with ``num_communities`` planted communities.

    Every vertex receives ``intra_degree`` expected edges inside its own
    community and ``inter_degree`` expected edges to the rest of the graph.
    This is the structure that makes balanced partitioning meaningful: a
    good partitioner should recover (unions of) communities.
    """
    if num_communities <= 0:
        raise ValueError("num_communities must be positive")
    rng = _rng(seed)
    community = rng.integers(0, num_communities, size=num_vertices)
    edge_chunks: list[np.ndarray] = []

    # Intra-community edges: sample endpoints within each community.
    for c in range(num_communities):
        members = np.flatnonzero(community == c)
        if members.size < 2:
            continue
        count = int(intra_degree * members.size / 2)
        if count == 0:
            continue
        u = rng.choice(members, size=count)
        v = rng.choice(members, size=count)
        edge_chunks.append(np.column_stack([u, v]))

    # Inter-community edges: uniform endpoints.
    inter_count = int(inter_degree * num_vertices / 2)
    if inter_count:
        u = rng.integers(0, num_vertices, size=inter_count)
        v = rng.integers(0, num_vertices, size=inter_count)
        edge_chunks.append(np.column_stack([u, v]))

    if edge_chunks:
        edges = np.concatenate(edge_chunks, axis=0)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return Graph.from_edges(num_vertices, edges)


def power_law_cluster_graph(
    num_vertices: int,
    num_communities: int,
    average_degree: float,
    exponent: float = 2.3,
    mixing: float = 0.15,
    degree_community_correlation: float = 0.5,
    seed: int | np.random.Generator | None = None,
) -> Graph:
    """Social-network-like generator: power-law degrees *and* communities.

    This is the default stand-in for the paper's datasets.  Each vertex is
    assigned to a community; a fraction ``1 - mixing`` of its expected edges
    stays inside the community (endpoints chosen Chung--Lu style within the
    community) and a fraction ``mixing`` goes to uniformly random vertices.

    ``degree_community_correlation`` controls how strongly high-degree
    vertices concentrate in the same communities (0 = independent, 1 = hubs
    fully co-clustered).  Real social graphs exhibit this concentration,
    and it is what makes single-dimension balanced partitions overload
    individual workers (Figure 1 of the paper).
    """
    if not 0.0 <= mixing <= 1.0:
        raise ValueError("mixing must be in [0, 1]")
    if not 0.0 <= degree_community_correlation <= 1.0:
        raise ValueError("degree_community_correlation must be in [0, 1]")
    rng = _rng(seed)
    weights = _power_law_weights(num_vertices, exponent, rng)
    communities = max(num_communities, 1)
    # Community assignment: blend a random score with the degree rank so a
    # tunable fraction of the hubs end up in the same communities.
    degree_rank = np.empty(num_vertices)
    degree_rank[np.argsort(weights)] = np.arange(num_vertices) / max(num_vertices - 1, 1)
    score = ((1.0 - degree_community_correlation) * rng.random(num_vertices)
             + degree_community_correlation * degree_rank)
    community = np.minimum((score * communities).astype(np.int64), communities - 1)
    target_edges = int(average_degree * num_vertices / 2)
    intra_edges = int(target_edges * (1.0 - mixing) * 1.3)
    inter_edges = int(target_edges * mixing * 1.3)

    edge_chunks: list[np.ndarray] = []
    for c in range(num_communities):
        members = np.flatnonzero(community == c)
        if members.size < 2:
            continue
        member_weights = weights[members]
        probabilities = member_weights / member_weights.sum()
        count = int(intra_edges * members.size / num_vertices)
        if count == 0:
            continue
        u = rng.choice(members, size=count, p=probabilities)
        v = rng.choice(members, size=count, p=probabilities)
        edge_chunks.append(np.column_stack([u, v]))

    if inter_edges:
        probabilities = weights / weights.sum()
        u = rng.choice(num_vertices, size=inter_edges, p=probabilities)
        v = rng.choice(num_vertices, size=inter_edges, p=probabilities)
        edge_chunks.append(np.column_stack([u, v]))

    if edge_chunks:
        edges = np.concatenate(edge_chunks, axis=0)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return Graph.from_edges(num_vertices, edges)


def churn_trace(
    graph: Graph,
    num_batches: int,
    churn_fraction: float = 0.01,
    seed: int | np.random.Generator | None = None,
    exponent: float = 2.5,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Generate a deterministic edge-churn trace over ``graph``.

    Each batch deletes ``churn_fraction`` of the *current* edges (chosen
    uniformly) and inserts up to the same number of fresh edges whose
    endpoints are sampled degree-biased (so the power-law shape of the
    social-graph presets survives the churn), giving the (approximately)
    edge-count-stationary update stream the dynamic-graph experiments
    replay.  On sparse graphs insertions always match deletions; on
    near-complete graphs — where fewer fresh edge slots may exist than
    requested, since a batch never re-inserts an edge it deletes — a
    batch may carry fewer insertions rather than loop forever.  Batches
    are consistent by construction: no batch inserts an existing edge,
    deletes a missing one, or both inserts and deletes the same edge —
    exactly the contract :meth:`repro.dynamic.DynamicGraph.apply`
    enforces.

    Returns one ``(insertions, deletions)`` pair of ``(c, 2)`` int64
    arrays per batch (the caller wraps them into
    :class:`repro.dynamic.UpdateBatch` es, optionally adding weight
    deltas).  The trace only depends on ``graph``, the parameters and the
    ``seed``.
    """
    if num_batches < 0:
        raise ValueError("num_batches must be non-negative")
    if not 0.0 < churn_fraction < 1.0:
        raise ValueError("churn_fraction must be in (0, 1)")
    rng = _rng(seed)
    n = graph.num_vertices
    if n < 2:
        raise ValueError("churn requires at least two vertices")
    scale = np.int64(n)
    # The live edge set as a sorted key array ``u * n + v`` (``u < v``),
    # spliced per batch: O(delta log m) searches plus a memcpy, never a
    # re-sort.  The CSR's upper entries (target > row) in CSR order are
    # the keys in ascending order (the class's row order lists them so).
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    upper = graph.indices > rows
    keys = rows[upper] * scale + graph.indices[upper]
    # Endpoint bias from the *initial* degrees: recomputing degrees per
    # batch would make the trace cost O(n) per batch for no modelling
    # gain at these churn rates.
    bias = np.maximum(graph.degrees, 1.0)
    probabilities = bias / bias.sum()

    batches: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(num_batches):
        count = max(1, int(churn_fraction * keys.size))
        delete_keys = rng.choice(keys, size=min(count, keys.size), replace=False)
        deletions = np.column_stack([delete_keys // scale, delete_keys % scale])

        # Candidate endpoints are drawn in vectorized blocks (one cumsum
        # of the bias vector per block, not per candidate) and filtered
        # in one pass per block, as a scan in draw order would: self loops,
        # live edges (the batch's deletions among them) and edges already
        # accepted are skipped, and the first unseen candidates are kept
        # up to the count.  The attempt budget bounds the loop on dense
        # graphs, where fewer fresh slots than ``count`` may exist.
        accepted = np.empty(0, dtype=np.int64)
        attempts_left = 16
        while accepted.size < count and attempts_left:
            attempts_left -= 1
            draws = rng.choice(n, size=(2 * count, 2), p=probabilities)
            lo, hi = draws.min(axis=1), draws.max(axis=1)
            candidates = (lo * scale + hi)[lo != hi]
            taken = np.sort(accepted)
            candidates = candidates[~in_sorted(keys, candidates, keys.searchsorted(candidates))
                                    & ~in_sorted(taken, candidates, taken.searchsorted(candidates))]
            _, first = np.unique(candidates, return_index=True)
            first.sort()
            accepted = np.concatenate([accepted, candidates[first[:count - accepted.size]]])
        insert_array = np.column_stack([accepted // scale, accepted % scale])
        insert_keys = np.sort(accepted)

        keep = np.ones(keys.size, dtype=bool)
        keep[np.searchsorted(keys, delete_keys)] = False
        kept = keys[keep]
        keys = np.insert(kept, np.searchsorted(kept, insert_keys), insert_keys)
        batches.append((insert_array, deletions))
    return batches


def random_regular_graph(num_vertices: int, degree: int,
                         seed: int | np.random.Generator | None = None) -> Graph:
    """Approximately ``degree``-regular graph via the configuration model."""
    if degree < 0 or degree >= num_vertices:
        raise ValueError("degree must be in [0, num_vertices)")
    rng = _rng(seed)
    stubs = np.repeat(np.arange(num_vertices), degree)
    rng.shuffle(stubs)
    if stubs.size % 2:
        stubs = stubs[:-1]
    edges = stubs.reshape(-1, 2)
    return Graph.from_edges(num_vertices, edges)


def erdos_renyi_graph(num_vertices: int, edge_probability: float,
                      seed: int | np.random.Generator | None = None) -> Graph:
    """G(n, p) random graph (only suitable for small ``n``)."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must be in [0, 1]")
    rng = _rng(seed)
    upper = np.triu_indices(num_vertices, k=1)
    mask = rng.random(upper[0].size) < edge_probability
    edges = np.column_stack([upper[0][mask], upper[1][mask]])
    return Graph.from_edges(num_vertices, edges)


def ring_of_cliques(num_cliques: int, clique_size: int) -> Graph:
    """``num_cliques`` cliques connected in a ring by single edges.

    A classic partitioning benchmark: the optimal bisection cuts exactly two
    ring edges, so the ideal edge locality is known in closed form.
    """
    if num_cliques < 1 or clique_size < 1:
        raise ValueError("num_cliques and clique_size must be positive")
    edges = []
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
        nxt = ((c + 1) % num_cliques) * clique_size
        if num_cliques > 1:
            edges.append((base, nxt))
    return Graph.from_edges(num_cliques * clique_size, edges)


def star_graph(num_leaves: int) -> Graph:
    """Star with one hub (vertex 0) and ``num_leaves`` leaves."""
    edges = [(0, i) for i in range(1, num_leaves + 1)]
    return Graph.from_edges(num_leaves + 1, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """2-D grid graph with ``rows * cols`` vertices."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges)


def complete_graph(num_vertices: int) -> Graph:
    """Complete graph on ``num_vertices`` vertices."""
    upper = np.triu_indices(num_vertices, k=1)
    edges = np.column_stack(upper)
    return Graph.from_edges(num_vertices, edges)
