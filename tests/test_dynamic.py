"""Tests of the dynamic-graph engine: update layer, incremental metrics,
and the incremental repartitioner."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import ExecutionConfig, GDConfig, GDPartitioner, recursive_bisection
from repro.dynamic import (
    DynamicGraph,
    IncrementalMetrics,
    IncrementalRepartitioner,
    UpdateBatch,
    read_update_batches,
    repair_config,
    write_update_batches,
)
from repro.dynamic.repartition import expand_hops
from repro.graphs import Graph, churn_trace, fb_like, standard_weights
from repro.graphs.generators import power_law_cluster_graph
from repro.partition import (
    Partition,
    cut_size,
    edge_locality,
    is_epsilon_balanced,
    max_imbalance,
)


def _random_batch(dynamic: DynamicGraph, rng: np.random.Generator,
                  edge_changes: int = 12,
                  weight_changes: int = 4) -> UpdateBatch:
    """A valid batch against the current state: deletions drawn from the
    live edge set, insertions avoiding it, positive-preserving deltas."""
    n = dynamic.num_vertices
    edges = dynamic.snapshot().edges
    delete_count = min(edge_changes, edges.shape[0])
    deletions = (edges[rng.choice(edges.shape[0], size=delete_count, replace=False)]
                 if delete_count else np.empty((0, 2), dtype=np.int64))
    blocked = {(int(u), int(v)) for u, v in deletions}
    insertions = []
    attempts = 0
    while len(insertions) < edge_changes and attempts < 50 * edge_changes:
        attempts += 1
        u, v = rng.integers(0, n, size=2)
        lo, hi = (int(min(u, v)), int(max(u, v)))
        if lo == hi or dynamic.has_edge(lo, hi) or (lo, hi) in blocked:
            continue
        blocked.add((lo, hi))
        insertions.append((lo, hi))
    vertices = rng.integers(0, n, size=weight_changes)
    deltas = rng.uniform(0.05, 0.4, size=(dynamic.num_dimensions, weight_changes))
    return UpdateBatch(insertions=np.asarray(insertions, dtype=np.int64).reshape(-1, 2),
                       deletions=deletions, weight_vertices=vertices,
                       weight_deltas=deltas)


@pytest.fixture
def small_dynamic() -> DynamicGraph:
    graph = power_law_cluster_graph(120, 4, 8.0, seed=3)
    return DynamicGraph(graph, standard_weights(graph, 2))


class TestDynamicGraph:
    def test_snapshot_matches_from_scratch_rebuild(self, small_dynamic):
        """The parity contract: after any batch sequence the snapshot is
        bit-identical to Graph.from_edges over the same edge set."""
        rng = np.random.default_rng(0)
        for _ in range(6):
            small_dynamic.apply(_random_batch(small_dynamic, rng))
            snapshot = small_dynamic.snapshot()
            rebuilt = Graph.from_edges(snapshot.num_vertices, snapshot.edges)
            np.testing.assert_array_equal(snapshot.edges, rebuilt.edges)
            np.testing.assert_array_equal(snapshot.indptr, rebuilt.indptr)
            np.testing.assert_array_equal(snapshot.indices, rebuilt.indices)

    def test_snapshots_are_immutable_history(self, small_dynamic):
        before = small_dynamic.snapshot()
        edges_before = before.edges.copy()
        rng = np.random.default_rng(1)
        small_dynamic.apply(_random_batch(small_dynamic, rng))
        np.testing.assert_array_equal(before.edges, edges_before)
        assert small_dynamic.snapshot() is not before

    def test_rejects_duplicate_insert(self, small_dynamic):
        existing = small_dynamic.snapshot().edges[:1]
        with pytest.raises(ValueError, match="already exists"):
            small_dynamic.apply(UpdateBatch(insertions=existing))

    def test_rejects_missing_delete(self, small_dynamic):
        n = small_dynamic.num_vertices
        missing = None
        for u in range(n):
            for v in range(u + 1, n):
                if not small_dynamic.has_edge(u, v):
                    missing = [[u, v]]
                    break
            if missing:
                break
        with pytest.raises(ValueError, match="does not exist"):
            small_dynamic.apply(UpdateBatch(deletions=missing))

    def test_rejects_insert_and_delete_of_same_edge(self, small_dynamic):
        edge = small_dynamic.snapshot().edges[:1]
        with pytest.raises(ValueError, match="both inserted and deleted"):
            small_dynamic.apply(UpdateBatch(insertions=edge, deletions=edge))

    def test_rejects_nonpositive_weight(self, small_dynamic):
        with pytest.raises(ValueError, match="strictly positive"):
            small_dynamic.apply(UpdateBatch(weight_vertices=[0],
                                            weight_deltas=[[-100.0], [0.0]]))

    def test_apply_is_atomic(self, small_dynamic):
        """A rejected batch leaves neither half applied: valid edge churn
        bundled with an invalid weight delta must not touch the graph."""
        n = small_dynamic.num_vertices
        fresh = next((u, v) for u in range(n) for v in range(u + 1, n)
                     if not small_dynamic.has_edge(u, v))
        edges_before = small_dynamic.num_edges
        weights_before = small_dynamic.weights.copy()
        with pytest.raises(ValueError, match="strictly positive"):
            small_dynamic.apply(UpdateBatch(
                insertions=[fresh], weight_vertices=[0],
                weight_deltas=[[-100.0], [0.0]]))
        assert not small_dynamic.has_edge(*fresh)
        assert small_dynamic.num_edges == edges_before
        np.testing.assert_array_equal(small_dynamic.weights, weights_before)
        # The corrected batch then applies cleanly.
        small_dynamic.apply(UpdateBatch(insertions=[fresh]))
        assert small_dynamic.has_edge(*fresh)

    def test_weight_deltas_accumulate_duplicates(self, small_dynamic):
        before = small_dynamic.weights[:, 5].copy()
        small_dynamic.apply(UpdateBatch(weight_vertices=[5, 5],
                                        weight_deltas=[[0.25, 0.5], [0.125, 0.25]]))
        np.testing.assert_allclose(small_dynamic.weights[:, 5],
                                   before + [0.75, 0.375])

    def test_self_loops_and_duplicates_dropped(self, small_dynamic):
        """Within-batch canonicalization mirrors Graph.from_edges."""
        n = small_dynamic.num_vertices
        fresh = None
        for u in range(n):
            for v in range(u + 1, n):
                if not small_dynamic.has_edge(u, v):
                    fresh = (u, v)
                    break
            if fresh:
                break
        edges_before = small_dynamic.num_edges
        canonical = small_dynamic.apply(UpdateBatch(
            insertions=[[3, 3], fresh, (fresh[1], fresh[0])]))
        assert canonical.insertions.shape == (1, 2)
        assert small_dynamic.num_edges == edges_before + 1


@st.composite
def churn_cases(draw):
    """A small graph and a sequence of valid batches against it.

    Returns ``(n, edges, batches)``: ``edges`` the initial edge list and
    each batch an ``(insertions, deletions)`` pair of edge lists, valid
    against the edge set the batches before it leave.  Random graphs of
    this size keep isolated vertices; the draws add a star hub, batches
    that delete every edge of a vertex, and batches of many edits on the
    hub, and they list some edges in ``(v, u)`` orientation.
    """
    n = draw(st.integers(1, 24))
    vertex = st.integers(0, n - 1)
    hub = draw(vertex)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    if draw(st.booleans()):
        pairs += [(hub, v) for v in draw(st.sets(vertex, max_size=n))]
    live = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    edges = sorted(live)

    def oriented(edge_set):
        return [(v, u) if draw(st.booleans()) else (u, v) for u, v in sorted(edge_set)]

    batches = []
    for _ in range(draw(st.integers(1, 3))):
        deletions = (set(draw(st.lists(st.sampled_from(sorted(live)), max_size=8)))
                     if live else set())
        if draw(st.booleans()):
            cleared = draw(vertex)
            deletions |= {edge for edge in live if cleared in edge}
        missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in live]
        insertions = (set(draw(st.lists(st.sampled_from(missing), max_size=8)))
                      if missing else set())
        if draw(st.booleans()):
            hub_edges = {edge for edge in live if hub in edge}
            deletions |= set(sorted(hub_edges)[::2])
            insertions |= {edge for edge in missing if hub in edge}
        live = (live - deletions) | insertions
        batches.append((oriented(insertions), oriented(deletions)))
    return n, edges, batches


def _edge_array(edges) -> np.ndarray:
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


class TestSpliceProperties:
    @settings(max_examples=150, deadline=None)
    @given(case=churn_cases())
    # A star hub 0 and isolated 5-7: clear the hub, insert at isolated vertices.
    @example(case=(8, [(0, 1), (0, 2), (0, 3), (0, 4)],
                   [([(6, 7), (5, 6)], [(0, 1), (0, 2), (0, 3), (0, 4)]),
                    ([(0, 7), (0, 5), (1, 6)], [])]))
    # Edits on rows 0 and n - 1.
    @example(case=(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
                   [([(5, 0), (0, 3)], [(4, 5), (0, 1)]),
                    ([(0, 1), (4, 5), (0, 4)], [(0, 5), (0, 3), (2, 3)])]))
    # Many edits on one hub (5): deletions and insertions on both sides of it.
    @example(case=(12, [(0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (5, 6), (1, 2)],
                   [([(5, 7), (5, 8), (5, 9), (10, 5), (5, 11), (0, 11)],
                     [(0, 5), (2, 5), (4, 5), (5, 6)])]))
    def test_splice_equals_a_rebuild(self, case):
        """After every batch the snapshot arrays and the edge keys equal
        those of Graph.from_edges over the edge set the batches leave,
        and the snapshot taken before the batch still describes its
        graph."""
        n, edges, batches = case
        dynamic = DynamicGraph(Graph.from_edges(n, edges), np.ones((1, n)))
        live = {tuple(edge) for edge in edges}
        for insertions, deletions in batches:
            before = dynamic.snapshot()
            arrays_before = [array.copy() for array in
                             (before.edges, before.indptr, before.indices)]
            dynamic.apply(UpdateBatch(insertions=_edge_array(insertions),
                                      deletions=_edge_array(deletions)))
            live = ((live - {(min(e), max(e)) for e in deletions})
                    | {(min(e), max(e)) for e in insertions})
            rebuilt = Graph.from_edges(n, sorted(live))
            snapshot = dynamic.snapshot()
            for name in ("edges", "indptr", "indices"):
                array = getattr(snapshot, name)
                np.testing.assert_array_equal(array, getattr(rebuilt, name))
                assert array.dtype == np.int64
            np.testing.assert_array_equal(
                dynamic._keys, rebuilt.edges[:, 0] * n + rebuilt.edges[:, 1])
            for array, copy in zip((before.edges, before.indptr, before.indices),
                                   arrays_before):
                np.testing.assert_array_equal(array, copy)


class TestIncrementalMetrics:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000), num_parts=st.integers(2, 5),
           num_batches=st.integers(1, 4))
    def test_matches_from_scratch_after_any_batches(self, seed, num_parts,
                                                    num_batches):
        """The ISSUE 5 property: incremental metrics after any update batch
        equal from-scratch metrics on the updated graph (cut exactly,
        weight sums to float tolerance)."""
        rng = np.random.default_rng(seed)
        graph = power_law_cluster_graph(60, 3, 6.0, seed=seed)
        dynamic = DynamicGraph(graph, standard_weights(graph, 2))
        assignment = rng.integers(0, num_parts, size=graph.num_vertices)
        metrics = IncrementalMetrics(dynamic, assignment, num_parts)
        for _ in range(num_batches):
            canonical = dynamic.apply(_random_batch(dynamic, rng, edge_changes=8))
            metrics.apply_batch(canonical)
            # Interleave repair-style moves with the batches.
            moved = rng.choice(graph.num_vertices,
                               size=rng.integers(0, 6), replace=False)
            if moved.size:
                metrics.move(moved, rng.integers(0, num_parts, size=moved.size))

        reference = Partition(graph=dynamic.snapshot(),
                              assignment=metrics.assignment,
                              num_parts=num_parts)
        assert metrics.cut_size == cut_size(reference)
        assert metrics.edge_locality_pct == edge_locality(reference)
        np.testing.assert_allclose(
            metrics.part_weights,
            reference.part_weights(dynamic.weights), rtol=0, atol=1e-9)
        assert abs(metrics.max_imbalance()
                   - max_imbalance(reference, dynamic.weights)) < 1e-9
        for epsilon in (0.01, 0.05, 0.5):
            assert (metrics.is_epsilon_balanced(epsilon)
                    == is_epsilon_balanced(reference, dynamic.weights, epsilon))

    def test_move_handles_both_endpoints_moving(self):
        graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        dynamic = DynamicGraph(graph, np.ones((1, 4)))
        metrics = IncrementalMetrics(dynamic, [0, 0, 1, 1], 2)
        assert metrics.cut_size == 1
        # Swap the middle pair: the (1, 2) edge has both endpoints moving.
        metrics.move(np.array([1, 2]), np.array([1, 0]))
        reference = Partition(graph=graph,
                              assignment=np.array([0, 1, 0, 1]), num_parts=2)
        assert metrics.cut_size == cut_size(reference) == 3


class TestExpandHops:
    def test_hop_radius_on_a_path(self):
        graph = Graph.from_edges(7, [(i, i + 1) for i in range(6)])
        for hops, expected in ((0, [3]), (1, [2, 3, 4]), (2, [1, 2, 3, 4, 5])):
            mask = expand_hops(graph.indptr, graph.indices,
                               np.array([3]), hops, 7)
            assert sorted(np.flatnonzero(mask).tolist()) == expected

    def test_empty_seeds(self):
        graph = Graph.from_edges(3, [(0, 1)])
        mask = expand_hops(graph.indptr, graph.indices,
                           np.empty(0, dtype=np.int64), 3, 3)
        assert not mask.any()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 30), hops=st.integers(0, 3))
    def test_matches_the_per_vertex_bfs(self, data, n, hops):
        """The frontier BFS equals the per-vertex one it replaced, with
        duplicate, isolated and empty seed lists."""
        vertex = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
        graph = Graph.from_edges(n, pairs)
        seeds = np.asarray(data.draw(st.lists(vertex, max_size=6)), dtype=np.int64)
        isolated = np.flatnonzero(np.diff(graph.indptr) == 0)
        if isolated.size and data.draw(st.booleans()):
            seeds = np.concatenate([seeds, isolated[:2]])
        if seeds.size and data.draw(st.booleans()):
            seeds = np.concatenate([seeds, seeds])
        mask = expand_hops(graph.indptr, graph.indices, seeds, hops, n)
        np.testing.assert_array_equal(
            mask, _per_vertex_bfs(graph.indptr, graph.indices, seeds, hops, n))


def _per_vertex_bfs(indptr, indices, seeds, hops, num_vertices):
    """The oracle: the per-vertex BFS ``expand_hops`` replaced, one row
    slice per frontier vertex and ``np.unique`` over the neighbours."""
    mask = np.zeros(num_vertices, dtype=bool)
    seeds = np.asarray(seeds, dtype=np.int64)
    mask[seeds] = True
    frontier = seeds
    for _ in range(hops):
        if frontier.size == 0:
            break
        neighbors = np.concatenate(
            [indices[indptr[v]:indptr[v + 1]] for v in frontier])
        fresh = np.unique(neighbors[~mask[neighbors]]) if neighbors.size else neighbors
        mask[fresh] = True
        frontier = fresh
    return mask


@pytest.fixture(scope="module")
def churn_setup():
    """A partitioned fb-preset graph plus a short churn trace."""
    graph = fb_like(80, scale=0.4, seed=0)
    weights = standard_weights(graph, 2)
    config = GDConfig(iterations=40, seed=0)
    partition = GDPartitioner(epsilon=0.05, config=config).partition(graph, weights, 4)
    trace = churn_trace(graph, 3, 0.01, seed=1)
    return graph, weights, partition, config, trace


def _replay(graph, weights, partition, config, trace, **config_updates):
    dynamic = DynamicGraph(graph, weights)
    repartitioner = IncrementalRepartitioner(
        dynamic, partition.assignment, partition.num_parts, epsilon=0.05,
        config=config.with_updates(**config_updates) if config_updates else config)
    reports = [repartitioner.apply(UpdateBatch(insertions=ins, deletions=dels))
               for ins, dels in trace]
    return repartitioner, reports


class TestIncrementalRepartitioner:
    def test_repair_is_deterministic_across_backends(self, churn_setup):
        """The determinism bar: the repaired assignment after every batch
        is bit-identical across serial and shm."""
        graph, weights, partition, config, trace = churn_setup
        assignments = {}
        for backend in ("serial", "shm"):
            repartitioner, reports = _replay(
                graph, weights, partition, config, trace,
                execution=ExecutionConfig(
                    parallelism=backend,
                    max_workers=2 if backend != "serial" else None))
            assert any(report.mode == "repair" for report in reports)
            assignments[backend] = repartitioner.assignment
        reference = assignments["serial"]
        for backend, assignment in assignments.items():
            np.testing.assert_array_equal(assignment, reference,
                                          err_msg=f"backend {backend}")

    def test_exact_repair_is_deterministic_across_backends(self, churn_setup):
        """The same bar for the ``exact`` projection."""
        graph, weights, partition, config, trace = churn_setup
        assignments = {}
        for backend in ("serial", "shm"):
            repartitioner, reports = _replay(
                graph, weights, partition, config, trace,
                projection_method="exact",
                execution=ExecutionConfig(
                    parallelism=backend,
                    max_workers=2 if backend != "serial" else None))
            assert any(report.mode == "repair" for report in reports)
            assignments[backend] = repartitioner.assignment
        reference = assignments["serial"]
        for backend, assignment in assignments.items():
            np.testing.assert_array_equal(assignment, reference,
                                          err_msg=f"backend {backend}")

    def test_repair_waves_pack_into_arenas_on_shm(self, churn_setup, monkeypatch):
        """On shm a repair walk goes through the shared-memory arena —
        starting assignment and free mask included — not through a
        pickling pool, its pooled waves hold partly frozen tasks, and it
        still matches serial bit for bit."""
        from repro.core import executor as executor_module

        graph, weights, partition, config, trace = churn_setup
        packed = []
        pooled = []
        pack_walk = executor_module.pack_walk
        map_processes = executor_module.BisectionExecutor._map_processes

        def recording_pack_walk(walk, **kwargs):
            packed.append(walk)
            return pack_walk(walk, **kwargs)

        def recording_map_processes(self, refs, labels):
            # A pooled wave: each task's vertex ids sit in the arena.
            ids = self._arena.array("vertex_ids")
            pooled.append((self._walk, [ids[ref.start:ref.stop].copy() for ref in refs]))
            del ids
            return map_processes(self, refs, labels)

        monkeypatch.setattr(executor_module, "pack_walk", recording_pack_walk)
        monkeypatch.setattr(executor_module.BisectionExecutor, "_map_processes",
                            recording_map_processes)
        assignments = {}
        for backend in ("serial", "shm"):
            # Zero hops release only the touched vertices, so the waves
            # carry frozen vertices too.
            repartitioner, reports = _replay(
                graph, weights, partition, config, trace, repartition_hops=0,
                execution=ExecutionConfig(
                    parallelism=backend,
                    max_workers=2 if backend != "serial" else None))
            assert any(report.mode == "repair" for report in reports)
            assignments[backend] = repartitioner.assignment
        repairs = [walk for walk in packed if walk.free is not None]
        assert repairs and all(walk.assignment is not None for walk in repairs)
        waves = [tasks for walk, tasks in pooled if walk.free is not None]
        assert waves and all(len(tasks) >= 2 for tasks in waves)
        assert any(walk.free[ids].any() and not walk.free[ids].all()
                   for walk, tasks in pooled if walk.free is not None for ids in tasks)
        np.testing.assert_array_equal(assignments["shm"], assignments["serial"])

    def test_repair_skips_subtrees_without_released_vertices(self, churn_setup):
        """A node holding no released vertex is not solved: one cut edge
        inside the first half of a 4-way partition repairs the root and
        that half only."""
        graph, weights, partition, config, _ = churn_setup
        dynamic = DynamicGraph(graph, weights)
        repartitioner = IncrementalRepartitioner(
            dynamic, partition.assignment, partition.num_parts, epsilon=0.05,
            config=config.with_updates(repartition_hops=0))
        u = int(np.flatnonzero(partition.assignment == 0)[0])
        v = next(int(w) for w in np.flatnonzero(partition.assignment == 1)
                 if not dynamic.has_edge(min(u, int(w)), max(u, int(w))))
        report = repartitioner.apply(UpdateBatch(insertions=[(min(u, v), max(u, v))]))
        assert report.mode == "repair"
        assert report.repair_tasks == 2
        assert report.gd_iterations == 2 * config.repartition_iterations

    def test_repair_is_reproducible(self, churn_setup):
        graph, weights, partition, config, trace = churn_setup
        first, _ = _replay(graph, weights, partition, config, trace)
        second, _ = _replay(graph, weights, partition, config, trace)
        np.testing.assert_array_equal(first.assignment, second.assignment)

    @pytest.mark.parametrize("method", ["alternating_oneshot", "exact"])
    def test_rebuilt_repartitioner_repairs_as_the_long_running_one(self, churn_setup,
                                                                    method):
        """A repair depends only on the graph, weights, assignment, batch
        and config: before every batch, a repartitioner rebuilt from the
        live snapshot and the current assignment (a restarted service)
        absorbs it exactly as the long-running one does."""
        graph, weights, partition, config, _ = churn_setup
        config = config.with_updates(projection_method=method)
        running = IncrementalRepartitioner(
            DynamicGraph(graph, weights), partition.assignment, partition.num_parts,
            epsilon=0.05, config=config)
        modes = []
        for index, (insertions, deletions) in enumerate(churn_trace(graph, 6, 0.002,
                                                                    seed=5)):
            rebuilt = IncrementalRepartitioner(
                DynamicGraph(running.dynamic.snapshot(), running.dynamic.weights),
                running.assignment, partition.num_parts, epsilon=0.05, config=config)
            expected = running.apply(UpdateBatch(insertions=insertions, deletions=deletions))
            report = rebuilt.apply(UpdateBatch(insertions=insertions, deletions=deletions))
            np.testing.assert_array_equal(rebuilt.assignment, running.assignment,
                                          err_msg=f"batch {index}")
            assert (dataclasses.replace(report, elapsed_seconds=0.0)
                    == dataclasses.replace(expected, elapsed_seconds=0.0)), index
            modes.append(expected.mode)
        assert modes.count("repair") >= 3, modes

    def test_frozen_vertices_keep_their_part(self, churn_setup):
        """The freeze rule's contract: only vertices within h hops of a
        touched edge may move."""
        graph, weights, partition, config, trace = churn_setup
        dynamic = DynamicGraph(graph, weights)
        repartitioner = IncrementalRepartitioner(
            dynamic, partition.assignment, partition.num_parts, epsilon=0.05,
            config=config.with_updates(repartition_hops=1))
        before = repartitioner.assignment
        insertions, deletions = trace[0]
        batch = UpdateBatch(insertions=insertions, deletions=deletions)
        report = repartitioner.apply(batch)
        assert report.mode == "repair"
        released = expand_hops(dynamic.indptr, dynamic.indices,
                               batch.touched_vertices(), 1, graph.num_vertices)
        after = repartitioner.assignment
        np.testing.assert_array_equal(after[~released], before[~released])
        assert report.moved_vertices == int(np.count_nonzero(after != before))

    def test_repair_keeps_quality_and_balance(self, churn_setup):
        graph, weights, partition, config, trace = churn_setup
        repartitioner, reports = _replay(graph, weights, partition, config, trace)
        for report in reports:
            assert report.balanced
            assert report.gd_iterations < report.full_recompute_iterations
        final = repartitioner.partition()
        assert is_epsilon_balanced(final, repartitioner.dynamic.weights, 0.05)
        # Still in the same quality regime as the pre-churn partition.
        assert reports[-1].edge_locality_pct > edge_locality(partition) - 5.0

    def test_metrics_stay_consistent_through_repairs(self, churn_setup):
        graph, weights, partition, config, trace = churn_setup
        repartitioner, _ = _replay(graph, weights, partition, config, trace)
        reference = repartitioner.partition()
        assert repartitioner.metrics.cut_size == cut_size(reference)
        np.testing.assert_allclose(
            repartitioner.metrics.part_weights,
            reference.part_weights(repartitioner.dynamic.weights), atol=1e-9)

    def test_heavy_damage_falls_back_to_recompute(self, churn_setup):
        graph, weights, partition, config, _ = churn_setup
        dynamic = DynamicGraph(graph, weights)
        repartitioner = IncrementalRepartitioner(
            dynamic, partition.assignment, partition.num_parts, epsilon=0.05,
            config=config)
        # A destructive batch: rewire 30% of the edges across the graph.
        trace = churn_trace(graph, 1, 0.3, seed=9)
        insertions, deletions = trace[0]
        report = repartitioner.apply(
            UpdateBatch(insertions=insertions, deletions=deletions))
        assert report.mode == "recompute"
        assert report.gd_iterations == report.full_recompute_iterations
        # The recompute result equals a from-scratch solve bit for bit.
        expected = recursive_bisection(dynamic.snapshot(), dynamic.weights,
                                       partition.num_parts, 0.05, config)
        np.testing.assert_array_equal(repartitioner.assignment,
                                      expected.assignment)

    def test_harmless_batch_is_a_noop(self, churn_setup):
        """Intra-part insertions do no damage and trigger no GD work."""
        graph, weights, partition, config, _ = churn_setup
        dynamic = DynamicGraph(graph, weights)
        repartitioner = IncrementalRepartitioner(
            dynamic, partition.assignment, partition.num_parts, epsilon=0.05,
            config=config)
        part0 = np.flatnonzero(partition.assignment == 0)
        insertions = []
        for u in part0:
            for v in part0:
                if u < v and not dynamic.has_edge(int(u), int(v)):
                    insertions.append((int(u), int(v)))
                if len(insertions) >= 5:
                    break
            if len(insertions) >= 5:
                break
        before = repartitioner.assignment
        report = repartitioner.apply(UpdateBatch(insertions=insertions))
        assert report.mode == "noop"
        assert report.gd_iterations == 0
        np.testing.assert_array_equal(repartitioner.assignment, before)

    def test_repair_config_shape(self):
        config = GDConfig(iterations=80, repartition_iterations=7)
        derived = repair_config(config)
        assert derived.iterations == 7
        assert derived.noise_std == 0.0
        assert derived.fixing_start_fraction == 0.0

    @pytest.mark.parametrize("epsilon, num_parts", [
        (0.0, 4), (-0.1, 4), (1.5, 4), (float("nan"), 4), (0.05, 0), (0.05, "n+1")])
    def test_constructor_checks_epsilon_and_parts(self, small_dynamic, epsilon,
                                                  num_parts):
        """Bad ε or k fails when the repartitioner is built, before any
        batch reaches the live graph."""
        n = small_dynamic.num_vertices
        num_parts = n + 1 if num_parts == "n+1" else num_parts
        with pytest.raises(ValueError, match="epsilon|num_parts|cannot split"):
            IncrementalRepartitioner(small_dynamic, np.zeros(n, dtype=np.int64),
                                     num_parts, epsilon=epsilon)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="repartition_hops"):
            GDConfig(repartition_hops=-1)
        with pytest.raises(ValueError, match="repartition_damage_threshold"):
            GDConfig(repartition_damage_threshold=0.0)
        with pytest.raises(ValueError, match="repartition_iterations"):
            GDConfig(repartition_iterations=0)


class TestTraceRoundTrip:
    def test_batches_survive_a_round_trip(self, tmp_path):
        batches = [
            UpdateBatch(insertions=[[0, 3], [1, 2]], deletions=[[4, 5]]),
            UpdateBatch(weight_vertices=[7, 2],
                        weight_deltas=[[0.5, -0.25], [0.0, 1.5]]),
        ]
        path = tmp_path / "trace.txt"
        # An interspersed empty batch is dropped by the writer, not
        # serialized as a dangling separator.
        write_update_batches([batches[0], UpdateBatch(), batches[1]], path)
        loaded = read_update_batches(path, num_dimensions=2)
        assert len(loaded) == len(batches)
        for original, parsed in zip(batches, loaded):
            np.testing.assert_array_equal(original.insertions, parsed.insertions)
            np.testing.assert_array_equal(original.deletions, parsed.deletions)
            # The reader canonicalizes weight-vertex order; compare the
            # per-vertex deltas instead of the raw column order.
            order_original = np.argsort(original.weight_vertices)
            order_parsed = np.argsort(parsed.weight_vertices)
            np.testing.assert_array_equal(
                original.weight_vertices[order_original],
                parsed.weight_vertices[order_parsed])
            if original.weight_vertices.size:
                np.testing.assert_allclose(
                    original.weight_deltas[:, order_original],
                    parsed.weight_deltas[:, order_parsed])

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+ 1 2\nnot a directive\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed update line"):
            read_update_batches(path)

    def test_no_spurious_empty_batches(self, tmp_path):
        """A trailing separator, double separators, or a comment-only file
        must not produce no-op batches."""
        path = tmp_path / "trace.txt"
        path.write_text("+ 0 1\n%%\n%%\n- 0 1\n%%\n", encoding="utf-8")
        loaded = read_update_batches(path)
        assert len(loaded) == 2
        path.write_text("# nothing here\n", encoding="utf-8")
        assert read_update_batches(path) == []


class TestChurnTrace:
    def test_trace_is_deterministic_and_consistent(self):
        graph = power_law_cluster_graph(200, 4, 10.0, seed=0)
        first = churn_trace(graph, 4, 0.02, seed=5)
        second = churn_trace(graph, 4, 0.02, seed=5)
        dynamic = DynamicGraph(graph, np.ones((1, graph.num_vertices)))
        for (ins_a, del_a), (ins_b, del_b) in zip(first, second):
            np.testing.assert_array_equal(ins_a, ins_b)
            np.testing.assert_array_equal(del_a, del_b)
            # Consistency: the batch applies cleanly against the live state.
            dynamic.apply(UpdateBatch(insertions=ins_a, deletions=del_a))

    def test_trace_preserves_edge_count(self):
        graph = power_law_cluster_graph(150, 3, 8.0, seed=2)
        dynamic = DynamicGraph(graph, np.ones((1, graph.num_vertices)))
        for insertions, deletions in churn_trace(graph, 3, 0.05, seed=3):
            assert insertions.shape == deletions.shape
            dynamic.apply(UpdateBatch(insertions=insertions, deletions=deletions))
        assert dynamic.num_edges == graph.num_edges

    def test_terminates_on_a_complete_graph(self):
        """Regression: with no fresh edge slot available (a batch never
        re-inserts an edge it deletes), the insertion sampler must give up
        after its attempt budget instead of spinning forever."""
        from repro.graphs.generators import complete_graph

        graph = complete_graph(6)
        dynamic = DynamicGraph(graph, np.ones((1, 6)))
        for insertions, deletions in churn_trace(graph, 2, 0.1, seed=0):
            assert insertions.shape[0] <= deletions.shape[0]
            dynamic.apply(UpdateBatch(insertions=insertions, deletions=deletions))
