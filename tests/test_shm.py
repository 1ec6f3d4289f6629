"""Tests of the zero-copy shared-memory execution backend.

Three load-bearing properties:

* **Bit identity** — ``parallelism="shm"`` must reproduce the serial
  assignment exactly (the determinism contract of
  :mod:`repro.core.recursive` extended to shared-segment workers),
  across part counts, seeds and worker counts.
* **O(coordinates) dispatch** — the only pickled payload per task is a
  :class:`~repro.core.shm.ShmTaskRef` (an id range and a tree
  coordinate); the stats must show the pipe traffic per task staying
  under 200 bytes.
* **One segment per walk, never leaked** — a walk's arena is made on its
  first pooled wave and unlinked when the walk returns or raises,
  including runs where an injected worker crash forces a pool rebuild
  mid-wave (the ``executor.task`` fault site applies to shm workers
  unchanged).
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BisectionExecutor,
    ExecutionConfig,
    GDConfig,
    SharedGraphArena,
    TaskState,
    recursive_bisection,
)
from repro.core.recursive import Walk, solve_group
from repro.core.shm import (
    ShmTaskRef,
    _OWNED,
    pack_walk,
)
from repro.faults import FaultPlan, FaultSpec, inject
from repro.graphs import Graph, fb_like, standard_weights


def _leftover_segments() -> list[str]:
    """Shared-memory segments this process created that are still
    present on the host (names are ``repro-shm-<pid>-<n>``)."""
    return [os.path.basename(path)
            for path in glob.glob(f"/dev/shm/repro-shm-{os.getpid()}-*")]


# --------------------------------------------------------------------- #
# SharedGraphArena lifecycle
# --------------------------------------------------------------------- #
def test_arena_round_trips_arrays_and_meta():
    arrays = {
        "a": np.arange(10, dtype=np.int64),
        "b": np.linspace(0.0, 1.0, 7).reshape(1, 7),
        "empty": np.empty((0,), dtype=np.float64),
    }
    arena = SharedGraphArena.create(arrays, meta={"tag": "t"})
    try:
        attached = SharedGraphArena.attach(arena.name)
        try:
            for key, expected in arrays.items():
                np.testing.assert_array_equal(attached.array(key), expected)
            assert attached.meta == {"tag": "t"}
            # Arrays are 64-byte aligned views into the same pages.
            for key in arrays:
                address = attached.array(key).__array_interface__["data"][0]
                assert address % 64 == 0
        finally:
            attached.close()
        attached.close()  # closing a closed arena is a no-op
    finally:
        arena.unlink()
    assert arena.name not in _OWNED
    assert not _leftover_segments()


def test_arena_unlink_is_idempotent_and_tracked():
    arena = SharedGraphArena.create({"x": np.ones(3)})
    assert arena.name in _OWNED
    arena.unlink()
    arena.unlink()  # second unlink is a no-op, not an error
    assert not _leftover_segments()


def test_arena_attach_may_not_unlink():
    arena = SharedGraphArena.create({"x": np.ones(3)})
    try:
        attached = SharedGraphArena.attach(arena.name)
        with pytest.raises(RuntimeError, match="only the creating process"):
            attached.unlink()
        attached.close()
    finally:
        arena.unlink()


# --------------------------------------------------------------------- #
# Walk packing
# --------------------------------------------------------------------- #
def _repair_walk(graph, weights, seed=0):
    """A repair walk over a 4-way partition with about a third of the
    vertices free, and its depth-1 wave: two tasks, both partly frozen."""
    config = GDConfig(iterations=20, seed=seed, projection_method="exact")
    assignment = recursive_bisection(graph, weights, 4, 0.05, config).assignment
    free = np.random.default_rng(seed).random(graph.num_vertices) < 0.35
    # A tight band keeps the balance constraints active.
    walk = Walk(graph=graph, weights=weights, epsilon=0.01, config=config,
                assignment=assignment, free=free)
    wave = [TaskState(vertex_ids=np.flatnonzero(assignment < 2), num_parts=2,
                      first_part=0, depth=1),
            TaskState(vertex_ids=np.flatnonzero(assignment >= 2), num_parts=2,
                      first_part=2, depth=1)]
    return walk, wave


def test_pack_walk_round_trips_the_walk(social_graph, social_weights):
    """The arena holds the input graph's CSR, no edge list, and the
    weights, C-contiguous; a repair walk also carries its assignment and
    free mask."""
    walk, _ = _repair_walk(social_graph, np.asfortranarray(social_weights))
    for repair in (False, True):
        packed = walk if repair else Walk(graph=walk.graph, weights=walk.weights,
                                          epsilon=walk.epsilon, config=walk.config)
        arena = pack_walk(packed)
        try:
            np.testing.assert_array_equal(arena.array("indptr"), social_graph.indptr)
            np.testing.assert_array_equal(arena.array("indices"), social_graph.indices)
            with pytest.raises(KeyError):
                arena.array("edges")
            weights = arena.array("weights")
            np.testing.assert_array_equal(weights, social_weights)
            assert weights.flags["C_CONTIGUOUS"]
            assert arena.meta["epsilon"] == walk.epsilon
            assert arena.meta["config"] == walk.config
            if repair:
                np.testing.assert_array_equal(arena.array("assignment"), walk.assignment)
                np.testing.assert_array_equal(arena.array("free"), walk.free)
            else:
                with pytest.raises(KeyError):
                    arena.array("free")
            del weights  # release the view so unlink() unmaps cleanly
        finally:
            arena.unlink()
    assert not _leftover_segments()


def test_worker_entry_matches_solve_group_in_process(social_graph, social_weights,
                                                     monkeypatch):
    """The worker entry point, run in process on a packed repair walk,
    gives exactly the sides solve_group returns for the whole wave as one
    lock-step group, for every task of a wave whose tasks are partly
    frozen: a worker's group of one matches the serial backend's group."""
    from repro.core import shm

    walk, wave = _repair_walk(social_graph, social_weights, seed=3)
    assert all(0 < walk.free[task.vertex_ids].sum() < task.vertex_ids.size
               for task in wave)
    expected = solve_group(walk, wave)

    monkeypatch.setattr(shm, "_WORKER_WALK", None)
    executor = BisectionExecutor(ExecutionConfig(parallelism="shm"))
    # Run every task of the wave through the worker entry point, in process.
    monkeypatch.setattr(executor, "_map_processes",
                        lambda function, refs, labels: [function(ref) for ref in refs])
    try:
        results = executor.solve_frontier(walk, wave)
        assert executor.stats.shm.attaches == 1
    finally:
        executor.end_walk()
        if shm._WORKER_WALK is not None:
            shm._WORKER_WALK[0].close()
    assert len(results) == len(wave)
    for sides, want_sides in zip(results, expected):
        np.testing.assert_array_equal(sides, want_sides)
    assert not _leftover_segments()


def test_task_ref_payload_is_tiny():
    import pickle

    ref = ShmTaskRef(segment="repro-shm-12345-6", start=10_000, stop=20_000,
                     num_parts=8, first_part=8, depth=1)
    assert len(pickle.dumps(ref, protocol=pickle.HIGHEST_PROTOCOL)) < 200


# --------------------------------------------------------------------- #
# End-to-end: bit identity + stats + cleanliness
# --------------------------------------------------------------------- #
def test_shm_backend_bit_identical_with_stats(social_graph, social_weights):
    config = GDConfig(iterations=15, seed=11)
    reference = recursive_bisection(social_graph, social_weights, 8, 0.05, config)
    with BisectionExecutor(config.execution.with_updates(parallelism="shm",
                                                         max_workers=2)) as executor:
        partition = recursive_bisection(social_graph, social_weights, 8, 0.05,
                                        config, executor=executor)
        stats = executor.stats.shm
    assert np.array_equal(partition.assignment, reference.assignment)

    # k=8 → waves of 2 and 4 tasks go through the pool (the root wave of
    # one task runs in process), all through the walk's one arena.
    assert stats.waves >= 2
    assert stats.tasks >= 6
    assert stats.segments_created == 1
    assert stats.attaches >= 1

    # The O(coordinates) acceptance claim: per-task pipe traffic is a
    # pickled ShmTaskRef, while the arena holds the whole input graph as
    # its CSR, with no edge list beside it.
    assert stats.payload_bytes_per_task < 200
    csr_bytes = social_graph.indptr.nbytes + social_graph.indices.nbytes
    assert csr_bytes < stats.bytes_shared < csr_bytes + social_graph.edges.nbytes

    assert not _leftover_segments()


def test_one_segment_per_walk_unlinked_before_the_next(social_graph, social_weights,
                                                       monkeypatch):
    """A caller-owned executor running two walks back to back makes one
    segment per walk, and unlinks the first before it makes the second."""
    from repro.core import shm

    present_at_pack = []
    pack_walk = shm.pack_walk

    def recording_pack_walk(walk, **kwargs):
        present_at_pack.append(_leftover_segments())
        return pack_walk(walk, **kwargs)

    monkeypatch.setattr(shm, "pack_walk", recording_pack_walk)
    execution = ExecutionConfig(parallelism="shm", max_workers=2)
    config = GDConfig(iterations=8, seed=2)
    reference = recursive_bisection(social_graph, social_weights, 8, 0.05, config)
    with BisectionExecutor(execution) as executor:
        for _ in range(2):
            partition = recursive_bisection(social_graph, social_weights, 8, 0.05,
                                            config, executor=executor)
            assert np.array_equal(partition.assignment, reference.assignment)
            assert not _leftover_segments()
        stats = executor.stats.shm
        assert stats.segments_created == 2
        assert stats.waves == 4
    assert present_at_pack == [[], []]
    assert not _leftover_segments()


def test_small_waves_fall_back_to_plain_dispatch(social_graph, social_weights):
    # k=3 splits 2:1, so every wave holds a single task: each runs in
    # process, results still match and no segment is ever created.
    execution = ExecutionConfig(parallelism="shm", max_workers=2)
    config = GDConfig(iterations=12, seed=5)
    reference = recursive_bisection(social_graph, social_weights, 3, 0.05, config)
    with BisectionExecutor(execution) as executor:
        partition = recursive_bisection(social_graph, social_weights, 3, 0.05,
                                        config, executor=executor)
        assert executor.stats.shm.waves == 0
        assert executor._pool is None
    assert np.array_equal(partition.assignment, reference.assignment)
    assert not _leftover_segments()


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       num_parts=st.sampled_from([4, 5, 8]),
       workers=st.sampled_from([1, 2, 3]))
def test_shm_matches_serial_for_any_seed(seed, num_parts, workers):
    """Property form of the contract: shm agrees with serial for
    arbitrary seeds, part counts and worker counts."""
    graph = Graph.from_edges(60, [(i, (i + 1) % 60) for i in range(60)]
                             + [(i, (i + 7) % 60) for i in range(60)])
    weights = standard_weights(graph, 2)
    config = GDConfig(iterations=8, seed=seed)
    serial = recursive_bisection(graph, weights, num_parts, 0.05, config)
    execution = ExecutionConfig(parallelism="shm", max_workers=workers)
    shm = recursive_bisection(graph, weights, num_parts, 0.05,
                              config.with_updates(execution=execution))
    assert np.array_equal(serial.assignment, shm.assignment)


# --------------------------------------------------------------------- #
# Fault tolerance: crashes, rebuilds, no leaks
# --------------------------------------------------------------------- #
def test_worker_crash_rebuilds_pool_and_leaks_nothing(social_graph, social_weights):
    """An shm worker dying mid-task (hard ``os._exit``) breaks the pool;
    the executor rebuilds it, the retried task re-attaches the walk
    segment and overwrites its own output slots (idempotent), the final
    assignment still matches serial bit for bit, and no segment outlives
    the run."""
    config = GDConfig(iterations=12, seed=7)
    reference = recursive_bisection(social_graph, social_weights, 8, 0.05, config)
    plan = FaultPlan(faults=(FaultSpec(site="executor.task", at=None,
                                       label="depth=2/part=2", kind="crash"),))
    execution = ExecutionConfig(parallelism="shm", max_workers=2,
                                task_retries=3)
    with inject(plan):
        with BisectionExecutor(execution) as executor:
            partition = recursive_bisection(social_graph, social_weights, 8,
                                            0.05, config, executor=executor)
            assert executor.stats.pool_rebuilds >= 1
            assert executor.stats.retries >= 1
            assert executor.stats.shm.waves >= 2
    assert np.array_equal(partition.assignment, reference.assignment)
    assert not _leftover_segments()


def test_raising_wave_unlinks_its_segment(social_graph, social_weights):
    """A wave that exhausts its retry budget raises ExecutorTaskError —
    and its walk still unlinks the arena on the way out."""
    from repro.core.executor import ExecutorTaskError

    plan = FaultPlan(faults=(FaultSpec(site="executor.task", at=None,
                                       label="depth=1/part=0", attempt=None,
                                       kind="crash"),))
    execution = ExecutionConfig(parallelism="shm", max_workers=2,
                                task_retries=1)
    config = GDConfig(iterations=10, seed=3)
    with inject(plan):
        with BisectionExecutor(execution) as executor:
            with pytest.raises(ExecutorTaskError, match="depth=1/part=0"):
                recursive_bisection(social_graph, social_weights, 8, 0.05,
                                    config, executor=executor)
            # The walk released its arena; the executor is still open.
            assert executor.stats.shm.segments_created == 1
            assert not _leftover_segments()
    assert not _leftover_segments()


@pytest.mark.slow
def test_shm_matches_serial_on_the_canonical_graph():
    """The canonical k = 16 workload at a GD seed where a last-bit
    difference in a row dot product — Fortran-ordered weight slice versus
    the C-ordered shm copy — grows through the recursion into thousands
    of reassigned vertices."""
    graph = fb_like(80, scale=8)
    weights = standard_weights(graph, 2)
    config = GDConfig(iterations=100, seed=6)
    serial = recursive_bisection(graph, weights, 16, 0.05, config)
    execution = ExecutionConfig(parallelism="shm", max_workers=2)
    shm = recursive_bisection(graph, weights, 16, 0.05,
                              config.with_updates(execution=execution))
    assert np.array_equal(serial.assignment, shm.assignment)
