"""Tests of the zero-copy shared-memory execution backend.

Three load-bearing properties:

* **Bit identity** — ``parallelism="shm"`` must reproduce the serial
  assignment exactly (the determinism contract of
  :mod:`repro.core.recursive` extended to shared-segment workers),
  across part counts, seeds and worker counts.
* **O(coordinates) dispatch** — the only pickled payload per task is a
  :class:`~repro.core.shm.ShmTaskRef`; the per-wave stats must show the
  pipe traffic collapsing to a few dozen bytes while the subgraph bytes
  the process backend would have shipped stay orders of magnitude
  larger.
* **No leaked segments** — every arena is unlinked by the end of a run,
  including runs where an injected worker crash forces a pool rebuild
  mid-wave (the PR-9 ``executor.task`` fault site applies to shm
  workers unchanged).
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
    recursive_bisection,
)
from repro.core.shm import (
    ShmTaskRef,
    _OWNED,
    pack_wave,
    wave_is_shm_packable,
)
from repro.faults import FaultPlan, FaultSpec, inject
from repro.graphs import Graph, fb_like, standard_weights


def _leftover_segments(prefix: str) -> list[str]:
    """Shared-memory segments with ``prefix`` still present on the host."""
    return [os.path.basename(path)
            for path in glob.glob(f"/dev/shm/{prefix}-*")]


# --------------------------------------------------------------------- #
# SharedGraphArena lifecycle
# --------------------------------------------------------------------- #
def test_arena_round_trips_arrays_and_meta():
    arrays = {
        "a": np.arange(10, dtype=np.int64),
        "b": np.linspace(0.0, 1.0, 7).reshape(1, 7),
        "empty": np.empty((0,), dtype=np.float64),
    }
    arena = SharedGraphArena.create(arrays, meta={"tag": "t"}, prefix="t-shm")
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
    finally:
        arena.unlink()
    assert arena.name not in _OWNED
    assert not _leftover_segments("t-shm")


def test_arena_unlink_is_idempotent_and_tracked():
    arena = SharedGraphArena.create({"x": np.ones(3)}, prefix="t-shm")
    assert arena.name in _OWNED
    arena.unlink()
    arena.unlink()  # second unlink is a no-op, not an error
    assert not _leftover_segments("t-shm")


def test_arena_attach_may_not_unlink():
    arena = SharedGraphArena.create({"x": np.ones(3)}, prefix="t-shm")
    try:
        attached = SharedGraphArena.attach(arena.name)
        with pytest.raises(RuntimeError, match="only the creating process"):
            attached.unlink()
        attached.close()
    finally:
        arena.unlink()


# --------------------------------------------------------------------- #
# Wave packing
# --------------------------------------------------------------------- #
class _FakeTask:
    def __init__(self, graph, weights, epsilon=0.05, config=None,
                 target_fraction=0.5):
        self.subgraph = graph
        self.weights = weights
        self.epsilon = epsilon
        self.config = config if config is not None else GDConfig(iterations=5)
        self.target_fraction = target_fraction


def _fake_wave(num_tasks=3, seed=0):
    rng = np.random.default_rng(seed)
    tasks = []
    for index in range(num_tasks):
        n = 20 + 10 * index
        edges = [(i, (i + 1) % n) for i in range(n)]
        graph = Graph.from_edges(n, edges)
        tasks.append(_FakeTask(graph, rng.random((2, n))))
    return tasks


def test_pack_wave_concatenates_with_correct_offsets():
    tasks = _fake_wave()
    arena, vertex_offsets = pack_wave(tasks, prefix="t-shm")
    try:
        meta = arena.meta
        assert meta["num_tasks"] == len(tasks)
        assert vertex_offsets[-1] == sum(t.subgraph.num_vertices for t in tasks)
        for i, task in enumerate(tasks):
            n = task.subgraph.num_vertices
            io = int(meta["indptr_offsets"][i])
            indptr = arena.array("indptr")[io:io + n + 1]
            np.testing.assert_array_equal(indptr, task.subgraph.indptr)
            wo = int(meta["weight_offsets"][i])
            block = arena.array("weights")[wo:wo + 2 * n].reshape(2, n)
            np.testing.assert_array_equal(block, task.weights)
            assert block.flags["C_CONTIGUOUS"]
        del indptr, block  # release the views so unlink() unmaps cleanly
    finally:
        arena.unlink()


def test_wave_packability_rejects_stateful_tasks():
    tasks = _fake_wave(num_tasks=2)
    assert wave_is_shm_packable(tasks)
    tasks[1].initial_x = np.zeros(30)  # a warm-started repair task
    assert not wave_is_shm_packable(tasks)


def test_task_ref_payload_is_tiny():
    import pickle

    ref = ShmTaskRef(segment="repro-shm-12345-6", index=3)
    assert len(pickle.dumps(ref, protocol=pickle.HIGHEST_PROTOCOL)) < 200


# --------------------------------------------------------------------- #
# End-to-end: bit identity + stats + cleanliness
# --------------------------------------------------------------------- #
def test_shm_backend_bit_identical_with_stats(social_graph, social_weights):
    config = GDConfig(iterations=15, seed=11,
                      execution=ExecutionConfig(shm_segment_prefix="t-shm"))
    reference = recursive_bisection(social_graph, social_weights, 8, 0.05, config)
    with BisectionExecutor.from_execution(
            config.execution.with_updates(parallelism="shm",
                                          max_workers=2)) as executor:
        partition = recursive_bisection(social_graph, social_weights, 8, 0.05,
                                        config, executor=executor)
        stats = executor.stats.shm
    assert np.array_equal(partition.assignment, reference.assignment)

    # k=8 → waves of 2 and 4 tasks clear the default min-wave floor
    # (the root wave of one task takes the plain path).
    assert stats.waves >= 2
    assert stats.tasks >= 6
    assert stats.segments_created == stats.waves
    assert stats.attaches >= 1

    # The O(coordinates) acceptance claim: per-task pipe traffic is a
    # pickled ShmTaskRef (tens of bytes), while the bytes the process
    # backend would have pickled per task are the task's whole subgraph.
    assert stats.payload_bytes_per_task < 200
    assert stats.pickled_bytes_avoided > 100 * stats.payload_bytes
    assert stats.bytes_shared > 0

    per_task_detail = stats.as_dict()
    assert len(per_task_detail["per_wave"]) == stats.waves

    assert not _leftover_segments("t-shm")


def test_small_waves_fall_back_to_plain_dispatch(social_graph, social_weights):
    # A min-wave floor above every wave size keeps the shm path dormant;
    # results still match and no segment is ever created.
    execution = ExecutionConfig(parallelism="shm", max_workers=2,
                                shm_min_wave_tasks=64,
                                shm_segment_prefix="t-shm")
    config = GDConfig(iterations=12, seed=5)
    reference = recursive_bisection(social_graph, social_weights, 4, 0.05, config)
    with BisectionExecutor.from_execution(execution) as executor:
        partition = recursive_bisection(social_graph, social_weights, 4, 0.05,
                                        config, executor=executor)
        assert executor.stats.shm.waves == 0
    assert np.array_equal(partition.assignment, reference.assignment)
    assert not _leftover_segments("t-shm")


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
    shm = recursive_bisection(graph, weights, num_parts, 0.05, config,
                              parallelism="shm", max_workers=workers)
    assert np.array_equal(serial.assignment, shm.assignment)


# --------------------------------------------------------------------- #
# Fault tolerance: crashes, rebuilds, no leaks
# --------------------------------------------------------------------- #
def test_worker_crash_rebuilds_pool_and_leaks_nothing(social_graph, social_weights):
    """An shm worker dying mid-task (hard ``os._exit``) breaks the pool;
    the executor rebuilds it, the retried task re-attaches the wave
    segment and overwrites its own output slice (idempotent), the final
    assignment still matches serial bit for bit, and no segment outlives
    the run."""
    config = GDConfig(iterations=12, seed=7)
    reference = recursive_bisection(social_graph, social_weights, 8, 0.05, config)
    plan = FaultPlan(faults=(FaultSpec(site="executor.task", at=None,
                                       label="depth=2/part=2", kind="crash"),))
    execution = ExecutionConfig(parallelism="shm", max_workers=2,
                                task_retries=3, shm_segment_prefix="t-shm")
    with inject(plan):
        with BisectionExecutor.from_execution(execution) as executor:
            partition = recursive_bisection(social_graph, social_weights, 8,
                                            0.05, config, executor=executor)
            assert executor.stats.pool_rebuilds >= 1
            assert executor.stats.retries >= 1
            assert executor.stats.shm.waves >= 2
    assert np.array_equal(partition.assignment, reference.assignment)
    assert not _leftover_segments("t-shm")


def test_raising_wave_unlinks_its_segment(social_graph, social_weights):
    """A wave that exhausts its retry budget raises ExecutorTaskError —
    and still tears its arena down on the way out."""
    from repro.core.executor import ExecutorTaskError

    plan = FaultPlan(faults=(FaultSpec(site="executor.task", at=None,
                                       label="depth=1/part=0", attempt=None,
                                       kind="crash"),))
    execution = ExecutionConfig(parallelism="shm", max_workers=2,
                                task_retries=1, shm_segment_prefix="t-shm")
    config = GDConfig(iterations=10, seed=3)
    with inject(plan):
        with BisectionExecutor.from_execution(execution) as executor:
            with pytest.raises(ExecutorTaskError, match="depth=1/part=0"):
                recursive_bisection(social_graph, social_weights, 8, 0.05,
                                    config, executor=executor)
    assert not _leftover_segments("t-shm")


@pytest.mark.slow
def test_shm_backend_bit_identical_on_large_graph():
    """Acceptance-criteria scenario at scale: >= 100k edges, k=8."""
    graph = fb_like(80, scale=4.0, seed=0)
    weights = standard_weights(graph, 2)
    config = GDConfig(iterations=30, seed=42)
    serial = recursive_bisection(graph, weights, 8, 0.05, config)
    shm = recursive_bisection(graph, weights, 8, 0.05, config,
                              parallelism="shm", max_workers=4)
    assert np.array_equal(serial.assignment, shm.assignment)


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
    shm = recursive_bisection(graph, weights, 16, 0.05, config,
                              parallelism="shm", max_workers=2)
    assert np.array_equal(serial.assignment, shm.assignment)
