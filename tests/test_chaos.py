"""Acceptance tests of the fault-injection + self-healing stack.

The three contracts from the resilience PR, each driven end to end by a
seeded :class:`~repro.faults.FaultPlan`:

* the chaos storm (two repair-worker crashes while holding a batch, a
  failed absorb, a slow absorb, a client disconnect) completes with zero
  failed lookups and the ``health`` verb walking ``ok → … → degraded →
  … → ok``;
* recursive bisection survives crashed/hung pool workers with a
  **bit-identical** assignment (retries re-derive their seeds from the
  task coordinate);
* a run killed at any checkpoint resumes to a **bit-identical**
  assignment (hypothesis-tested over kill points and seeds).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CheckpointMismatch,
    ExecutionConfig,
    FrontierCheckpoint,
    GDConfig,
    recursive_bisection,
)
from repro.faults import FaultPlan, FaultSpec, InjectedFault, inject
from repro.graphs import Graph, standard_weights
from repro.serve.chaos import build_chaos_service, default_chaos_plan, run_chaos


def _ring_graph(n: int = 64) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]
                            + [(i, (i + 5) % n) for i in range(n)])


# --------------------------------------------------------------------- #
# The chaos storm (the CI chaos lane's scenario, in-process)
# --------------------------------------------------------------------- #
class TestChaosScenario:
    @pytest.fixture(scope="class")
    def chaos_report(self):
        service = build_chaos_service(num_vertices=300, num_parts=4, seed=0)
        return asyncio.run(run_chaos(service, default_chaos_plan(0)))

    def test_storm_recovers(self, chaos_report):
        assert chaos_report.recovered, chaos_report.as_dict()

    def test_no_lookup_ever_fails(self, chaos_report):
        assert chaos_report.failed_lookups == 0
        assert chaos_report.lookups > 0

    def test_health_walks_ok_degraded_ok(self, chaos_report):
        sequence = chaos_report.health_sequence
        assert sequence[0] == "ok"
        assert "degraded" in sequence
        assert chaos_report.final_status == "ok"

    def test_both_worker_crashes_recovered(self, chaos_report):
        assert chaos_report.worker_restarts == 2
        assert chaos_report.repair_recoveries == 2

    def test_every_surviving_batch_was_absorbed(self, chaos_report):
        # 4 sent: the crashed worker's batch is re-processed (not lost),
        # exactly one fails in absorb by plan.
        assert chaos_report.churn_batches == 4
        assert chaos_report.batches_applied == 3
        assert chaos_report.batches_failed == 1


# --------------------------------------------------------------------- #
# Executor resilience keeps the determinism contract
# --------------------------------------------------------------------- #
class TestBitIdenticalUnderFaults:
    @pytest.mark.parametrize("spec", [
        FaultSpec(site="executor.task", at=None, label="depth=1/part=0",
                  kind="crash"),
        FaultSpec(site="executor.task", at=None, label="depth=1/part=2",
                  kind="hang", duration=30.0),
        FaultSpec(site="executor.task", at=None, label="depth=1/part=0"),
    ], ids=["worker-crash", "worker-hang", "worker-raise"])
    def test_process_pool_recovers_bit_identically(self, spec):
        """Crash, hang or raise in one specific task of wave 1; the shm
        pool's retries (after a rebuild, for a dead or hung worker) must
        reproduce the clean run's bits."""
        graph = _ring_graph()
        weights = standard_weights(graph, 2)
        config = GDConfig(iterations=8, seed=13)
        reference = recursive_bisection(graph, weights, 4, 0.05, config)
        execution = ExecutionConfig(parallelism="shm", max_workers=2,
                                    task_retries=3, task_timeout_seconds=2.0)
        with inject(FaultPlan(faults=(spec,))):
            survived = recursive_bisection(
                graph, weights, 4, 0.05, config.with_updates(execution=execution))
        assert np.array_equal(survived.assignment, reference.assignment)


# --------------------------------------------------------------------- #
# Checkpoint / resume
# --------------------------------------------------------------------- #
class TestCheckpointResume:
    def _run_with_checkpoints(self, graph, weights, num_parts, config):
        checkpoints: list[FrontierCheckpoint] = []
        partition = recursive_bisection(graph, weights, num_parts, 0.05,
                                        config,
                                        checkpoint_sink=checkpoints.append)
        return partition, checkpoints

    def test_kill_at_wave_then_resume_is_bit_identical(self):
        """Die *at* a wave (after its checkpoint was written) via an
        injected fault, then resume from the captured checkpoint."""
        graph = _ring_graph()
        weights = standard_weights(graph, 2)
        config = GDConfig(iterations=8, seed=3)
        reference, checkpoints = self._run_with_checkpoints(
            graph, weights, 8, config)
        # ⌈log₂ 8⌉ = 3 splitting waves plus the final assignment-only wave;
        # level 0 is never checkpointed (no progress to save).
        assert [c.level for c in checkpoints] == [1, 2, 3]

        killed: list[FrontierCheckpoint] = []
        plan = FaultPlan(faults=(FaultSpec(site="recursive.wave", at=None,
                                           label="level=2",
                                           message="killed at wave 2"),))
        with inject(plan):
            with pytest.raises(InjectedFault):
                recursive_bisection(graph, weights, 8, 0.05, config,
                                    checkpoint_sink=killed.append)
        assert [c.level for c in killed] == [1, 2]
        resumed = recursive_bisection(graph, weights, 8, 0.05, config,
                                      resume_from=killed[-1])
        assert np.array_equal(resumed.assignment, reference.assignment)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           kill_index=st.integers(min_value=0, max_value=5),
           num_parts=st.sampled_from([5, 8, 13]))
    def test_resume_from_any_checkpoint_is_bit_identical(self, seed,
                                                         kill_index,
                                                         num_parts):
        """The acceptance property: for arbitrary seeds and a kill at a
        random checkpoint, resume reproduces the uninterrupted bits."""
        graph = _ring_graph()
        weights = standard_weights(graph, 2)
        config = GDConfig(iterations=6, seed=seed)
        reference, checkpoints = self._run_with_checkpoints(
            graph, weights, num_parts, config)
        assert checkpoints, "k >= 4 must produce at least one checkpoint"
        checkpoint = checkpoints[kill_index % len(checkpoints)]
        resumed = recursive_bisection(graph, weights, num_parts, 0.05, config,
                                      resume_from=checkpoint)
        assert np.array_equal(resumed.assignment, reference.assignment)

    def test_checkpoint_every_thins_the_stream(self):
        graph = _ring_graph()
        weights = standard_weights(graph, 2)
        config = GDConfig(iterations=6, seed=1)
        _, every = self._run_with_checkpoints(graph, weights, 16, config)
        thinned: list[FrontierCheckpoint] = []
        recursive_bisection(graph, weights, 16, 0.05, config,
                            checkpoint_sink=thinned.append,
                            checkpoint_every=2)
        assert [c.level for c in every] == [1, 2, 3, 4]
        assert [c.level for c in thinned] == [2, 4]
        with pytest.raises(ValueError, match="checkpoint_every"):
            recursive_bisection(graph, weights, 4, 0.05, config,
                                checkpoint_sink=thinned.append,
                                checkpoint_every=0)

    def test_resume_rejects_mismatched_run(self):
        """A checkpoint from a different graph/seed/k must be refused
        loudly, not silently produce garbage."""
        graph = _ring_graph()
        weights = standard_weights(graph, 2)
        config = GDConfig(iterations=6, seed=2)
        _, checkpoints = self._run_with_checkpoints(graph, weights, 8, config)
        checkpoint = checkpoints[-1]
        with pytest.raises(CheckpointMismatch, match="seed"):
            recursive_bisection(graph, weights, 8, 0.05,
                                config.with_updates(seed=99),
                                resume_from=checkpoint)
        with pytest.raises(CheckpointMismatch, match="num_parts"):
            recursive_bisection(graph, weights, 5, 0.05, config,
                                resume_from=checkpoint)
        other = _ring_graph(64 + 8)
        with pytest.raises(CheckpointMismatch, match="num_vertices"):
            recursive_bisection(other, standard_weights(other, 2), 8, 0.05,
                                config, resume_from=checkpoint)

    def test_checkpoint_serialization_round_trip(self):
        graph = _ring_graph()
        weights = standard_weights(graph, 2)
        config = GDConfig(iterations=6, seed=4)
        reference, checkpoints = self._run_with_checkpoints(
            graph, weights, 8, config)
        blob = checkpoints[-1].to_bytes()
        rebuilt = FrontierCheckpoint.from_bytes(blob,
                                                meta=checkpoints[-1].meta)
        assert rebuilt.level == checkpoints[-1].level
        np.testing.assert_array_equal(rebuilt.assignment,
                                      checkpoints[-1].assignment)
        resumed = recursive_bisection(graph, weights, 8, 0.05, config,
                                      resume_from=rebuilt)
        assert np.array_equal(resumed.assignment, reference.assignment)
