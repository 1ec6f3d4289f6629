"""Tests of the parallel recursive-bisection executor subsystem.

The load-bearing property is the deterministic-seeding contract of
``repro.core.recursive``: for a fixed ``GDConfig.seed`` the serial and
shm backends must produce *bit-identical* assignments, because every
subproblem's RNG seed is a pure function of its recursion-tree
coordinate, never of scheduling order, and the shm backend's
shared-segment views replay the serial memory layout (see
``tests/test_shm.py`` for the arena-level tests).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro
from repro.core import (
    PARALLELISM_MODES,
    BisectionExecutor,
    ExecutionConfig,
    GDConfig,
    GDPartitioner,
    recursive_bisection,
    task_seed,
)
from repro.core.executor import ExecutorTaskError
from repro.faults import FaultPlan, FaultSpec, inject
from repro.graphs import Graph, fb_like, standard_weights
from repro.partition import imbalance, is_epsilon_balanced

#: The full backend matrix of the determinism contract.
ALL_BACKENDS = PARALLELISM_MODES

#: Two shm workers: the pooled side of every bit-identity check.
SHM = ExecutionConfig(parallelism="shm", max_workers=2)

#: The GD iteration's two step paths, with the projection methods that
#: take each: the one-shot sweep fuses the gradient step into its in-place
#: pass; every other method projects the composed step with its projector.
KERNEL_PATHS = {"fused": ("alternating_oneshot",),
                "numpy": ("exact", "alternating", "dykstra")}


def _on(config: GDConfig, execution: ExecutionConfig) -> GDConfig:
    return config.with_updates(execution=execution)


# --------------------------------------------------------------------- #
# BisectionExecutor
# --------------------------------------------------------------------- #
def test_executor_rejects_unknown_backend():
    # The executor runs on an ExecutionConfig, which knows two backends.
    assert PARALLELISM_MODES == ("serial", "shm")
    for backend in ("fork-bomb", "thread", "process"):
        with pytest.raises(ValueError, match="parallelism"):
            BisectionExecutor(ExecutionConfig(parallelism=backend))


def test_executor_rejects_bad_worker_count():
    with pytest.raises(ValueError, match="max_workers"):
        BisectionExecutor(ExecutionConfig(parallelism="shm", max_workers=0))


@pytest.mark.parametrize("parallelism", list(ALL_BACKENDS))
def test_executor_map_preserves_task_order(parallelism):
    with BisectionExecutor(ExecutionConfig(parallelism=parallelism,
                                           max_workers=2)) as executor:
        results = executor.map(_square, list(range(20)))
    assert results == [i * i for i in range(20)]


def test_executor_defaults_to_serial():
    executor = BisectionExecutor()
    assert executor.execution == ExecutionConfig()
    assert executor.map(_square, [2, 3]) == [4, 9]
    assert executor._pool is None


def _square(value: int) -> int:
    return value * value


def test_executor_single_task_bypasses_pool():
    executor = BisectionExecutor(SHM)
    assert executor.map(_square, [3]) == [9]
    # No pool should have been spun up for a single task.
    assert executor._pool is None
    executor.shutdown()


# --------------------------------------------------------------------- #
# Failure paths: retries, timeouts, pool rebuilds, terminal errors
# --------------------------------------------------------------------- #
def _fault_at(label: str, **kwargs) -> FaultPlan:
    """A plan that hits ``executor.task`` for one task label (first
    execution only, unless overridden)."""
    return FaultPlan(faults=(FaultSpec(site="executor.task", at=None,
                                       label=label, **kwargs),))


def test_executor_rejects_bad_resilience_knobs():
    with pytest.raises(ValueError, match="task_timeout_seconds"):
        BisectionExecutor(SHM.with_updates(task_timeout_seconds=0.0))
    with pytest.raises(ValueError, match="task_retries"):
        BisectionExecutor(SHM.with_updates(task_retries=-1))


@pytest.mark.parametrize("parallelism", list(ALL_BACKENDS))
def test_injected_failure_is_retried_to_the_same_results(parallelism):
    """One task raises on its first execution; the retry recovers and the
    results are indistinguishable from a clean run (shm parity with
    serial included)."""
    expected = [i * i for i in range(6)]
    with inject(_fault_at("#3")) as registry:
        with BisectionExecutor(ExecutionConfig(parallelism=parallelism,
                                               max_workers=2,
                                               task_retries=2)) as executor:
            results = executor.map(_square, list(range(6)))
        assert results == expected
        assert executor.stats.retries >= 1
        if parallelism == "serial":
            # Pool *processes* fire in their own forked registry; the
            # parent's audit log only sees in-process executions.
            assert any(f.label == "#3" and f.attempt == 0
                       for f in registry.fired)


def test_terminal_failure_names_task_and_attempts():
    """A permanent fault exhausts the retry budget; the error message
    carries the task coordinate and the attempt count."""
    plan = _fault_at("depth=1/part=0", attempt=None, message="boom")
    with inject(plan):
        executor = BisectionExecutor(ExecutionConfig(task_retries=2))
        with pytest.raises(ExecutorTaskError,
                           match=r"task depth=1/part=0 failed after "
                                 r"3 attempt\(s\): boom"):
            executor.map(_square, [1, 2], labels=["depth=0/part=0",
                                                  "depth=1/part=0"])
        assert executor.stats.retries == 2


def test_process_crash_rebuilds_pool_and_recovers():
    """A worker dying mid-task (hard ``os._exit``) breaks the pool; the
    executor rebuilds it, resubmits the unfinished tasks, and the results
    match a clean serial run bit for bit."""
    with inject(_fault_at("#2", kind="crash")):
        with BisectionExecutor(SHM.with_updates(task_retries=3)) as executor:
            results = executor.map(_square, list(range(5)))
        assert results == [i * i for i in range(5)]
        assert executor.stats.pool_rebuilds >= 1
        assert executor.stats.retries >= 1


def test_process_hang_times_out_and_rebuilds():
    """A hung process worker cannot be joined; the timeout kills the pool
    and the retry completes the wave."""
    plan = _fault_at("#0", kind="hang", duration=30.0)
    with inject(plan):
        with BisectionExecutor(SHM.with_updates(task_timeout_seconds=0.5,
                                                task_retries=3)) as executor:
            results = executor.map(_square, list(range(3)))
        assert results == [0, 1, 4]
        assert executor.stats.timeouts >= 1
        assert executor.stats.pool_rebuilds >= 1


class _SubmitBreaksPool(ProcessPoolExecutor):
    """A process pool whose ``submit`` calls number ``fail_at`` (counted
    across rebuilt pools) raise :class:`BrokenProcessPool`, as they do
    when a worker dies while tasks are being (re)submitted."""

    fail_at: frozenset = frozenset()
    submits = 0

    def submit(self, *args, **kwargs):
        _SubmitBreaksPool.submits += 1
        if _SubmitBreaksPool.submits in _SubmitBreaksPool.fail_at:
            raise BrokenProcessPool(f"pool broke under submit #{_SubmitBreaksPool.submits}")
        return super().submit(*args, **kwargs)


@pytest.fixture
def break_submits(monkeypatch):
    """Swap the executor's pool for a :class:`_SubmitBreaksPool` that
    breaks under the given submit numbers."""
    def arm(*fail_at: int):
        monkeypatch.setattr(_SubmitBreaksPool, "fail_at", frozenset(fail_at))
        monkeypatch.setattr(_SubmitBreaksPool, "submits", 0)
        monkeypatch.setattr("repro.core.executor.ProcessPoolExecutor", _SubmitBreaksPool)
    return arm


@pytest.mark.parametrize("fail_at", [(1,), (4,), (2, 6)],
                         ids=["first-submit", "last-submit", "resubmit-after-rebuild"])
def test_pool_broken_under_submit_is_rebuilt(break_submits, fail_at):
    """A submit that raises BrokenProcessPool, on the first submission or
    on the resubmission after a rebuild, rebuilds the pool and charges one
    attempt to every unfinished task; the wave still returns its results."""
    break_submits(*fail_at)
    with BisectionExecutor(SHM.with_updates(task_retries=3)) as executor:
        results = executor.map(_square, list(range(4)))
    assert results == [0, 1, 4, 9]
    assert executor.stats.pool_rebuilds == len(fail_at)
    assert executor.stats.retries == 4 * len(fail_at)


def test_single_task_resubmit_into_a_broken_pool_is_rebuilt(break_submits):
    """Task #1 raises on its first attempt and its resubmit (submit #5)
    meets a broken pool: the pool is rebuilt and the unfinished tasks
    resubmitted, instead of BrokenProcessPool leaving the wave."""
    break_submits(5)
    with inject(_fault_at("#1")):
        with BisectionExecutor(SHM.with_updates(task_retries=3)) as executor:
            results = executor.map(_square, list(range(4)))
    assert results == [0, 1, 4, 9]
    assert executor.stats.pool_rebuilds == 1
    # One retry for #1's own failure, then one for each of #1-#3.
    assert executor.stats.retries == 4


def test_pool_broken_under_submit_without_retries_raises_task_error(break_submits):
    break_submits(2)
    with BisectionExecutor(SHM.with_updates(task_retries=0)) as executor:
        with pytest.raises(ExecutorTaskError, match=r"task #0 failed after 1 attempt"):
            executor.map(_square, list(range(4)))
        assert executor.stats.pool_rebuilds == 1


def test_inline_backends_do_not_enforce_timeouts():
    """Serial runs cannot be interrupted: a slow task just finishes."""
    plan = _fault_at("#0", kind="slow", duration=0.05)
    with inject(plan):
        executor = BisectionExecutor(ExecutionConfig(task_timeout_seconds=0.001))
        assert executor.map(_square, [7]) == [49]
        assert executor.stats.timeouts == 0


def test_serial_wave_retries_its_group_bit_identically(social_graph, social_weights):
    """A serial wave runs as one lock-step group, but every task still
    enters the ``executor.task`` site under its own label: a failure of
    one task retries the group, and the retry replays the same bits; a
    permanent failure names the task that failed."""
    config = GDConfig(iterations=20, seed=4)
    reference = recursive_bisection(social_graph, social_weights, 4, 0.05, config)
    with inject(_fault_at("depth=1/part=2")) as registry:
        with BisectionExecutor(ExecutionConfig(task_retries=1)) as executor:
            retried = recursive_bisection(social_graph, social_weights, 4, 0.05, config,
                                          executor=executor)
        assert executor.stats.retries == 1
        fired = [(fault.label, fault.attempt) for fault in registry.fired]
        assert fired == [("depth=1/part=2", 0)]
    np.testing.assert_array_equal(retried.assignment, reference.assignment)
    with inject(_fault_at("depth=1/part=2", attempt=None, message="boom")):
        with pytest.raises(ExecutorTaskError,
                           match=r"task depth=1/part=2 failed after 2 attempt\(s\): boom"):
            recursive_bisection(social_graph, social_weights, 4, 0.05,
                                config.with_updates(execution=ExecutionConfig(task_retries=1)))


# --------------------------------------------------------------------- #
# Deterministic per-task seeding
# --------------------------------------------------------------------- #
def test_task_seed_is_deterministic_and_distinct():
    assert task_seed(0, 1, 2) == task_seed(0, 1, 2)
    coordinates = [(depth, part) for depth in range(4) for part in range(8)]
    seeds = {task_seed(42, depth, part) for depth, part in coordinates}
    assert len(seeds) == len(coordinates)
    assert task_seed(0, 1, 2) != task_seed(1, 1, 2)


# --------------------------------------------------------------------- #
# Graph.subgraph remapping invariants
# --------------------------------------------------------------------- #
def test_subgraph_preserves_edges_and_weights_under_remapping(social_graph):
    rng = np.random.default_rng(5)
    weights = standard_weights(social_graph, 2)
    chosen = np.sort(rng.permutation(social_graph.num_vertices)[:170])

    subgraph, mapping = social_graph.subgraph(chosen)
    assert np.array_equal(mapping, chosen)
    assert subgraph.num_vertices == chosen.size

    # Every induced edge survives with both endpoints remapped consistently,
    # and no edge crosses out of the chosen set.
    original_edges = {(int(u), int(v)) for u, v in social_graph.edges
                      if u in set(chosen.tolist()) and v in set(chosen.tolist())}
    remapped = {(int(mapping[u]), int(mapping[v])) for u, v in subgraph.edges}
    assert remapped == original_edges

    # CSR stays canonical: unique edges with u < v, symmetric adjacency.
    assert np.all(subgraph.edges[:, 0] < subgraph.edges[:, 1])
    adjacency = subgraph.adjacency_matrix()
    assert (adjacency != adjacency.T).nnz == 0

    # Weight columns follow the vertex relabelling.
    sub_weights = weights[:, mapping]
    for new_id, original_id in enumerate(mapping):
        assert np.array_equal(sub_weights[:, new_id], weights[:, original_id])


def test_subgraph_degrees_match_brute_force(small_grid):
    chosen = np.arange(0, small_grid.num_vertices, 2)
    subgraph, mapping = small_grid.subgraph(chosen)
    chosen_set = set(chosen.tolist())
    for new_id, original_id in enumerate(mapping):
        expected = [v for v in small_grid.neighbors(original_id) if int(v) in chosen_set]
        assert subgraph.degree(new_id) == len(expected)


def test_subgraph_of_empty_selection():
    graph = Graph.from_edges(5, [(0, 1), (1, 2)])
    subgraph, mapping = graph.subgraph([])
    assert subgraph.num_vertices == 0
    assert subgraph.num_edges == 0
    assert mapping.size == 0


# --------------------------------------------------------------------- #
# Backend equivalence on the full k-way pipeline
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("num_parts", [4, 5])
def test_backends_produce_identical_partitions(social_graph, social_weights, num_parts):
    config = GDConfig(iterations=15, seed=11)
    reference = recursive_bisection(social_graph, social_weights, num_parts, 0.05, config)
    partition = recursive_bisection(social_graph, social_weights, num_parts, 0.05,
                                    _on(config, SHM))
    assert np.array_equal(partition.assignment, reference.assignment)


@pytest.mark.parametrize("num_parts", [5, 8], ids=["odd-k", "power-of-two-k"])
@pytest.mark.parametrize("parallelism", ALL_BACKENDS)
def test_determinism_contract_all_backends(social_graph, social_weights,
                                           parallelism, num_parts):
    """The acceptance matrix: every backend × odd and power-of-two k.

    Every backend must return bit-identical assignments for a fixed
    seed; re-running the same backend must also be bit-stable.
    """
    config = GDConfig(iterations=12, seed=29)
    reference = recursive_bisection(social_graph, social_weights, num_parts, 0.05,
                                    config)
    config = _on(config, ExecutionConfig(parallelism=parallelism, max_workers=2))
    first = recursive_bisection(social_graph, social_weights, num_parts, 0.05, config)
    second = recursive_bisection(social_graph, social_weights, num_parts, 0.05, config)
    assert np.array_equal(first.assignment, reference.assignment)
    assert np.array_equal(second.assignment, reference.assignment)


@pytest.mark.parametrize("kernel_path", KERNEL_PATHS)
def test_kernel_backends_bit_identical_across_executors(social_graph, social_weights,
                                                        kernel_path):
    """Within each step path of the GD iteration both executors return
    the same bits, so the contract holds for every projection method,
    not only the default one-shot sweep."""
    for method in KERNEL_PATHS[kernel_path]:
        config = GDConfig(iterations=12, seed=17, projection_method=method)
        reference = recursive_bisection(social_graph, social_weights, 5, 0.05, config)
        partition = recursive_bisection(social_graph, social_weights, 5, 0.05,
                                        _on(config, SHM))
        assert np.array_equal(partition.assignment, reference.assignment), method


@pytest.mark.parametrize("kernel_path", KERNEL_PATHS)
def test_kernel_backend_survives_process_pool(social_graph, social_weights, kernel_path):
    """Every stepper constructs its own backend, so the shm pool's workers
    (configs unpickled from the arena header, no shared backend state)
    must reproduce the serial bits."""
    for method in KERNEL_PATHS[kernel_path]:
        config = GDConfig(iterations=10, seed=23, projection_method=method)
        serial = recursive_bisection(social_graph, social_weights, 4, 0.05, config)
        pooled = recursive_bisection(social_graph, social_weights, 4, 0.05,
                                     _on(config, SHM))
        assert np.array_equal(serial.assignment, pooled.assignment), method


def test_config_knobs_equal_keyword_overrides(social_graph, social_weights):
    """The two ways to pick a backend — ``config.execution`` and a
    caller-owned executor passed as ``executor=`` — run the same waves."""
    config = GDConfig(iterations=12, seed=3)
    via_config = recursive_bisection(social_graph, social_weights, 4, 0.05,
                                     _on(config, SHM))
    with BisectionExecutor(SHM) as executor:
        via_executor = recursive_bisection(social_graph, social_weights, 4, 0.05,
                                           config, executor=executor)
        assert executor.stats.shm.waves >= 1
    assert np.array_equal(via_config.assignment, via_executor.assignment)


def test_backend_keywords_are_refused(social_graph, social_weights):
    """``config.execution`` is the only backend setting: the per-call
    overrides of recursive_bisection and GDPartitioner are gone."""
    config = GDConfig(iterations=5, seed=9)
    for keyword in ({"parallelism": "shm"}, {"max_workers": 2},
                    {"execution": SHM}):
        with pytest.raises(TypeError, match="unexpected keyword"):
            recursive_bisection(social_graph, social_weights, 4, 0.05, config,
                                **keyword)
    for keyword in ({"parallelism": "shm"}, {"max_workers": 2}):
        with pytest.raises(TypeError, match="unexpected keyword"):
            GDPartitioner(epsilon=0.05, config=config, **keyword)


@pytest.mark.parametrize("num_parts", [3, 5, 7])
def test_odd_k_meets_epsilon_budget_in_parallel_mode(social_graph, social_weights, num_parts):
    epsilon = 0.05
    partition = recursive_bisection(social_graph, social_weights, num_parts, epsilon,
                                    _on(GDConfig(iterations=25, seed=2), SHM))
    assert partition.num_parts == num_parts
    assert set(np.unique(partition.assignment)) == set(range(num_parts))
    values = imbalance(partition, social_weights)
    assert np.all(values <= epsilon + 1e-9)


def _path_plus_isolated():
    graph = Graph.from_edges(40, [(i, i + 1) for i in range(19)])
    return graph, np.ones((1, 40))


def _two_disjoint_cliques():
    graph = Graph.from_edges(24, [(base + i, base + j) for base in (0, 12)
                                  for i in range(12) for j in range(i + 1, 12)])
    return graph, standard_weights(graph, 2)


def _star():
    graph = Graph.from_edges(49, [(0, leaf) for leaf in range(1, 49)])
    return graph, np.ones((1, 49))


def _ring():
    graph = Graph.from_edges(12, [(i, (i + 1) % 12) for i in range(12)])
    return graph, np.ones((1, 12))


def _fb_three_dimensions():
    graph = fb_like(80, scale=0.25)
    third = np.random.default_rng(0).uniform(0.5, 2.0, graph.num_vertices)
    return graph, np.vstack([standard_weights(graph, 2), third])


@pytest.mark.parametrize("build, num_parts, epsilon, seeds", [
    pytest.param(_path_plus_isolated, 4, 0.05, range(6), id="path+isolated-k4"),
    pytest.param(_path_plus_isolated, 5, 0.05, range(6), id="path+isolated-k5"),
    pytest.param(_two_disjoint_cliques, 3, 0.05, range(6), id="two-cliques-k3"),
    pytest.param(_two_disjoint_cliques, 4, 0.05, range(6), id="two-cliques-k4"),
    pytest.param(_star, 7, 0.05, range(6), id="star-k7"),
    pytest.param(_ring, 12, 0.05, range(6), id="ring-k=n"),
    pytest.param(_ring, 11, 1.0, range(6), id="ring-k=n-1"),
    pytest.param(_fb_three_dimensions, 5, 0.05, range(6), id="fb-d3-k5"),
    pytest.param(_fb_three_dimensions, 7, 0.05, (3,), id="fb-d3-k7-seed3",
                 marks=pytest.mark.xfail(
                     strict=True, reason="balance_repair stops at a local "
                     "optimum when two dimensions are off in opposite "
                     "directions (imbalance [0.127, 0.052, 0.028])")),
])
def test_degenerate_inputs_same_bits_on_both_backends(build, num_parts, epsilon,
                                                      seeds):
    """Isolated vertices, disconnected and star graphs, k near n and d = 3:
    serial and shm agree bit for bit, and the output is a valid
    ε-balanced k-way labelling."""
    graph, weights = build()
    for seed in seeds:
        gd = GDConfig(iterations=30, seed=seed)
        serial = repro.run(graph, num_parts, weights=weights, epsilon=epsilon,
                           gd=gd).partition
        pooled = repro.run(graph, num_parts, weights=weights, epsilon=epsilon,
                           gd=gd, execution=SHM).partition
        assert np.array_equal(serial.assignment, pooled.assignment), seed
        assert serial.assignment.min() >= 0 and serial.assignment.max() < num_parts
        assert is_epsilon_balanced(serial, weights, epsilon), (seed, imbalance(serial, weights))


@pytest.mark.slow
def test_process_backend_bit_identical_on_large_graph():
    """Acceptance-criteria scenario: generator graph with >= 100k edges, k=8."""
    graph = fb_like(80, scale=4.0, seed=0)
    assert graph.num_edges >= 100_000
    weights = standard_weights(graph, 2)
    config = GDConfig(iterations=30, seed=42)
    serial = recursive_bisection(graph, weights, 8, 0.05, config)
    parallel = recursive_bisection(graph, weights, 8, 0.05,
                                   _on(config, SHM.with_updates(max_workers=4)))
    assert np.array_equal(serial.assignment, parallel.assignment)
