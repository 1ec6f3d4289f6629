"""Micro-benchmarks of the performance-critical kernels.

Unlike the figure/table benchmarks (which run once and print a table),
these use pytest-benchmark's statistical timing on the inner kernels: the
gradient mat-vec, the projection step, one full GD iteration budget, and
one simulated superstep.  They are the numbers to watch when optimizing.
"""

import functools
import itertools

import numpy as np
import pytest

from repro.core import (
    FreeVertexSystem,
    GDConfig,
    balance_repair,
    gd_bisect,
    recursive_bisection,
    task_seed,
)
from repro.core.gd import Bisection, BisectionStepper
from repro.core.kernels import NumpyBackend
from repro.graphs import fb_like
from repro.core.projection import (
    ExactProjector,
    FeasibleRegion,
    ProjectionEngine,
    make_projector,
)
from repro.distributed import BSPEngine, PageRank
from repro.graphs import livejournal_like, standard_weights
from repro.partition import Partition


GRAPH = livejournal_like(scale=1.0, seed=0)
WEIGHTS = standard_weights(GRAPH, 2)
REGION = FeasibleRegion.balanced(WEIGHTS, 0.05)


def _projection_workload(d: int, count: int = 32):
    """A GD-like projection workload: region + slowly drifting points.

    The points are biased so the balance bands are genuinely active (as they
    are during the descent) and drift by a small step per call, matching the
    warm-start situation of consecutive GD iterations.
    """
    rng = np.random.default_rng(40 + d)
    weights = standard_weights(GRAPH, d)
    region = FeasibleRegion.balanced(weights, 0.05)
    n = GRAPH.num_vertices
    point = rng.normal(size=n) * 0.5 + 0.3
    points = []
    for _ in range(count):
        point = point + rng.normal(size=n) * 0.02
        points.append(point)
    return region, points


def _bench_projection(benchmark, d: int, warm: bool, rounds: int):
    """Exact projections of the workload's points: through one engine
    (warm-started from the previous call), or each with a fresh projector
    (a cold start)."""
    region, points = _projection_workload(d)
    if warm:
        engine = ProjectionEngine("exact", region)
        for point in points[:4]:
            engine.project(point)  # prime the warm state
        project = engine.project
    else:
        def project(point):
            return ExactProjector(region).project(point)
    cycle = itertools.cycle(points)
    benchmark.pedantic(lambda: project(next(cycle)),
                       rounds=rounds, iterations=1, warmup_rounds=1)


def test_perf_projection_cold_d1(benchmark):
    """Cold exact projection (a fresh projector, no warm start), d = 1."""
    _bench_projection(benchmark, d=1, warm=False, rounds=30)


def test_perf_projection_warm_d1(benchmark):
    """Warm-started exact projection, d = 1."""
    _bench_projection(benchmark, d=1, warm=True, rounds=60)


def test_perf_projection_cold_d2(benchmark):
    """Cold exact projection, d = 2 — the nested-bisection hot path."""
    _bench_projection(benchmark, d=2, warm=False, rounds=10)


def test_perf_projection_warm_d2(benchmark):
    """Warm-started exact projection, d = 2.

    The acceptance bar of ISSUE 2: this must run >= 2x faster than
    test_perf_projection_cold_d2 (see test_projection_warm_speedup)."""
    _bench_projection(benchmark, d=2, warm=True, rounds=60)


def test_perf_projection_cold_d3(benchmark):
    """Cold exact projection, d = 3 — doubly nested bisection."""
    _bench_projection(benchmark, d=3, warm=False, rounds=3)


def test_perf_projection_warm_d3(benchmark):
    """Warm-started exact projection, d = 3."""
    _bench_projection(benchmark, d=3, warm=True, rounds=60)


def test_projection_warm_speedup():
    """Direct enforcement of the >= 2x warm-over-cold bar on the d = 2 graph.

    Timed inline (not via pytest-benchmark) so the two paths can be compared
    within one test; the observed ratio is ~2 orders of magnitude, so the 2x
    bar has a wide safety margin against CI noise.
    """
    import time

    region, points = _projection_workload(2)
    timings = {}
    results = {}
    engine = ProjectionEngine("exact", region)
    for point in points[:4]:
        engine.project(point)
    for label, project in (("warm", engine.project),
                           ("cold", lambda point: ExactProjector(region).project(point))):
        start = time.perf_counter()
        results[label] = [project(point) for point in points[4:]]
        timings[label] = time.perf_counter() - start
    # Identical outputs (the warm start changes the path, not the answer) ...
    for warm_x, cold_x in zip(results["warm"], results["cold"]):
        np.testing.assert_array_equal(warm_x, cold_x)
    # ... at least twice as fast.
    assert timings["warm"] * 2.0 <= timings["cold"], (
        f"warm projection not >= 2x faster: warm={timings['warm']:.4f}s "
        f"cold={timings['cold']:.4f}s")


def test_perf_calibration_spmv(benchmark):
    """Fixed scipy sparse mat-vec used by perf_guard.py to normalize away
    machine-speed differences between the checked-in baseline and CI."""
    matrix = GRAPH.adjacency_matrix()
    x = np.random.default_rng(7).uniform(-1, 1, GRAPH.num_vertices)
    benchmark(lambda: matrix @ x)


def test_perf_gradient_matvec(benchmark):
    """The GD iteration's gradient on a fully free system of GRAPH: the
    counted mat-vec on the graph's own CSR, plus the boundary term."""
    x = np.random.default_rng(0).uniform(-1, 1, GRAPH.num_vertices)
    system = FreeVertexSystem(GRAPH, np.zeros(GRAPH.num_vertices, dtype=bool), x,
                              NumpyBackend(), np.ones(GRAPH.indices.size))
    benchmark(lambda: system.gradient(x))


def test_perf_exact_projection(benchmark):
    projector = ExactProjector(REGION)
    point = np.random.default_rng(1).normal(size=GRAPH.num_vertices) * 2
    benchmark(lambda: projector.project(point))


def test_perf_oneshot_projection(benchmark):
    projector = make_projector("alternating_oneshot", REGION)
    point = np.random.default_rng(2).normal(size=GRAPH.num_vertices) * 2
    benchmark(lambda: projector.project(point))


def test_perf_gd_bisection_20_iterations(benchmark):
    config = GDConfig(iterations=20, seed=0)
    benchmark.pedantic(lambda: gd_bisect(GRAPH, WEIGHTS, 0.05, config),
                       rounds=3, iterations=1, warmup_rounds=0)


def test_perf_subgraph_extraction(benchmark):
    """Induced subgraph of a random half of the vertices: a row filter that
    keeps about a quarter of the edges, unlike any recursion wave (see
    :func:`test_perf_wave_extraction`)."""
    rng = np.random.default_rng(3)
    half = rng.permutation(GRAPH.num_vertices)[:GRAPH.num_vertices // 2]
    benchmark(lambda: GRAPH.subgraph(half))


def test_perf_wave_extraction(benchmark):
    """One recursion wave's extraction: both sides of a 20-iteration GD
    bisection taken by a single :meth:`Graph.subgraphs` call, as the
    scheduler does at depth 1."""
    assignment = gd_bisect(GRAPH, WEIGHTS, 0.05, GDConfig(iterations=20, seed=0)
                           ).partition.assignment
    sides = [np.flatnonzero(assignment == 0), np.flatnonzero(assignment == 1)]
    benchmark(lambda: GRAPH.subgraphs(sides))


@functools.lru_cache(maxsize=1)
def _repair_workload():
    """fb-80 at scale 2 (n = 8,000, the ``kway_k64`` input) and a seeded
    60/40 start, which the repair needs ~750 moves to bring within
    ε = 0.02."""
    graph = fb_like(80, scale=2)
    sides = np.where(np.random.default_rng(0).random(graph.num_vertices) < 0.6, 1.0, -1.0)
    return graph, sides


def test_perf_balance_repair_classes(benchmark):
    """Balance repair over the unit and degree rows: 163 weight classes
    among 8,000 vertices, so the repair groups the vertices by weight
    column and each move computes one violation per class."""
    graph, sides = _repair_workload()
    weights = standard_weights(graph, 2)
    benchmark.pedantic(lambda: balance_repair(graph, sides, weights, 0.02),
                       rounds=5, iterations=1, warmup_rounds=1)


def test_perf_balance_repair_distinct_columns(benchmark):
    """The same plus a real-valued third row: all 8,000 columns are
    distinct, so every weight class holds one vertex."""
    graph, sides = _repair_workload()
    weights = np.vstack([standard_weights(graph, 2),
                         np.random.default_rng(1).uniform(0.5, 2.0, graph.num_vertices)])
    benchmark.pedantic(lambda: balance_repair(graph, sides, weights, 0.02),
                       rounds=5, iterations=1, warmup_rounds=1)


def test_perf_recursive_bisection_k8_serial(benchmark):
    """End-to-end k=8 partitioning through the frontier scheduler (serial
    backend) — the reference number for the parallel speedup figures."""
    config = GDConfig(iterations=10, seed=0)
    benchmark.pedantic(lambda: recursive_bisection(GRAPH, WEIGHTS, 8, 0.05, config),
                       rounds=3, iterations=1, warmup_rounds=0)


def _k8_frontier(iterations: int = 30) -> list[tuple]:
    """The wave that refines a k=8 partition: 8 independent bisection tasks
    on disjoint chunks of the benchmark graph, each with its own
    recursion-coordinate seed — the workload shape every level of the
    recursive scheduler hands to its execution backend."""
    chunks = np.array_split(np.arange(GRAPH.num_vertices), 8)
    tasks = []
    for index, ids in enumerate(chunks):
        subgraph, mapping = GRAPH.subgraph(ids)
        config = GDConfig(iterations=iterations, seed=task_seed(0, 3, index))
        tasks.append((subgraph, WEIGHTS[:, mapping], config))
    return tasks


def test_perf_frontier_serial_k8(benchmark):
    """One 8-task frontier wave solved task by task, each a group of one
    — the reference for the lock-step wave below."""
    tasks = _k8_frontier()
    benchmark.pedantic(lambda: [gd_bisect(subgraph, weights, 0.05, config)
                                for subgraph, weights, config in tasks],
                       rounds=3, iterations=1, warmup_rounds=1)


def _bench_wave(benchmark, graph, num_tasks: int, iterations: int, rounds: int) -> None:
    """One wave of ``num_tasks`` bisections of contiguous id chunks of
    ``graph``, through the serial executor's ``solve_frontier``: the
    scheduler's path, which steps the wave as one lock-step group."""
    from repro.core.checkpoint import TaskState
    from repro.core.executor import BisectionExecutor
    from repro.core.recursive import Walk

    walk = Walk(graph=graph, weights=standard_weights(graph, 2), epsilon=0.05,
                config=GDConfig(iterations=iterations, seed=0))
    tasks = [TaskState(vertex_ids=ids, num_parts=2, first_part=index, depth=3)
             for index, ids in enumerate(np.array_split(np.arange(graph.num_vertices),
                                                        num_tasks))]
    executor = BisectionExecutor()
    benchmark.pedantic(lambda: executor.solve_frontier(walk, tasks),
                       rounds=rounds, iterations=1, warmup_rounds=1)


def test_perf_frontier_wave_k8(benchmark):
    """The 8 tasks of test_perf_frontier_serial_k8 (the same seeds) as one
    lock-step wave of the scheduler, extraction included."""
    _bench_wave(benchmark, GRAPH, 8, iterations=30, rounds=3)


def test_perf_frontier_wave_k32(benchmark):
    """32 tasks of ~250 vertices of fb_like(80, 2) as one lock-step wave:
    the shape of the deepest wave of a k = 64 solve, where per-task
    iteration overhead dominates."""
    _bench_wave(benchmark, fb_like(80, scale=2), 32, iterations=100, rounds=3)


# --------------------------------------------------------------------- #
# GD bisection on the fig7 graph family
# --------------------------------------------------------------------- #
@functools.lru_cache(maxsize=1)
def _fig7_workload():
    """The fig7 benchmark graph (FB-400 preset) plus its weights."""
    graph = fb_like(400, scale=4.0, seed=0)
    return graph, standard_weights(graph, 2)


_FLAT_CONFIG = GDConfig(iterations=100, seed=0)


def test_perf_fig7_flat_bisect(benchmark):
    """A full GD bisection on the fig7 graph."""
    graph, weights = _fig7_workload()
    benchmark.pedantic(lambda: gd_bisect(graph, weights, 0.05, _FLAT_CONFIG),
                       rounds=3, iterations=1, warmup_rounds=1)


def _late_stage_stepper():
    """A stepper parked just past the vertex-fixing cliff (~99% fixed, a
    few hundred live free vertices — the real late-stage regime on this
    graph; by iteration 70 every vertex is fixed and the iteration
    degenerates).  Further fixing is disabled so every measured step faces
    the same free set."""
    graph, weights = _fig7_workload()
    warm = BisectionStepper([Bisection(graph, weights, 0.05, _FLAT_CONFIG)])
    for iteration in range(26):
        warm.step(iteration)
    free = int((~warm.fixed).sum())
    assert 0 < free < 0.05 * graph.num_vertices, (
        f"{free} free vertices; late-stage kernel benchmark invalid")
    stepper = BisectionStepper([Bisection(graph, weights, 0.05,
                                          _FLAT_CONFIG.with_updates(vertex_fixing=False),
                                          initial_x=warm.x.copy(),
                                          initial_fixed=warm.fixed.copy())])
    stepper.step(26)  # prime scratch buffers
    return stepper


def test_perf_free_system_reslice(benchmark):
    """The fixing event that re-slices a 250-vertex epoch at 24% live: a
    deep ``kway_k64`` task (a 250-vertex piece of its ``fb_like(80, 2)``
    input) cold-started, 187 vertices fixed, then 3 more.  Times the
    event's bookkeeping plus the restriction of the live rows."""
    graph, _ = fb_like(80, scale=2).subgraph(np.arange(250))
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, graph.num_vertices)
    order = rng.permutation(graph.num_vertices)
    unit = np.ones(graph.indices.size)

    def setup():
        system = FreeVertexSystem(graph, np.zeros(graph.num_vertices, dtype=bool), x,
                                  NumpyBackend(), unit)
        first = np.zeros(graph.num_vertices, dtype=bool)
        first[order[:187]] = True
        system.fix(first, np.sign(x[first]))
        second = np.zeros(system.num_free, dtype=bool)
        second[:3] = True
        return (system, second, np.sign(x[system.free_ids[second]])), {}

    def reslice(system, newly_fixed, values):
        system.fix(newly_fixed, values)
        assert system.num_free == 60 and system.matrix.shape == (60, 60)

    benchmark.pedantic(reslice, setup=setup, rounds=200, iterations=1, warmup_rounds=5)


def test_perf_free_system_warm_build(benchmark):
    """A repair task's free-vertex system: ``fb_like(80, 4)`` (the
    ``churn_repair`` input) with 0.1% of its vertices fixed, so nearly
    the whole adjacency is restricted and the boundary sums the few
    fixed neighbours."""
    graph = fb_like(80, scale=4)
    rng = np.random.default_rng(1)
    fixed = rng.random(graph.num_vertices) < 0.001
    x = np.where(rng.random(graph.num_vertices) < 0.5, 1.0, -1.0)
    # The stepper allocates the unit buffer once per group, outside the
    # system's construction.
    unit = np.ones(graph.indices.size)
    benchmark.pedantic(lambda: FreeVertexSystem(graph, fixed, x, NumpyBackend(), unit),
                       rounds=20, iterations=1, warmup_rounds=1)


def test_perf_iteration_kernel_fused_late_stage(benchmark):
    """One late-stage iteration: free-vertex gradient plus the fused
    step+projection pass."""
    stepper = _late_stage_stepper()
    # iterations=10 amortizes timer jitter: one ~35us call per round puts
    # the median at OS-noise scale.
    benchmark.pedantic(lambda: stepper.step(27), rounds=30, iterations=10,
                       warmup_rounds=2)


# --------------------------------------------------------------------- #
# Dynamic-graph engine: incremental repair vs full recompute under churn
# --------------------------------------------------------------------- #
@functools.lru_cache(maxsize=1)
def _churn_workload():
    """An fb-80 preset graph with its initial k=8 partition and a churn
    trace (1% of the edges rewired per batch) — the dynamic-graph
    benchmark workload of ISSUE 5."""
    from repro.dynamic import UpdateBatch
    from repro.graphs import churn_trace, fb_like

    graph = fb_like(80, scale=1.0, seed=0)
    weights = standard_weights(graph, 2)
    config = GDConfig(iterations=60, seed=0)
    initial = recursive_bisection(graph, weights, 8, 0.05, config)
    batches = [UpdateBatch(insertions=ins, deletions=dels)
               for ins, dels in churn_trace(graph, 1, 0.01, seed=1)]
    return graph, weights, config, initial, batches


def _fresh_repartitioner():
    from repro.dynamic import DynamicGraph, IncrementalRepartitioner

    graph, weights, config, initial, _ = _churn_workload()
    dynamic = DynamicGraph(graph, weights)
    return IncrementalRepartitioner(dynamic, initial.assignment, 8,
                                    epsilon=0.05, config=config)


def test_perf_churn_repair_batch(benchmark):
    """Absorbing one 1% churn batch through the incremental repartitioner
    (damage scoring + h-hop freeze + warm-started repair).  The
    acceptance bar of ISSUE 5 — ≥ 5x fewer GD iterations than a full
    recompute at comparable locality — is enforced directly by
    test_churn_repair_quality_and_work; this pair carries the wall-clock
    numbers for the perf guard."""
    _, _, _, _, batches = _churn_workload()

    def setup():
        # A fresh repartitioner per round: apply() mutates the graph, so
        # the same batch can only be absorbed once per engine.
        return (_fresh_repartitioner(), batches[0]), {}

    benchmark.pedantic(lambda rep, batch: rep.apply(batch), setup=setup,
                       rounds=5, iterations=1, warmup_rounds=1)


def test_perf_churn_recompute_batch(benchmark):
    """The comparison point: full recursive GD on the post-batch graph —
    what a system without the incremental engine would run per batch."""
    graph, weights, config, _, batches = _churn_workload()
    from repro.dynamic import DynamicGraph

    dynamic = DynamicGraph(graph, weights)
    dynamic.apply(batches[0])
    updated = dynamic.snapshot()
    benchmark.pedantic(
        lambda: recursive_bisection(updated, dynamic.weights, 8, 0.05, config),
        rounds=3, iterations=1, warmup_rounds=1)


@pytest.mark.slow
def test_churn_repair_quality_and_work():
    """The ISSUE 5 acceptance bar on a 20-batch churn replay (fb-80
    preset, 1% edge churn per batch): incremental repair tracks the
    per-batch full-recompute locality within 1 point on average while
    executing ≥ 5x fewer GD iterations on average, and every batch ends
    ε-balanced.

    The per-batch gap guard is looser (4 points): the recompute reference
    is itself a fresh randomized GD solve whose locality varies ~1.5
    points between adjacent seeds/batches at this scale, so only the mean
    is a stable 1-point signal.  Observed on this workload: mean gap ≈
    −0.3 (repair slightly *better* than recompute, because it keeps
    refining one basin), mean work ratio 6x.
    """
    from repro.experiments import churn_replay

    rows = churn_replay.run(preset="fb-80", scale=1.0, num_parts=8,
                            num_batches=20, churn_fraction=0.01,
                            gd_iterations=60, seed=0,
                            measure_supersteps=False)
    gaps = [row["locality_gap_pts"] for row in rows]
    ratios = [row["work_ratio"] for row in rows]
    mean_gap = float(np.mean(gaps))
    mean_ratio = float(np.mean(ratios))
    assert mean_gap <= 1.0, (
        f"incremental repair trails full recompute by {mean_gap:.2f} locality "
        f"points on average (budget: 1.0); per-batch gaps: {np.round(gaps, 2)}")
    assert max(gaps) <= 4.0, (
        f"a single batch trailed recompute by {max(gaps):.2f} points "
        f"(noise guard: 4.0)")
    assert mean_ratio >= 5.0, (
        f"repair is only {mean_ratio:.2f}x cheaper than recompute in GD "
        f"iterations (budget: 5x); per-batch ratios: {np.round(ratios, 2)}")
    assert all(row["balanced"] for row in rows), (
        "a batch ended outside the ε balance band: "
        f"{[row['batch'] for row in rows if not row['balanced']]}")


# --------------------------------------------------------------------- #
# Churn bookkeeping: the CSR splice and the hop expansion of one batch
# --------------------------------------------------------------------- #
@functools.lru_cache(maxsize=2)
def _churn_bookkeeping_batch(fraction: float):
    """The ``churn_repair`` input (fb-80 at scale 4, n = 16,000) and one
    churn batch rewiring ``fraction`` of its edges, with the degree
    weights kept in sync as the benchmark's batches keep them."""
    from repro.dynamic import DynamicGraph, UpdateBatch, degree_weight_deltas
    from repro.graphs import churn_trace

    graph = fb_like(80, scale=4)
    weights = standard_weights(graph, 2)
    (insertions, deletions), = churn_trace(graph, 1, fraction, seed=1)
    vertices, deltas = degree_weight_deltas(DynamicGraph(graph, weights),
                                            insertions, deletions)
    return graph, weights, UpdateBatch(insertions=insertions, deletions=deletions,
                                       weight_vertices=vertices, weight_deltas=deltas)


def _bench_dynamic_apply(benchmark, fraction: float):
    from repro.dynamic import DynamicGraph

    graph, weights, batch = _churn_bookkeeping_batch(fraction)

    def setup():
        # A fresh live graph per round: a batch can only be applied once.
        return (DynamicGraph(graph, weights), batch), {}

    benchmark.pedantic(lambda dynamic, batch: dynamic.apply(batch), setup=setup,
                       rounds=20, iterations=1, warmup_rounds=1)


def test_perf_dynamic_apply_small(benchmark):
    """:meth:`DynamicGraph.apply` of one 0.05% batch (198 edge edits), the
    ``churn_repair`` batch size."""
    _bench_dynamic_apply(benchmark, 0.0005)


def test_perf_dynamic_apply_large(benchmark):
    """:meth:`DynamicGraph.apply` of one 1% batch (3,976 edge edits)."""
    _bench_dynamic_apply(benchmark, 0.01)


def test_perf_expand_hops(benchmark):
    """The released set of a repair: 2 hops (the default
    ``repartition_hops``) from the vertices of one 0.05% batch."""
    from repro.dynamic import DynamicGraph
    from repro.dynamic.repartition import expand_hops

    graph, weights, batch = _churn_bookkeeping_batch(0.0005)
    dynamic = DynamicGraph(graph, weights)
    seeds = dynamic.apply(batch).touched_vertices()
    benchmark(lambda: expand_hops(dynamic.indptr, dynamic.indices, seeds, 2,
                                  dynamic.num_vertices))


def test_perf_pagerank_superstep(benchmark):
    engine = BSPEngine()
    placement = Partition(graph=GRAPH,
                          assignment=np.arange(GRAPH.num_vertices) % 16,
                          num_parts=16)
    program = PageRank(supersteps=1)
    benchmark.pedantic(lambda: engine.run(GRAPH, placement, program),
                       rounds=3, iterations=1, warmup_rounds=0)


def test_perf_store_graph_roundtrip(benchmark, tmp_path):
    """Persisting + reloading the fb-80 graph through the partition store
    (sqlite catalog row + npy sidecar + from_edges rebuild) — the cost of
    a `repro store put` / serve boot pair."""
    from repro.store import PartitionStore

    graph = fb_like(80, scale=1.0, seed=0)
    store = PartitionStore(tmp_path / "bench.sqlite")
    counter = itertools.count()

    def roundtrip():
        name = f"graph-{next(counter)}"
        store.put_graph(name, graph)
        return store.get_graph(name)

    try:
        benchmark.pedantic(roundtrip, rounds=5, iterations=1, warmup_rounds=1)
    finally:
        store.close()


def test_perf_serve_lookup_batch(benchmark):
    """One maximum-size (65536-id, Zipf-skewed) lookup against the
    in-memory service — the hot path under every TCP request, without the
    codec."""
    from repro.serve import PartitionService, ServeConfig
    from repro.serve.load import zipf_ids

    graph, weights, config, initial, _ = _churn_workload()
    service = PartitionService(graph, weights, initial.assignment, 8,
                               config=config,
                               serve_config=ServeConfig(port=0))
    ids = zipf_ids(graph.num_vertices, 65536, skew=1.0, seed=2)
    benchmark(lambda: service.lookup(ids))
