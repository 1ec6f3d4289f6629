"""Benchmark regenerating Figure 7: Giraph job speedups over Hash.

Paper shape to reproduce: two-dimensional (vertex-edge) partitioning always
improves over Hash, while one-dimensional partitioning is inconsistent and
can regress.
"""

from repro.experiments import fig7_speedup

import pytest

from _util import BENCH_SCALE, run_once, save_result

pytestmark = pytest.mark.slow



def test_fig7_measured_parallel(benchmark):
    """Measured-parallel fig7 mode: the thread backend must reproduce the
    serial placements (and hence every cost-model number) bit for bit, per
    the deterministic-seeding contract; the nightly multi-core CI lane is
    where its ``partition_seconds`` column shows an actual speedup."""
    rows_parallel = run_once(benchmark, lambda: fig7_speedup.run(
        scale=BENCH_SCALE, gd_iterations=30, parallelism="thread", max_workers=4))
    rows_serial = fig7_speedup.run(scale=BENCH_SCALE, gd_iterations=30)
    assert ([row["speedup_pct"] for row in rows_parallel]
            == [row["speedup_pct"] for row in rows_serial])


def test_fig7_speedup(benchmark):
    rows = run_once(benchmark, lambda: fig7_speedup.run(
        scale=BENCH_SCALE, gd_iterations=40))
    save_result("fig7_speedup", fig7_speedup.format_result(rows),
                fig7_speedup.format_timings(rows))

    vertex_edge = [r["speedup_pct"] for r in rows if r["mode"] == "vertex-edge"]
    one_dimensional = [r["speedup_pct"] for r in rows if r["mode"] in ("vertex", "edge")]
    # The headline claim: vertex-edge partitioning always improves over Hash.
    assert all(speedup > 0 for speedup in vertex_edge)
    # Two-dimensional balance is at least as good as the best 1-D strategy on
    # average, and 1-D strategies are less consistent (lower minimum).
    assert min(vertex_edge) > min(one_dimensional)
    assert (sum(vertex_edge) / len(vertex_edge)
            >= sum(one_dimensional) / len(one_dimensional) - 1.0)
