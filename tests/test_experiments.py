"""Tests for the experiment harness (structure and qualitative shape).

Every experiment runner is executed at a tiny scale so the whole module
stays fast; the assertions check (a) the row/series structure the
benchmarks rely on and (b) the coarse qualitative orderings the paper
reports (e.g. GD locality above Hash locality).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    appendix_stackoverflow,
    fig1_worker_histogram,
    fig4_imbalance,
    fig5_locality_public,
    fig6_locality_fb,
    fig7_speedup,
    fig8_step_length,
    fig9_adaptive,
    fig10_projection_methods,
    fig11_scalability,
    format_series,
    format_table,
    table2_pagerank_detail,
    table3_gd_vs_metis,
)
from repro.experiments.common import (
    PARTITIONING_MODES,
    make_baseline,
    measure_resources,
    partition_by_mode,
    public_graph,
)
from repro.experiments.fig11_scalability import linear_fit_r_squared

TINY = 0.15  # generator scale used throughout this module


class TestCommonHelpers:
    def test_public_graph_loads(self):
        graph = public_graph("livejournal", scale=TINY)
        assert graph.num_vertices > 0

    def test_make_baseline_known_names(self):
        for name in ("Hash", "Spinner", "BLP", "SHP", "METIS"):
            assert make_baseline(name).name == name

    def test_make_baseline_unknown(self):
        with pytest.raises(KeyError):
            make_baseline("GD2")

    def test_partition_by_mode_all_modes(self):
        graph = public_graph("livejournal", scale=TINY)
        for mode in PARTITIONING_MODES:
            partition = partition_by_mode(graph, mode, 4, iterations=15)
            assert partition.num_parts == 4

    def test_partition_by_mode_unknown(self):
        graph = public_graph("livejournal", scale=TINY)
        with pytest.raises(ValueError):
            partition_by_mode(graph, "magic", 2)

    def test_measure_resources(self):
        value, usage = measure_resources(lambda: sum(range(1000)))
        assert value == sum(range(1000))
        assert usage.seconds >= 0
        assert usage.peak_memory_mb >= 0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2.5], [10, 3.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "bbb" in lines[1]
        assert len(lines) == 5

    def test_format_series_samples_last_point(self):
        text = format_series({"s": list(range(25))}, stride=10)
        assert "24" in text


class TestFigureRunners:
    def test_fig1_rows(self):
        rows = fig1_worker_histogram.run(num_workers=4, scale=TINY, gd_iterations=10,
                                         pagerank_supersteps=2)
        assert {row["strategy"] for row in rows} == {"hash", "vertex", "edge", "vertex-edge"}
        assert all("speedup_over_hash_pct" in row for row in rows)
        assert fig1_worker_histogram.format_result(rows)

    def test_fig4_rows_and_shape(self):
        rows = fig4_imbalance.run(scale=TINY, gd_iterations=10, graphs=("twitter",),
                                  algorithms=("Spinner", "GD"))
        by_algorithm = {row["algorithm"]: row for row in rows if row["k"] == 2}
        # GD must be (much) better balanced than Spinner on a skewed graph.
        assert (by_algorithm["GD"]["vertex_imbalance"]
                <= by_algorithm["Spinner"]["vertex_imbalance"] + 0.05)
        assert fig4_imbalance.format_result(rows)

    def test_fig5_gd_beats_hash(self):
        rows = fig5_locality_public.run(scale=TINY, gd_iterations=15,
                                        graphs=("livejournal",), part_counts=(2,))
        locality = {row["algorithm"]: row["edge_locality_pct"] for row in rows}
        assert locality["GD"] > locality["Hash"]
        assert fig5_locality_public.format_result(rows)

    def test_fig6_rows(self):
        rows = fig6_locality_fb.run(scale=TINY, gd_iterations=10, fb_sizes=(3,),
                                    part_counts=(4,))
        assert {row["algorithm"] for row in rows} == {"Hash", "BLP", "GD"}
        assert fig6_locality_fb.format_result(rows)

    def test_fig7_rows(self):
        rows = fig7_speedup.run(scale=TINY, gd_iterations=10, applications=("PR",),
                                configurations=(("small", 3, 4),))
        assert len(rows) == len(PARTITIONING_MODES)
        assert all(row["application"] == "PR" for row in rows)
        assert fig7_speedup.format_result(rows)

    def test_table2_rows(self):
        rows = table2_pagerank_detail.run(scale=TINY, num_workers=4, gd_iterations=10,
                                          pagerank_supersteps=2)
        assert {row["partitioning"] for row in rows} == {"hash", "vertex", "edge",
                                                         "vertex-edge"}
        for row in rows:
            assert row["runtime_max"] >= row["runtime_mean"]
        assert table2_pagerank_detail.format_result(rows)

    def test_fig8_series(self):
        results = fig8_step_length.run(scale=TINY, iterations=10,
                                       graphs=("livejournal",), step_factors=(2.0, 1.0))
        series = results["livejournal"]
        assert set(series) == {"step 2", "step 1"}
        assert all(len(values) == 11 for values in series.values())
        assert fig8_step_length.format_result(results)

    def test_fig9_series(self):
        results = fig9_adaptive.run(scale=TINY, iterations=10, graphs=("livejournal",))
        metrics = results["livejournal"]
        assert set(metrics) == {"locality", "imbalance"}
        assert set(metrics["locality"]) == {"nonadaptive", "adaptive", "adaptive+fixing"}
        assert fig9_adaptive.format_result(results)

    def test_fig10_series(self):
        results = fig10_projection_methods.run(scale=TINY, iterations=8,
                                               graphs=("livejournal",))
        series = results["livejournal"]
        assert "alternating" in series
        assert any(name.startswith("exact") for name in series)
        assert fig10_projection_methods.format_result(results)

    def test_fig11_linearity(self):
        """Figure 11's claim: GD time grows linearly in |E|.  From scale 1
        up (49k to 392k edges at I = 100) the per-edge work outweighs the
        per-iteration overhead, so the time grows with |E| and no faster
        than linearly.  The check is the least-squares slope of log(time)
        on log(|E|): 1 for time ∝ |E|, below 1 while a fixed cost still
        shows, ~2 for time ∝ |E|² (which R² cannot tell from linear)."""
        result = fig11_scalability.run(scales=(1.0, 2.0, 4.0, 8.0), iterations=100)
        rows = result["rows"]
        assert len(rows) == 4
        exponent = np.polyfit(np.log([row["num_edges"] for row in rows]),
                              np.log([row["seconds"] for row in rows]), 1)[0]
        assert 0.2 < exponent < 1.25
        assert fig11_scalability.format_result(result)

    def test_linear_fit_perfect_line(self):
        edges = np.array([1.0, 2.0, 3.0, 4.0])
        assert linear_fit_r_squared(edges, 2.0 * edges) == pytest.approx(1.0)

    def test_table3_rows(self):
        rows = table3_gd_vs_metis.run(scale=TINY, gd_iterations=10,
                                      graphs=("livejournal",), dimensions=(2,))
        assert {row["algorithm"] for row in rows} == {"GD", "METIS"}
        for row in rows:
            assert row["memory_mb"] > 0
            assert row["seconds"] > 0
        assert table3_gd_vs_metis.format_result(rows)

    def test_appendix_runners(self):
        fig16 = appendix_stackoverflow.run_fig16(scale=TINY, iterations=6)
        assert "stackoverflow" in fig16
        assert appendix_stackoverflow.format_result("fig16", fig16)
        with pytest.raises(KeyError):
            appendix_stackoverflow.format_result("fig99", fig16)
