"""Ablation benchmarks for the design choices called out in DESIGN.md §5.

These go beyond the paper's figures: each ablation isolates one
implementation choice of GD (projection method cost, vertex-fixing
threshold, noise schedule, rounding repair, recursive vs direct k-way) and
records the quality/cost trade-off.
"""

import time

from repro.core import GDConfig, gd_bisect, gd_multiway, recursive_bisection
from repro.experiments import format_table
from repro.graphs import livejournal_like, standard_weights
from repro.partition import edge_locality, max_imbalance

from _util import run_once, save_result

SCALE = 0.5
SEED = 0


def _graph_and_weights():
    graph = livejournal_like(scale=SCALE, seed=SEED)
    return graph, standard_weights(graph, 2)


def test_ablation_projection_methods(benchmark):
    """Quality and wall-clock cost of each projection method."""
    graph, weights = _graph_and_weights()

    def run():
        rows = []
        for method in ("alternating_oneshot", "alternating", "dykstra", "exact"):
            config = GDConfig(iterations=40, projection_method=method, seed=SEED)
            start = time.perf_counter()
            result = gd_bisect(graph, weights, 0.05, config)
            rows.append([method, edge_locality(result.partition),
                         100.0 * max_imbalance(result.partition, weights),
                         time.perf_counter() - start])
        return rows

    rows = run_once(benchmark, run)
    save_result("ablation_projection_methods",
                format_table(["projection", "locality_%", "max_imbalance_%"],
                             [row[:3] for row in rows],
                             title="Ablation: projection method", precision=3),
                format_table(["projection", "seconds"], [[row[0], row[3]] for row in rows],
                             precision=3))
    by_method = {row[0]: row for row in rows}
    # Every method meets the balance constraint after repair.
    assert all(row[2] < 7.0 for row in rows)
    # The one-shot method is the cheapest per run (that is why it is the default).
    assert by_method["alternating_oneshot"][3] <= by_method["exact"][3] + 0.5


def test_ablation_vertex_fixing_threshold(benchmark):
    """Sweep of the |x_i| threshold above which vertices are frozen."""
    graph, weights = _graph_and_weights()

    def run():
        rows = []
        for threshold in (0.8, 0.9, 0.95, 0.99, 1.0):
            config = GDConfig(iterations=60, fixing_threshold=threshold, seed=SEED)
            result = gd_bisect(graph, weights, 0.05, config)
            rows.append([threshold, edge_locality(result.partition),
                         100.0 * max_imbalance(result.partition, weights)])
        return rows

    rows = run_once(benchmark, run)
    save_result("ablation_vertex_fixing_threshold", format_table(
        ["threshold", "locality_%", "max_imbalance_%"], rows,
        title="Ablation: vertex-fixing threshold"))
    assert all(row[2] < 7.0 for row in rows)
    localities = [row[1] for row in rows]
    assert max(localities) - min(localities) < 25.0


def test_ablation_noise_schedule(benchmark):
    """Noise only at t=0 (paper default) vs noise at every iteration."""
    graph, weights = _graph_and_weights()

    def run():
        rows = []
        for every, label in ((False, "first iteration only"), (True, "every iteration")):
            config = GDConfig(iterations=60, noise_every_iteration=every, seed=SEED)
            result = gd_bisect(graph, weights, 0.05, config)
            rows.append([label, edge_locality(result.partition),
                         100.0 * max_imbalance(result.partition, weights)])
        return rows

    rows = run_once(benchmark, run)
    save_result("ablation_noise_schedule", format_table(
        ["noise", "locality_%", "max_imbalance_%"], rows,
        title="Ablation: noise schedule"))
    by_label = {row[0]: row for row in rows}
    # The paper's observation: noise beyond the first iteration is unnecessary.
    assert by_label["first iteration only"][1] >= by_label["every iteration"][1] - 5.0


def test_ablation_rounding_repair(benchmark):
    """Plain randomized rounding vs rounding followed by balance repair."""
    graph, weights = _graph_and_weights()

    def run():
        rows = []
        for repair, label in ((False, "no repair"), (True, "with repair")):
            config = GDConfig(iterations=60, balance_repair=repair, seed=SEED)
            result = gd_bisect(graph, weights, 0.05, config)
            rows.append([label, edge_locality(result.partition),
                         100.0 * max_imbalance(result.partition, weights)])
        return rows

    rows = run_once(benchmark, run)
    save_result("ablation_rounding_repair", format_table(
        ["rounding", "locality_%", "max_imbalance_%"], rows,
        title="Ablation: balance repair after rounding"))
    by_label = {row[0]: row for row in rows}
    # Repair never worsens balance and keeps locality within a few points.
    assert by_label["with repair"][2] <= by_label["no repair"][2] + 1e-9
    assert by_label["with repair"][1] >= by_label["no repair"][1] - 10.0


def test_ablation_recursive_vs_direct_kway(benchmark):
    """Recursive bisection (§3.3, paper default) vs the direct k-way relaxation."""
    graph, weights = _graph_and_weights()
    num_parts = 4

    def run():
        config = GDConfig(iterations=40, seed=SEED)
        start = time.perf_counter()
        recursive = recursive_bisection(graph, weights, num_parts, 0.05, config)
        recursive_seconds = time.perf_counter() - start
        start = time.perf_counter()
        direct = gd_multiway(graph, weights, num_parts, 0.05, config).partition
        direct_seconds = time.perf_counter() - start
        return [
            ["recursive", edge_locality(recursive),
             100.0 * max_imbalance(recursive, weights), recursive_seconds],
            ["direct", edge_locality(direct),
             100.0 * max_imbalance(direct, weights), direct_seconds],
        ]

    rows = run_once(benchmark, run)
    save_result("ablation_recursive_vs_direct_kway",
                format_table(["k-way driver", "locality_%", "max_imbalance_%"],
                             [row[:3] for row in rows],
                             title=f"Ablation: recursive vs direct k-way (k={num_parts})",
                             precision=3),
                format_table(["k-way driver", "seconds"],
                             [[row[0], row[3]] for row in rows], precision=3))
    by_driver = {row[0]: row for row in rows}
    # Recursive bisection (the paper's choice) keeps the balance guarantee.
    assert by_driver["recursive"][2] < 10.0
    assert by_driver["recursive"][1] > 100.0 / num_parts
