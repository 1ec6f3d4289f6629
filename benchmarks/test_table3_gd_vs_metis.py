"""Benchmark regenerating Table 3: GD vs METIS for d = 2, 3, 4 constraints.

Paper shape to reproduce: for d ≥ 3 METIS cannot keep every constraint
balanced while GD stays within ~1%, with competitive locality.
"""

from repro.experiments import table3_gd_vs_metis

import pytest

from _util import BENCH_SCALE, run_once, save_result

pytestmark = pytest.mark.slow



def test_table3_gd_vs_metis(benchmark):
    rows = run_once(benchmark, lambda: table3_gd_vs_metis.run(
        scale=BENCH_SCALE, gd_iterations=60))
    save_result("table3_gd_vs_metis", table3_gd_vs_metis.format_result(rows),
                table3_gd_vs_metis.format_timings(rows))

    def worst_imbalance(algorithm, dimensions):
        return max(r["max_imbalance_pct"] for r in rows
                   if r["algorithm"] == algorithm and r["d"] == dimensions)

    # GD honours the balance constraints at every dimensionality.
    for d in (2, 3, 4):
        assert worst_imbalance("GD", d) < 7.0
    # For the high-dimensional cases METIS's balance degrades below GD's.
    assert worst_imbalance("METIS", 4) > worst_imbalance("GD", 4)
    # Locality stays in the same ballpark (GD within 15 points of METIS).
    for d in (2, 3, 4):
        gd_locality = [r["edge_locality_pct"] for r in rows
                       if r["algorithm"] == "GD" and r["d"] == d]
        metis_locality = [r["edge_locality_pct"] for r in rows
                          if r["algorithm"] == "METIS" and r["d"] == d]
        assert min(gd_locality) > min(metis_locality) - 15.0
