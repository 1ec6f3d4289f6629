"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from repro.partition import Partition  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
#: Shrinks every graph to a few thousand vertices or fewer; k = 64 needs
#: enough vertices per part for every GD seed to reach an ε-balanced split.
TINY = 0.05
SIZES = {"kway_k64": 0.5}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]] + ["kway_shm2"])
def test_smoke_prints_every_metric_with_its_unit(name, trace, tmp_path):
    out = tmp_path / "trace.json"
    result, report = run.run_benchmark(name, 1, 0.01, trace, size=SIZES.get(name, TINY),
                                       trace_out=str(out) if trace else None)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {key: value["unit"] for key, value in result["metrics"].items()} == expected
    for key, unit in expected.items():
        assert any(line.split()[::2] == [key, unit] for line in report), key
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    if trace:
        events = json.loads(out.read_text())["traceEvents"]
        assert {event["name"] for event in events} >= {workloads.make(name, 1).root_span}
    else:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_spec_matches_the_code():
    assert [m["name"] for m in SPEC["per_layer"]] == [name for name, _ in tracer.PER_LAYER]
    assert [m["name"] for m in SPEC["end_to_end"]] == [name for name, _ in run.END_TO_END]
    for workload in SPEC["workloads"]:
        workloads.make(workload["name"], 0)


def test_corrupted_assignment_counts_as_failed():
    workload, problem = run.set_up("kway_serial", 1, TINY)
    assert problem is None
    solve = workload.operation

    def corrupted(argument):
        result = solve(argument)
        everything_in_part_zero = np.zeros_like(result.partition.assignment)
        return dataclasses.replace(result, partition=Partition(
            graph=workload.graph, assignment=everything_in_part_zero,
            num_parts=workload.num_parts))

    workload.operation = corrupted
    measured = run.measure(workload, 0.0)
    assert measured["attempted"] == 1
    assert len(measured["problems"]) == 1 and "imbalance" in measured["problems"][0]


def test_host_clock_scales_by_the_calibrations_around_an_interval():
    clock = run.HostClock()
    before = clock.last
    scaled = clock.scale(2.0)
    after = clock.last
    assert clock.calibrations[-2:] == [before, after] and after > 0
    assert scaled == pytest.approx(2.0 * run.CALIBRATION_NOMINAL_S / (0.5 * (before + after)))


def test_check_assignment_rejects_bad_shapes_and_labels():
    workload, _ = run.set_up("kway_serial", 1, TINY)
    good = workload.last.partition.assignment
    args = (workload.graph, workload.num_parts, workload.weights)
    assert workloads.check_assignment(good, *args) is None
    assert "shape" in workloads.check_assignment(good[:-1], *args)
    assert "labels" in workloads.check_assignment(good + workload.num_parts, *args)


@pytest.mark.parametrize("name", ["kway_serial", "churn_repair"])
def test_traced_self_times_sum_to_operation_wall_time(name):
    """Self times partition the root span, and the root span covers the
    operation up to the wrapper installation: within 5 % + 2 ms."""
    workload, _ = run.set_up(name, 1, TINY)
    spans = tracer.Tracer()
    measured = run.measure(workload, 0.5, spans)
    assert measured["traced"]
    for op, wall_s in enumerate(measured["traced"]):
        _, self_ms = tracer.op_spans(spans, op)
        assert all(value >= 0 for value in self_ms)
        assert abs(sum(self_ms) - wall_s * 1e3) <= 0.05 * wall_s * 1e3 + 2.0
