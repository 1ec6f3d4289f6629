"""Tests of ``perf_guard.py record`` on the end-to-end benchmark's report."""

import json

import perf_guard

PERFBENCH_REPORT = {
    "correct": True, "attempted": 14, "failed": 0,
    "metrics": {"solve_s": {"value": 0.45, "unit": "s"},
                "graphs.subgraphs.self_ms": {"value": 103.0, "unit": "ms"}},
}


def test_flatten_report_lifts_metric_values():
    assert perf_guard.flatten_report(PERFBENCH_REPORT) == {
        "correct": True, "attempted": 14, "failed": 0,
        "solve_s": 0.45, "graphs.subgraphs.self_ms": 103.0}


def test_flatten_report_keeps_flat_reports():
    flat = {"lookups_per_sec": 880000.0, "p99_ms": 1.5}
    assert perf_guard.flatten_report(flat) == flat


def test_record_reads_a_perfbench_report(tmp_path):
    report = tmp_path / "perfbench.json"
    report.write_text(json.dumps(PERFBENCH_REPORT))
    history = tmp_path / "history.jsonl"
    assert perf_guard.main(["record", str(report), "--label", "perfbench",
                            "--keys", "solve_s", "graphs.subgraphs.self_ms", "failed",
                            "--history-file", str(history)]) == 0
    entry, = [json.loads(line) for line in history.read_text().splitlines()]
    assert entry["metrics"] == {"perfbench:solve_s": 0.45,
                                "perfbench:graphs.subgraphs.self_ms": 103.0,
                                "perfbench:failed": 0.0}
