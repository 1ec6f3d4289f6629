"""CI perf-regression guard over the hot-path microbenchmarks.

Usage (what ``.github/workflows/ci.yml`` runs)::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_microbenchmarks.py \
        --benchmark-json=bench_raw.json
    python benchmarks/perf_guard.py check bench_raw.json

``check`` distills the pytest-benchmark output into machine-readable
timings, writes them as ``BENCH_ci.json`` (via :func:`_util.save_json`),
compares every benchmark's median against the checked-in baseline
(``benchmarks/BENCH_baseline.json``) and exits non-zero if any hot-path
benchmark regressed more than ``--factor`` (default 2×).  Benchmarks
present in the run but missing from the baseline are reported as *new*
(a warning, never a failure) so adding a microbenchmark does not require
a lockstep baseline edit; baseline entries missing from the run warn the
same way.  When ``$GITHUB_STEP_SUMMARY`` is set (as in GitHub Actions)
the full comparison is also written there as a markdown table.  Every
``check`` additionally appends one JSON line (per-benchmark medians plus
guard statuses) to ``benchmarks/results/BENCH_history.jsonl`` — the
append-only perf trajectory, uploaded as a CI artifact so the series
survives ephemeral workspaces.

Raw wall-clock numbers are not portable between the machine that produced
the baseline and the CI runner, so before comparing, baseline medians are
rescaled by the ratio of the two machines' ``test_perf_calibration_spmv``
medians — a fixed sparse mat-vec whose speed tracks the memory-bandwidth
bound kernels the suite actually measures.

``snapshot`` refreshes the baseline from a raw pytest-benchmark JSON::

    python benchmarks/perf_guard.py snapshot bench_raw.json

``history`` renders the accumulated ``BENCH_history.jsonl`` as a
per-benchmark trend table (one column per recorded run, newest last) so
the cross-run trajectory is visible directly in the workflow step summary
instead of requiring an artifact download::

    python benchmarks/perf_guard.py history --limit 8

``record`` appends arbitrary named metrics (not pytest-benchmark
timings) to the same history file — the nightly serve-session lane uses
it to track ``lookups_per_sec`` / ``repair_lag_batches`` from the load
driver's JSON report alongside the microbenchmark medians::

    python benchmarks/perf_guard.py record serve_report.json \
        --label serve --keys lookups_per_sec p50_ms p99_ms repair_lag_batches

It also reads the end-to-end benchmark's report (the last line
``perfbench/run.py`` prints), whose ``metrics`` object maps each name to
``{"value", "unit"}``; the values are recorded under their metric names::

    python3 perfbench/run.py --workload kway_serial --seed 1 --seconds 10 \
        --trace 0 | tail -n 1 > perfbench.json
    python benchmarks/perf_guard.py record perfbench.json \
        --label perfbench --keys solve_s setup_s peak_rss_mb
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from _util import RESULTS_DIR, save_json

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_baseline.json"

#: Append-only perf trajectory: one JSON line per ``check`` run, so the
#: medians can be plotted across commits/runs.  CI uploads it as an
#: artifact; locally it accumulates under ``benchmarks/results/``.
HISTORY_PATH = RESULTS_DIR / "BENCH_history.jsonl"

#: Benchmark used to rescale the baseline to the speed of the machine
#: running the check (see module docstring).
CALIBRATION_BENCHMARK = "test_perf_calibration_spmv"

DEFAULT_FACTOR = 2.0


def distill(raw_path: Path) -> dict:
    """Reduce a pytest-benchmark JSON file to ``{name: stats}`` timings."""
    raw = json.loads(raw_path.read_text(encoding="utf-8"))
    timings = {}
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        timings[bench["name"]] = {
            "median_seconds": stats["median"],
            "mean_seconds": stats["mean"],
            "rounds": stats["rounds"],
        }
    return {
        "machine": raw.get("machine_info", {}).get("node", "unknown"),
        "python": raw.get("machine_info", {}).get("python_version", "unknown"),
        "benchmarks": timings,
    }


def compare(current: dict, baseline: dict,
            factor: float) -> tuple[list[dict], list[str], str]:
    """Compare a run against the baseline.

    Returns ``(rows, failures, calibration_note)``: one row dict per
    benchmark (status ``ok``/``FAIL``/``new``/``missing``) for rendering,
    one human-readable line per regression (empty = healthy), and the
    calibration sentence.
    """
    current_benchmarks = current["benchmarks"]
    baseline_benchmarks = baseline["benchmarks"]

    calibration = 1.0
    if (CALIBRATION_BENCHMARK in current_benchmarks
            and CALIBRATION_BENCHMARK in baseline_benchmarks):
        calibration = (current_benchmarks[CALIBRATION_BENCHMARK]["median_seconds"]
                       / baseline_benchmarks[CALIBRATION_BENCHMARK]["median_seconds"])
        calibration_note = (f"calibration ({CALIBRATION_BENCHMARK}): this machine is "
                            f"{calibration:.2f}x the baseline machine")
        print(calibration_note)
    else:
        # Without calibration the comparison is raw wall-clock across
        # machines, which is exactly what the guard is designed to avoid —
        # make the degraded mode impossible to miss.
        calibration_note = (
            f"warning: {CALIBRATION_BENCHMARK} missing from "
            f"{'this run' if CALIBRATION_BENCHMARK not in current_benchmarks else 'the baseline'}; "
            f"comparing UNCALIBRATED wall-clock times")
        print(calibration_note, file=sys.stderr)

    rows = []
    failures = []
    for name, stats in sorted(baseline_benchmarks.items()):
        if name == CALIBRATION_BENCHMARK:
            continue
        if name not in current_benchmarks:
            print(f"warning: baseline benchmark {name} missing from this run")
            rows.append({"name": name, "status": "missing",
                         "observed": None, "allowed": None})
            continue
        allowed = stats["median_seconds"] * calibration * factor
        observed = current_benchmarks[name]["median_seconds"]
        status = "FAIL" if observed > allowed else "ok"
        print(f"{status:4s} {name}: {observed * 1e3:.3f} ms "
              f"(allowed {allowed * 1e3:.3f} ms)")
        rows.append({"name": name, "status": status,
                     "observed": observed, "allowed": allowed})
        if observed > allowed:
            failures.append(f"{name}: {observed * 1e3:.3f} ms > "
                            f"{factor}x calibrated baseline {allowed * 1e3:.3f} ms")
    # Benchmarks without a baseline entry are *new*: report them (so the
    # summary shows their first timings) but never fail on them — adding a
    # microbenchmark must not require a lockstep baseline edit.
    for name in sorted(set(current_benchmarks) - set(baseline_benchmarks)):
        observed = current_benchmarks[name]["median_seconds"]
        print(f"new  {name}: {observed * 1e3:.3f} ms "
              "(no baseline yet; run `perf_guard.py snapshot` to pin it)")
        rows.append({"name": name, "status": "new",
                     "observed": observed, "allowed": None})
    return rows, failures, calibration_note


def _markdown_table(rows: list[dict], calibration_note: str, factor: float) -> str:
    """Render the comparison as a GitHub-flavoured markdown table."""

    def fmt(seconds: float | None) -> str:
        return "—" if seconds is None else f"{seconds * 1e3:.3f} ms"

    icons = {"ok": "✅ ok", "FAIL": "❌ FAIL", "new": "🆕 new", "missing": "⚠️ missing"}
    lines = [
        "## Perf guard",
        "",
        calibration_note,
        "",
        f"| benchmark | median | allowed ({factor}x calibrated baseline) | status |",
        "| --- | ---: | ---: | :---: |",
    ]
    for row in rows:
        lines.append(f"| `{row['name']}` | {fmt(row['observed'])} "
                     f"| {fmt(row['allowed'])} | {icons[row['status']]} |")
    return "\n".join(lines) + "\n"


def write_step_summary(rows: list[dict], calibration_note: str, factor: float) -> None:
    """Append the markdown comparison to ``$GITHUB_STEP_SUMMARY`` if set."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    with open(summary_path, "a", encoding="utf-8") as handle:
        handle.write(_markdown_table(rows, calibration_note, factor))


def _current_commit() -> str:
    """The commit the run measured: ``$GITHUB_SHA`` in Actions, else the
    local HEAD, else ``"unknown"`` (e.g. outside a checkout)."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        import subprocess

        return subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              cwd=Path(__file__).resolve().parent
                              ).stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def append_history(distilled: dict, rows: list[dict],
                   path: Path = HISTORY_PATH) -> Path:
    """Append one summary line for this run to the perf trajectory.

    The line carries the measured commit, the run's per-benchmark
    medians, and each benchmark's guard status, so a later plot can join
    entries by commit and distinguish healthy drift from regressions
    without re-deriving the comparison.  Locally the tracked file
    accumulates across runs; in CI each (clean) checkout contributes one
    line, uploaded as an artifact — assembling the cross-run series
    means concatenating the artifact lines, keyed by ``commit``.
    """
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": _current_commit(),
        "machine": distilled.get("machine", "unknown"),
        "python": distilled.get("python", "unknown"),
        "medians_ms": {name: stats["median_seconds"] * 1e3
                       for name, stats in distilled["benchmarks"].items()},
        "statuses": {row["name"]: row["status"] for row in rows},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"[history appended to {path}]")
    return path


def flatten_report(report: dict) -> dict:
    """The report's fields with a perfbench ``metrics`` object flattened.

    ``{"failed": 0, "metrics": {"solve_s": {"value": 0.5, "unit": "s"}}}``
    becomes ``{"failed": 0, "solve_s": 0.5}``; a report without such an
    object is returned unchanged.
    """
    metrics = report.get("metrics")
    if not isinstance(metrics, dict) or not all(
            isinstance(entry, dict) and "value" in entry for entry in metrics.values()):
        return report
    flat = {key: value for key, value in report.items() if key != "metrics"}
    flat.update((name, entry["value"]) for name, entry in metrics.items())
    return flat


def record_metrics(values: dict, label: str = "",
                   path: Path = HISTORY_PATH) -> Path:
    """Append one line of named scalar metrics to the perf trajectory.

    Unlike :func:`append_history` these are not millisecond medians —
    throughputs, lag counts, percentiles — so they land under a separate
    ``metrics`` key (``<label>:<name>`` when a label is given) and the
    history renderer prints them unit-free.
    """
    import platform

    metrics = {}
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        metrics[f"{label}:{name}" if label else name] = float(value)
    if not metrics:
        raise ValueError("no numeric metrics to record")
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": _current_commit(),
        "machine": platform.node() or "unknown",
        "python": platform.python_version(),
        "metrics": metrics,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"[{len(metrics)} metric(s) appended to {path}]")
    return path


def _load_history(path: Path) -> list[dict]:
    """Parse the append-only history file, skipping unreadable lines (a
    truncated tail from an interrupted run must not kill the report)."""
    entries: list[dict] = []
    if not path.exists():
        return entries
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            print(f"warning: skipping malformed history line: {line[:60]}...",
                  file=sys.stderr)
    return entries


def render_history(entries: list[dict], limit: int) -> str:
    """Per-benchmark trend table over the last ``limit`` recorded runs.

    One row per benchmark, one column per run (oldest → newest), the
    median in milliseconds with a marker when the run's guard status was
    not ``ok``.  Runs are labelled by their short commit.
    """
    entries = entries[-limit:]
    if not entries:
        return "## Perf history\n\nNo recorded runs yet.\n"

    labels = []
    for entry in entries:
        commit = entry.get("commit", "unknown")
        labels.append(commit[:7] if commit != "unknown" else "unknown")
    names = sorted({name for entry in entries
                    for name in entry.get("medians_ms", {})})
    metric_names = sorted({name for entry in entries
                           for name in entry.get("metrics", {})})

    status_marks = {"FAIL": " ❌", "new": " 🆕", "missing": " ⚠️"}
    lines = [
        "## Perf history",
        "",
        f"Median per run in ms, oldest → newest (last {len(entries)} recorded "
        "runs; ❌ = failed the guard, 🆕 = no baseline at the time). Rows "
        "recorded via `perf_guard.py record` are unit-free metrics.",
        "",
        "| benchmark | " + " | ".join(labels) + " |",
        "| --- |" + " ---: |" * len(labels),
    ]
    for name in names:
        cells = []
        for entry in entries:
            median = entry.get("medians_ms", {}).get(name)
            if median is None:
                cells.append("—")
                continue
            mark = status_marks.get(entry.get("statuses", {}).get(name, "ok"), "")
            cells.append(f"{median:.3f}{mark}")
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    for name in metric_names:
        cells = []
        for entry in entries:
            value = entry.get("metrics", {}).get(name)
            if value is None:
                cells.append("—")
            elif abs(value) >= 1000:
                cells.append(f"{value:,.0f}")
            else:
                cells.append(f"{value:.3f}")
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    check = subparsers.add_parser("check", help="compare a run against the baseline")
    check.add_argument("raw_json", type=Path, help="pytest-benchmark JSON output")
    check.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    check.add_argument("--factor", type=float, default=DEFAULT_FACTOR,
                       help="allowed slowdown over the calibrated baseline")
    check.add_argument("--output-name", default="BENCH_ci",
                       help="name of the distilled JSON written under results/")

    snapshot = subparsers.add_parser("snapshot", help="refresh the checked-in baseline")
    snapshot.add_argument("raw_json", type=Path)
    snapshot.add_argument("--output", type=Path, default=BASELINE_PATH)

    history = subparsers.add_parser(
        "history", help="render BENCH_history.jsonl as a per-benchmark trend table")
    history.add_argument("--history-file", type=Path, default=HISTORY_PATH)
    history.add_argument("--limit", type=int, default=10,
                         help="number of most recent runs to show")

    record = subparsers.add_parser(
        "record", help="append named metrics from a JSON report to the history")
    record.add_argument("metrics_json", type=Path,
                        help="JSON object of metric name -> numeric value "
                             "(e.g. `repro serve bench --json` output), or a "
                             "perfbench report")
    record.add_argument("--label", default="",
                        help="prefix recorded names as <label>:<name>")
    record.add_argument("--keys", nargs="+", default=None,
                        help="record only these keys (default: every "
                             "numeric field)")
    record.add_argument("--history-file", type=Path, default=HISTORY_PATH)

    args = parser.parse_args(argv)

    if args.command == "record":
        values = json.loads(args.metrics_json.read_text(encoding="utf-8"))
        if not isinstance(values, dict):
            print("error: metrics JSON must be an object", file=sys.stderr)
            return 2
        values = flatten_report(values)
        if args.keys is not None:
            missing = [key for key in args.keys if key not in values]
            if missing:
                print(f"error: keys not in the report: {', '.join(missing)}",
                      file=sys.stderr)
                return 2
            values = {key: values[key] for key in args.keys}
        try:
            record_metrics(values, label=args.label, path=args.history_file)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        return 0

    if args.command == "history":
        table = render_history(_load_history(args.history_file), args.limit)
        print(table)
        summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
        if summary_path:
            with open(summary_path, "a", encoding="utf-8") as handle:
                handle.write(table)
        return 0

    distilled = distill(args.raw_json)

    if args.command == "snapshot":
        args.output.write_text(json.dumps(distilled, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
        print(f"baseline written to {args.output}")
        return 0

    save_json(args.output_name, distilled)
    if not args.baseline.exists():
        print(f"error: baseline {args.baseline} not found", file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    rows, failures, calibration_note = compare(distilled, baseline, args.factor)
    write_step_summary(rows, calibration_note, args.factor)
    append_history(distilled, rows)
    if failures:
        print("\nperf regression detected:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nno perf regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
