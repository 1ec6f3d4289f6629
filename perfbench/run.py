"""End-to-end benchmark of the GD partitioner, with a traced per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kway_serial --seed 1 --seconds 30 --trace 0

One caller drives the public API in a closed loop: each operation (one
``repro.run`` call, or one ``IncrementalRepartitioner.apply`` call for
``churn_repair``) starts when the previous one returns.  Every output is
validated outside the timed region.  ``--trace 0`` prints the end-to-end
metrics, with times in host-speed-corrected reference seconds (see
:class:`HostClock`); ``--trace 1`` alternates untraced and traced operations and
prints the per-layer metrics of :mod:`tracer` plus the tracing overhead.
``--trace-out FILE`` also writes the traced spans as Chrome trace-event
JSON; nothing else is written.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import sys

# A run writes nothing but its optional trace file: no bytecode caches.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A seed kept out of tuning: a later gain claim must also hold on it.
HELD_OUT_SEED = 9173
#: The times of ``--trace 0`` are in reference seconds: wall seconds on a
#: host where one :meth:`HostClock.calibrate` takes exactly this long.
CALIBRATION_NOMINAL_S = 0.04

END_TO_END = (("solve_s", "s"), ("solve_s_tail", "s"), ("edge_locality_pct", "%"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


class HostClock:
    """Converts wall time into reference seconds.

    On a shared host the same operation runs up to twice as slow for
    minutes at a time, with CPU time equal to wall time, so no wall-clock
    median is steady from run to run.  A fixed kernel that no change to
    the program can move (a sparse mat-vec on a seeded matrix, which
    tracks memory-bound speed, and an interpreter loop, which tracks
    Python overhead) is timed right before and right after every measured
    interval; the interval is scaled by the nominal kernel time over the
    mean of the two.
    """

    SIZE = 100_000
    SPMV_REPEATS = 16
    LOOP = 300_000

    def __init__(self):
        import numpy as np
        import scipy.sparse

        rng = np.random.default_rng(0)
        nnz = 8 * self.SIZE
        rows, cols = rng.integers(0, self.SIZE, (2, nnz))
        self.matrix = scipy.sparse.csr_matrix((rng.random(nnz), (rows, cols)),
                                              shape=(self.SIZE, self.SIZE))
        self.vector = rng.random(self.SIZE)
        self.calibrations: list[float] = []
        self.last = self.calibrate()

    def calibrate(self) -> float:
        start = time.perf_counter()
        for _ in range(self.SPMV_REPEATS):
            self.matrix @ self.vector
        total = 0
        for i in range(self.LOOP):
            total += i & 7
        elapsed = time.perf_counter() - start
        self.calibrations.append(elapsed)
        return elapsed

    def scale(self, wall_s: float) -> float:
        """``wall_s``, just measured, in reference seconds; calibrates
        again, and that calibration also opens the next interval."""
        before, self.last = self.last, self.calibrate()
        return wall_s * CALIBRATION_NOMINAL_S / (0.5 * (before + self.last))


def pin_environment() -> dict:
    """Measure the shipped defaults: drop the kernel-backend override
    (``core/config.py`` reads it) and make sure ``src`` wins imports,
    including in worker processes.  Returns what was changed.

    BLAS runs one thread per process.  With OpenBLAS's default pool the
    two forked ``shm`` workers and their BLAS threads oversubscribe a
    2-vCPU host: the first pooled wave then takes 0.45-1.4 s instead of
    0.23-0.34 s, and the run-to-run spread of ``solve_s`` exceeds any
    usable bound.
    """
    previous = {name: os.environ.get(name) for name in
                ("REPRO_KERNEL_BACKEND", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path.insert(0, str(SRC))
    return {f"{name}_was": value for name, value in previous.items()}


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and disarm faults, or stop."""
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {error}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: repro resolved to {repro.__file__}, not under {SRC}")
    from repro.faults import current_registry, disarm

    disarm()
    if current_registry() is not None:
        raise SystemExit("perfbench: a fault plan is armed")


def commit() -> str:
    """The checked-out commit, read from ``.git`` without a subprocess."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info(pinned: dict) -> dict:
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit(), "faults": "disarmed",
            "held_out_seed": HELD_OUT_SEED, **pinned}


def set_up(name: str, seed: int, size: float, reference_tracer=None):
    """``(workload, problem)``: inputs made, plus one untimed warm-up
    operation whose validation problem (or ``None``) is returned."""
    import workloads

    workload = workloads.make(name, seed, size)
    workload.setup(reference_tracer)
    return workload, workload.validate(workload.operation(workload.warm_up_input()))


def measure(workload, seconds: float, tracer=None, clock: HostClock | None = None) -> dict:
    """Closed loop for ``seconds``, at least one operation; with a tracer
    every second operation is traced, at least one.  Failed operations
    (raised or invalid) are counted.  With a clock, ``reference`` holds
    the untraced times in reference seconds."""
    reference: list[float] = []
    untraced: list[float] = []
    traced: list[float] = []
    counters: list[dict] = []
    problems: list[str] = []
    attempted = 0
    minimum = 1 if tracer is None else 2
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or attempted < minimum:
        argument = workload.next_input()
        if argument is None:
            break
        tracing = tracer is not None and attempted % 2 == 1
        attempted += 1
        scope = tracer.operation(workload.root_span) if tracing else contextlib.nullcontext()
        output = None
        start = time.perf_counter()
        try:
            with scope:
                output = workload.operation(argument)
        except Exception as error:  # noqa: BLE001 — a failed operation is a data point
            problem = f"raised {error!r}"
        elapsed = time.perf_counter() - start
        if clock is not None:
            reference.append(clock.scale(elapsed))
        if output is not None:
            problem = workload.validate(output)
        if tracing:
            traced.append(elapsed)
            counters.append(workload.counters(output) if output is not None else {})
        else:
            untraced.append(elapsed)
        if problem is not None:
            problems.append(problem)
    return {"untraced": untraced, "traced": traced, "reference": reference,
            "counters": counters, "attempted": attempted, "problems": problems}


def tail(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest nearest-rank percentile with
    at least ten samples above it, or the median while that percentile
    would lie below it (fewer than twenty samples)."""
    ordered = sorted(samples)
    if len(ordered) < 20:
        return statistics.median(ordered), 50.0
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, *,
                  size: float = 1.0, trace_out: str | None = None) -> tuple[dict, list[str]]:
    """One benchmark run: ``(result object, report lines)``."""
    import tracer as tracing
    import workloads  # noqa: F401 — imported before any set-up is timed

    report = []
    warm_ups = []
    if trace:
        reference = tracing.Tracer()
        workload, problem = set_up(name, seed, size, reference)
        warm_ups.append(problem)
        spans = tracing.Tracer()
        run = measure(workload, seconds, spans)
        values = tracing.layer_metrics(spans, run["counters"], run["traced"],
                                       run["untraced"], workload.workers,
                                       reference if reference.ops else None)
        units = dict(tracing.PER_LAYER)
        if trace_out is not None:
            Path(trace_out).write_text(spans.chrome_trace())
    else:
        clock = HostClock()
        setups, setups_wall = [], []
        for _ in range(SETUP_REPEATS):
            workload = None  # release the previous set-up before the next
            start = time.perf_counter()
            workload, problem = set_up(name, seed, size)
            setups_wall.append(time.perf_counter() - start)
            setups.append(clock.scale(setups_wall[-1]))
            warm_ups.append(problem)
        run = measure(workload, seconds, clock=clock)
        samples = run["reference"]
        tail_value, percentile = tail(samples)
        values = {"solve_s": statistics.median(samples), "solve_s_tail": tail_value,
                  "edge_locality_pct": workload.edge_locality_pct(),
                  "setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb()}
        units = dict(END_TO_END)
        report.append(f"# times are reference seconds (wall x {CALIBRATION_NOMINAL_S:g} s / "
                      f"calibration); calibration median "
                      f"{statistics.median(clock.calibrations):.4g} s over "
                      f"{len(clock.calibrations)}")
        report.append(f"# wall: solve median {statistics.median(run['untraced']):.4g} s, "
                      f"tail {tail(run['untraced'])[0]:.4g} s, "
                      f"set-ups {', '.join(f'{value:.4g}' for value in setups_wall)} s")
        report.append(f"# solve_s_tail is p{percentile:.1f} of {len(samples)} samples; "
                      f"setup_s is the median of {SETUP_REPEATS} set-ups")
    final = workload.finish()
    # Every operation counts, the untimed warm-ups included, and the check
    # of the workload's end state counts as one more.
    problems = ([f"warm-up: {problem}" for problem in warm_ups if problem]
                + run["problems"] + ([f"final check: {final}"] if final else []))
    failed = len(problems)
    attempted = run["attempted"] + len(warm_ups) + 1
    report.append(f"# attempted {attempted}, failed {failed}, "
                  f"failed_frac {failed / attempted:.6g}")
    report.extend(f"# failure: {problem}" for problem in problems[:10])
    report.extend(f"{key:32s} {values[key]:.6g} {unit}" for key, unit in units.items())
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {key: {"value": float(values[key]), "unit": unit}
                          for key, unit in units.items()}}
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="kway_serial, kway_shm2, kway_k64 or churn_repair")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None,
                        help="write the traced spans here as Chrome trace-event JSON")
    args = parser.parse_args(argv)

    pinned = pin_environment()
    import_program()
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# host " + json.dumps(host_info(pinned)))
    result, report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                                   trace_out=args.trace_out)
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
