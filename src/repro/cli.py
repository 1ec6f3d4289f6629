"""Command-line interface for partitioning graphs from edge-list files.

This is the entry point a downstream user would reach for first::

    python -m repro.cli partition graph.txt --parts 8 --weights unit degree \
        --epsilon 0.05 --output parts.txt
    python -m repro.cli evaluate graph.txt parts.txt --weights unit degree
    python -m repro.cli generate livejournal --scale 1.0 --output graph.txt

Subcommands
-----------
``partition``
    Read a SNAP-style edge list, partition it with GD (or a baseline chosen
    via ``--algorithm``), write one part id per line, and print the quality
    metrics.  ``--checkpoint-store`` persists frontier checkpoints into a
    partition store as the recursion deepens; ``--resume`` replays a killed
    run from its newest checkpoint to a bit-identical assignment.
    ``--task-timeout`` / ``--task-retries`` bound and retry individual
    bisection tasks (hung or crashed pool workers are replaced).
``evaluate``
    Score an existing assignment file against a graph.
``generate``
    Materialize one of the synthetic dataset presets as an edge list.
``repartition``
    Incrementally repair an existing partition after graph updates: read
    the previous assignment plus an update-batch trace, absorb each batch
    through the dynamic-graph engine (local repair or full recompute,
    chosen by damage), and write the repaired assignment with a
    repair-vs-recompute report per batch.
``store``
    Manage the sqlite-backed partition store (``init`` / ``put`` /
    ``get`` / ``ls``): a durable catalog of graphs, assignments and
    per-run metrics that survives the process and feeds ``serve``.
``serve``
    ``serve run`` boots the lookup service from a store (vertex→part
    lookups, routing and fanout queries over TCP while churn is repaired
    in the background; SIGTERM shuts it down cleanly).  ``serve bench``
    replays Zipf-skewed lookup traffic against a live service and
    reports lookups/sec, p50/p99 latency and the repair lag, with
    optional pass/fail floors for CI.  ``serve chaos`` runs the seeded
    fault-injection storm end to end (worker crashes, failed absorbs, a
    client disconnect) and exits 0 iff the service self-healed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__
from .baselines import (
    BalancedLabelPropagation,
    FennelPartitioner,
    HashPartitioner,
    LinearDeterministicGreedy,
    MetisLikePartitioner,
    SocialHashPartitioner,
    SpinnerPartitioner,
)
from .core import (
    ExecutionConfig,
    GDConfig,
    GDPartitioner,
    PARALLELISM_MODES,
    PROJECTION_METHODS,
)
from .graphs import (
    load_dataset,
    read_edge_list,
    read_partition,
    weight_matrix,
    write_edge_list,
    write_partition,
)
from .graphs.weights import WEIGHT_FUNCTIONS
from .partition import Partition, edge_locality, imbalance

__all__ = ["main", "build_parser"]

_ALGORITHMS = {
    "gd": None,  # handled separately (needs epsilon / iterations)
    "hash": HashPartitioner,
    "spinner": SpinnerPartitioner,
    "blp": BalancedLabelPropagation,
    "shp": SocialHashPartitioner,
    "metis": MetisLikePartitioner,
    "fennel": FennelPartitioner,
    "ldg": LinearDeterministicGreedy,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Multi-dimensional balanced graph partitioning (GD)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    partition = subparsers.add_parser("partition", help="partition an edge-list file")
    partition.add_argument("graph", help="path to a whitespace edge list")
    partition.add_argument("--parts", type=int, default=2, help="number of parts k")
    partition.add_argument("--weights", nargs="+", default=["unit", "degree"],
                           choices=sorted(WEIGHT_FUNCTIONS),
                           help="balance dimensions (one or more weight functions)")
    partition.add_argument("--epsilon", type=float, default=0.05,
                           help="allowed relative imbalance")
    partition.add_argument("--iterations", type=int, default=100,
                           help="GD iterations")
    partition.add_argument("--algorithm", choices=sorted(_ALGORITHMS), default="gd",
                           help="partitioning algorithm")
    partition.add_argument("--projection", dest="projection_method",
                           choices=PROJECTION_METHODS,
                           default="alternating_oneshot",
                           help="projection method of the GD inner loop (Table 1)")
    partition.add_argument("--parallelism", choices=PARALLELISM_MODES, default="serial",
                           help="execution backend for recursive k-way GD: serial "
                                "(in process) or shm (a process pool fed "
                                "through one zero-copy shared-memory arena per walk); "
                                "bit-identical output across backends for a "
                                "fixed seed")
    partition.add_argument("--workers", type=int, default=None, metavar="N",
                           help="worker count for --parallelism shm "
                                "(default: let the pool decide; ignored by "
                                "serial — a warning is printed)")
    partition.add_argument("--task-timeout", dest="task_timeout", type=float,
                           default=None, metavar="SECONDS",
                           help="per-bisection-task wall-clock budget for "
                                "--parallelism shm; a task that exceeds it is "
                                "retried (hung pool workers are replaced). "
                                "Default: no timeout")
    partition.add_argument("--task-retries", type=int, default=None, metavar="N",
                           help="re-runs allowed per failed/timed-out "
                                "bisection task before the run aborts "
                                "(retries re-derive the task seed, so the "
                                "result stays bit-identical; default from "
                                "ExecutionConfig)")
    partition.add_argument("--checkpoint-store", default=None, metavar="FILE",
                           help="persist frontier checkpoints into this "
                                "partition store (created if absent) so a "
                                "killed run can be resumed with --resume")
    partition.add_argument("--checkpoint-run", default=None, metavar="NAME",
                           help="run name the checkpoints are filed under "
                                "(default: partition)")
    partition.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                           help="checkpoint every N recursion waves "
                                "(default 1; see the README for guidance)")
    partition.add_argument("--resume", action="store_true",
                           help="resume from the newest checkpoint of "
                                "--checkpoint-run instead of starting over "
                                "(bit-identical to the uninterrupted run)")
    partition.add_argument("--fault-plan", default=None, metavar="FILE",
                           help="arm a JSON fault-injection plan for this run "
                                "(testing/chaos only)")
    partition.add_argument("--seed", type=int, default=0)
    partition.add_argument("--output", help="write one part id per line to this file")

    evaluate = subparsers.add_parser("evaluate", help="score an existing assignment")
    evaluate.add_argument("graph", help="path to a whitespace edge list")
    evaluate.add_argument("assignment", help="path to a part-per-line file")
    evaluate.add_argument("--weights", nargs="+", default=["unit", "degree"],
                          choices=sorted(WEIGHT_FUNCTIONS))

    generate = subparsers.add_parser("generate", help="write a synthetic dataset preset")
    generate.add_argument("preset", help="dataset preset name (e.g. livejournal, fb-80)")
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True, help="edge-list file to write")

    repartition = subparsers.add_parser(
        "repartition",
        help="incrementally repair an existing partition after graph updates")
    repartition.add_argument("graph", help="pre-update whitespace edge list")
    repartition.add_argument("assignment", help="previous part-per-line assignment")
    repartition.add_argument("updates",
                             help="update-batch trace (+/-/w lines, %%%% separators)")
    repartition.add_argument("--parts", type=int, default=None,
                             help="number of parts k the assignment was built "
                                  "for (default: max part id + 1 in the "
                                  "assignment file — pass k explicitly when "
                                  "the highest-numbered part may be empty)")
    repartition.add_argument("--weights", nargs="+", default=["unit", "degree"],
                             choices=sorted(WEIGHT_FUNCTIONS),
                             help="balance dimensions the assignment was built with")
    repartition.add_argument("--epsilon", type=float, default=0.05,
                             help="allowed relative imbalance")
    repartition.add_argument("--iterations", type=int, default=100,
                             help="GD iterations of the full-recompute fallback")
    repartition.add_argument("--hops", type=int, default=None, metavar="H",
                             help="freeze vertices farther than H hops from a "
                                  "touched edge/vertex (default from GDConfig)")
    repartition.add_argument("--damage-threshold", type=float, default=None,
                             metavar="T",
                             help="damage score above which the repartitioner "
                                  "re-runs full recursive GD instead of "
                                  "repairing locally (default from GDConfig)")
    repartition.add_argument("--repair-iterations", type=int, default=None,
                             metavar="N",
                             help="GD iterations per local-repair pass "
                                  "(default from GDConfig)")
    repartition.add_argument("--parallelism", choices=PARALLELISM_MODES,
                             default="serial",
                             help="execution backend for repair waves and the "
                                  "recompute fallback (bit-identical output "
                                  "across backends)")
    repartition.add_argument("--workers", type=int, default=None, metavar="N",
                             help="worker count for --parallelism shm")
    repartition.add_argument("--seed", type=int, default=0)
    repartition.add_argument("--output",
                             help="write the repaired part-per-line assignment")

    store = subparsers.add_parser("store", help="manage the partition store")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_init = store_sub.add_parser("init", help="initialize a fresh store")
    store_init.add_argument("store", help="sqlite database file to create")
    store_put = store_sub.add_parser(
        "put", help="store a graph and/or an assignment")
    store_put.add_argument("store", help="sqlite database file")
    store_put.add_argument("name", help="graph name in the store")
    store_put.add_argument("graph", nargs="?", default=None,
                           help="whitespace edge list to store (omit to attach "
                                "an assignment to an already-stored graph)")
    store_put.add_argument("--edge-format", choices=("npy", "parquet"),
                           default="npy",
                           help="sidecar format of the edge array (parquet "
                                "needs pyarrow)")
    store_put.add_argument("--assignment", default=None, metavar="FILE",
                           help="part-per-line assignment to store alongside")
    store_put.add_argument("--assignment-name", default="initial", metavar="NAME",
                           help="name of the stored assignment")
    store_put.add_argument("--parts", type=int, default=None,
                           help="number of parts k of the assignment "
                                "(default: max part id + 1)")
    store_put.add_argument("--replace", action="store_true",
                           help="overwrite an existing assignment of that name")
    store_get = store_sub.add_parser(
        "get", help="export a stored graph or assignment")
    store_get.add_argument("store", help="sqlite database file")
    store_get.add_argument("name", help="graph name in the store")
    store_get.add_argument("--output", default=None, metavar="FILE",
                           help="write the graph as a whitespace edge list")
    store_get.add_argument("--assignment-name", default=None, metavar="NAME",
                           help="fetch this assignment instead of the graph")
    store_get.add_argument("--assignment-output", default=None, metavar="FILE",
                           help="write the fetched assignment part-per-line")
    store_ls = store_sub.add_parser("ls", help="list the store contents")
    store_ls.add_argument("store", help="sqlite database file")

    serve = subparsers.add_parser("serve", help="partition-serving service")
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)
    serve_run = serve_sub.add_parser(
        "run", help="serve lookups from a stored graph + assignment")
    serve_run.add_argument("store", help="sqlite database file")
    serve_run.add_argument("graph", help="graph name in the store")
    serve_run.add_argument("assignment", help="assignment name in the store")
    serve_run.add_argument("--host", default="127.0.0.1")
    serve_run.add_argument("--port", type=int, default=7171,
                           help="TCP port (0 binds an ephemeral port, "
                                "reported in the ready log line)")
    serve_run.add_argument("--weights", nargs="+", default=["unit", "degree"],
                           choices=sorted(WEIGHT_FUNCTIONS),
                           help="balance dimensions the assignment was built "
                                "with (rebuilt from the stored topology)")
    serve_run.add_argument("--epsilon", type=float, default=0.05,
                           help="balance tolerance of the background repairs")
    serve_run.add_argument("--iterations", type=int, default=60,
                           help="GD iterations of the recompute fallback")
    serve_run.add_argument("--max-queue", type=int, default=64,
                           help="pending churn batches before ingest requests "
                                "are rejected (backpressure)")
    serve_run.add_argument("--drain-seconds", type=float, default=30.0,
                           help="graceful-shutdown budget for draining "
                                "pending churn batches")
    serve_run.add_argument("--fault-plan", default=None, metavar="FILE",
                           help="arm a JSON fault-injection plan for the "
                                "service lifetime (chaos lane / testing only)")
    serve_run.add_argument("--seed", type=int, default=0)
    serve_bench = serve_sub.add_parser(
        "bench", help="replay Zipf-skewed lookup load against a live service")
    serve_bench.add_argument("--host", default="127.0.0.1")
    serve_bench.add_argument("--port", type=int, default=7171)
    serve_bench.add_argument("--lookups", type=int, default=50_000,
                             help="total vertex ids to look up")
    serve_bench.add_argument("--batch-size", type=int, default=256,
                             help="ids per lookup request")
    serve_bench.add_argument("--skew", type=float, default=1.0,
                             help="Zipf exponent of the vertex popularity "
                                  "(0 = uniform)")
    serve_bench.add_argument("--churn-batches", type=int, default=0,
                             help="server-generated churn batches interleaved "
                                  "with the lookup stream")
    serve_bench.add_argument("--churn-fraction", type=float, default=0.01,
                             help="edge fraction churned per batch")
    serve_bench.add_argument("--wait-seconds", type=float, default=0.0,
                             help="retry the initial connect for this long "
                                  "(for servers booting in the background)")
    serve_bench.add_argument("--seed", type=int, default=0)
    serve_bench.add_argument("--json", default=None, metavar="FILE",
                             help="also write the report as JSON")
    serve_bench.add_argument("--min-lookups-per-sec", type=float, default=None,
                             metavar="QPS",
                             help="fail (exit 1) below this throughput")
    serve_bench.add_argument("--max-repair-lag", type=int, default=None,
                             metavar="N",
                             help="fail (exit 1) if more than N churn batches "
                                  "are still unapplied at the end of the run")
    serve_bench.add_argument("--shutdown", action="store_true",
                             help="send a shutdown request after the run")
    serve_chaos = serve_sub.add_parser(
        "chaos", help="run the seeded self-healing chaos scenario")
    serve_chaos.add_argument("--fault-plan", default=None, metavar="FILE",
                             help="JSON fault plan to inject (default: the "
                                  "canonical storm — two repair-worker "
                                  "crashes, one failed absorb, one slow "
                                  "absorb)")
    serve_chaos.add_argument("--seed", type=int, default=0,
                             help="seed for the graph, the default plan and "
                                  "the lookup traffic")
    serve_chaos.add_argument("--vertices", type=int, default=300,
                             help="synthetic social-graph size")
    serve_chaos.add_argument("--parts", type=int, default=4,
                             help="number of parts k")
    serve_chaos.add_argument("--json", default=None, metavar="FILE",
                             help="also write the report as JSON")
    return parser


def _report(partition: Partition, weights) -> str:
    values = imbalance(partition, weights)
    lines = [f"parts:          {partition.num_parts}",
             f"edge locality:  {edge_locality(partition):.2f}%"]
    for index, value in enumerate(values):
        lines.append(f"imbalance[{index}]:   {100.0 * value:.2f}%")
    return "\n".join(lines)


def _run_partition(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from .core.executor import ExecutorTaskError
    from .faults import FaultPlan, InjectedFault, inject
    from .store import StoreError

    checkpointing = args.checkpoint_store is not None
    if args.resume and not checkpointing:
        return _fail("--resume needs --checkpoint-store")
    if checkpointing and args.algorithm != "gd":
        return _fail("checkpointing is only supported for --algorithm gd")
    guard = nullcontext()
    if args.fault_plan is not None:
        try:
            guard = inject(FaultPlan.from_file(args.fault_plan))
        except ValueError as error:
            return _fail(str(error))

    try:
        if args.algorithm == "gd":
            # Every GDConfig-shaped flag (iterations, seed, projection
            # method, ...) flows through the shared from_args convention;
            # the execution flags (parallelism, workers, task timeout/retry
            # budget) build the nested ExecutionConfig the same way.  Absent
            # optional flags fall back to the field defaults; out-of-range
            # values are bad input like a malformed file.
            config = GDConfig.from_args(args,
                                        execution=ExecutionConfig.from_args(args))
            partitioner = GDPartitioner(epsilon=args.epsilon, config=config)
            _warn_ignored_workers(args)
        else:
            partitioner = (_ALGORITHMS[args.algorithm](seed=args.seed)
                           if args.algorithm != "hash" else HashPartitioner(salt=args.seed))
        graph = read_edge_list(args.graph)
        weights = weight_matrix(graph, args.weights)
    except (OSError, ValueError) as error:
        return _fail(str(error))
    try:
        with guard:
            if checkpointing:
                partition = _partition_with_checkpoints(args, graph, weights,
                                                        config)
            else:
                partition = partitioner.partition(graph, weights, args.parts)
    except (ExecutorTaskError, InjectedFault, StoreError, OSError,
            ValueError) as error:
        return _fail(str(error))
    print(_report(partition, weights))
    if args.output:
        write_partition(partition.assignment, args.output)
        print(f"assignment written to {args.output}")
    return 0


def _partition_with_checkpoints(args: argparse.Namespace, graph, weights,
                                config: GDConfig) -> Partition:
    """Recursive k-way GD with frontier checkpoints in a partition store.

    Checkpoints are filed under ``--checkpoint-run`` (atomic INSERT OR
    REPLACE per wave); ``--resume`` replays from the newest one and is
    bit-identical to the uninterrupted run because task seeds are a pure
    function of the task coordinate."""
    from .core.recursive import recursive_bisection
    from .store import PartitionStore

    run = args.checkpoint_run or "partition"
    with PartitionStore(args.checkpoint_store) as store:
        resume_from = None
        if args.resume:
            resume_from = store.get_checkpoint(run)
            print(f"resuming run {run!r} from checkpoint level "
                  f"{resume_from.level}")
        return recursive_bisection(
            graph, weights, args.parts, args.epsilon, config,
            checkpoint_sink=lambda checkpoint: store.put_checkpoint(run, checkpoint),
            checkpoint_every=args.checkpoint_every,
            resume_from=resume_from)


def _warn_ignored_workers(args: argparse.Namespace) -> None:
    """One-line heads-up when --workers cannot take effect.

    The serial backend runs in the coordinating process, so a worker
    count silently doing nothing is an operator surprise worth
    a warning (not an error: scripted sweeps legitimately hold --workers
    fixed while varying --parallelism)."""
    workers = getattr(args, "workers", None)
    parallelism = getattr(args, "parallelism", "serial")
    if workers is not None and parallelism == "serial":
        print(f"warning: --workers {workers} is ignored with --parallelism "
              f"{parallelism} (a worker pool exists only for shm)",
              file=sys.stderr)


def _fail(message: str) -> int:
    """One-line error on stderr + the conventional bad-input exit code.

    Bad input (malformed files, unknown trace ops, missing paths) is an
    operator mistake, not a crash — it must never surface as a raw
    traceback."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _run_evaluate(args: argparse.Namespace) -> int:
    try:
        graph = read_edge_list(args.graph)
        weights = weight_matrix(graph, args.weights)
        assignment = read_partition(args.assignment)
    except (OSError, ValueError) as error:
        return _fail(str(error))
    if assignment.shape[0] != graph.num_vertices:
        print("error: assignment length does not match the number of vertices",
              file=sys.stderr)
        return 2
    partition = Partition(graph=graph, assignment=assignment,
                          num_parts=int(assignment.max()) + 1)
    print(_report(partition, weights))
    return 0


def _run_generate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.preset, scale=args.scale, seed=args.seed)
    write_edge_list(graph, args.output)
    print(f"wrote {graph.num_vertices} vertices / {graph.num_edges} edges to {args.output}")
    return 0


def _run_repartition(args: argparse.Namespace) -> int:
    from .dynamic import DynamicGraph, IncrementalRepartitioner, read_update_batches

    try:
        # --hops/--damage-threshold/--repair-iterations map onto the
        # repartition_* fields via GDConfig._ARG_ALIASES; --parallelism and
        # --workers build the nested ExecutionConfig.
        config = GDConfig.from_args(args,
                                    execution=ExecutionConfig.from_args(args))
        graph = read_edge_list(args.graph)
        weights = weight_matrix(graph, args.weights)
        assignment = read_partition(args.assignment)
    except (OSError, ValueError) as error:
        return _fail(str(error))
    if assignment.shape[0] != graph.num_vertices:
        return _fail("assignment length does not match the number of vertices")
    num_parts = (args.parts if args.parts is not None
                 else int(assignment.max(initial=0)) + 1)
    if int(assignment.min(initial=0)) < 0 or int(assignment.max(initial=0)) >= num_parts:
        return _fail(f"assignment part ids must lie in 0..{num_parts - 1} "
                     f"(found {int(assignment.min(initial=0))}.."
                     f"{int(assignment.max(initial=0))})")
    try:
        batches = read_update_batches(args.updates, num_dimensions=weights.shape[0])
        repartitioner = IncrementalRepartitioner(DynamicGraph(graph, weights), assignment,
                                                 num_parts, epsilon=args.epsilon,
                                                 config=config)
    except (OSError, ValueError) as error:
        return _fail(str(error))

    _warn_ignored_workers(args)
    for index, batch in enumerate(batches):
        try:
            report = repartitioner.apply(batch)
        except ValueError as error:
            return _fail(f"batch {index}: {error}")
        print(f"batch {index}: {report.mode}  "
              f"damage={report.damage.total:.4f}  "
              f"locality={report.edge_locality_pct:.2f}%  "
              f"imbalance={report.max_imbalance_pct:.2f}%  "
              f"gd_iterations={report.gd_iterations} "
              f"(full recompute: {report.full_recompute_iterations}, "
              f"work ratio {report.work_ratio:.1f}x)  "
              f"moved={report.moved_vertices}")
    print(_report(repartitioner.partition(), repartitioner.dynamic.weights))
    if args.output:
        write_partition(repartitioner.assignment, args.output)
        print(f"repaired assignment written to {args.output}")
    return 0


def _run_store(args: argparse.Namespace) -> int:
    from .store import PartitionStore, StoreError

    try:
        if args.store_command == "init":
            with PartitionStore.create(args.store) as store:
                print(f"initialized store {args.store} "
                      f"(schema v{store.schema_version})")
            return 0
        if args.store_command == "put":
            if args.graph is None and args.assignment is None:
                return _fail("nothing to store: pass an edge list and/or "
                             "--assignment")
            with PartitionStore(args.store) as store:
                if args.graph is not None:
                    graph = read_edge_list(args.graph)
                    store.put_graph(args.name, graph,
                                    edge_format=args.edge_format)
                    print(f"stored graph {args.name!r}: "
                          f"{graph.num_vertices} vertices / "
                          f"{graph.num_edges} edges ({args.edge_format})")
                if args.assignment is not None:
                    assignment = read_partition(args.assignment)
                    store.put_assignment(args.name, args.assignment_name,
                                         assignment, num_parts=args.parts,
                                         replace=args.replace)
                    print(f"stored assignment {args.assignment_name!r} "
                          f"for graph {args.name!r}")
            return 0
        if args.store_command == "get":
            with PartitionStore(args.store, create=False) as store:
                if args.assignment_name is None or args.output:
                    graph = store.get_graph(args.name)
                    print(f"graph {args.name!r}: {graph.num_vertices} "
                          f"vertices / {graph.num_edges} edges")
                    if args.output:
                        write_edge_list(graph, args.output)
                        print(f"edge list written to {args.output}")
                if args.assignment_name is not None:
                    record = store.get_assignment(args.name,
                                                  args.assignment_name)
                    print(f"assignment {record.name!r} of {record.graph!r}: "
                          f"{record.assignment.shape[0]} vertices, "
                          f"k={record.num_parts} (created {record.created_at})")
                    if args.assignment_output:
                        write_partition(record.assignment,
                                        args.assignment_output)
                        print(f"assignment written to {args.assignment_output}")
            return 0
        if args.store_command == "ls":
            with PartitionStore(args.store, create=False) as store:
                counts = store.counts()
                print(f"store {args.store} (schema v{counts['schema_version']}): "
                      f"{counts['graphs']} graphs, "
                      f"{counts['assignments']} assignments, "
                      f"{counts['metrics']} metric rows, "
                      f"{counts['repair_traces']} repair-trace rows")
                for record in store.graphs():
                    print(f"  graph {record.name!r}: {record.num_vertices} "
                          f"vertices / {record.num_edges} edges "
                          f"[{record.edge_format}] (created {record.created_at})")
                    for assignment in store.assignments(record.name):
                        print(f"    assignment {assignment.name!r}: "
                              f"k={assignment.num_parts}")
                for run in store.runs():
                    print(f"  run {run!r}: {len(store.metrics(run))} metric "
                          f"rows, {len(store.repair_trace(run))} repair "
                          f"batches")
            return 0
    except (StoreError, OSError, ValueError) as error:
        return _fail(str(error))
    raise AssertionError(f"unhandled store command {args.store_command!r}")


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    if args.serve_command == "run":
        import logging
        import signal

        from .serve import PartitionServer, PartitionService, ServeConfig
        from .store import StoreError

        logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                            format="%(asctime)s %(name)s %(levelname)s "
                                   "%(message)s")
        if args.fault_plan is not None:
            from .faults import FaultPlan, arm

            try:
                arm(FaultPlan.from_file(args.fault_plan))
            except ValueError as error:
                return _fail(str(error))
        try:
            serve_config = ServeConfig.from_args(args)
            service = PartitionService.from_store(
                args.store, args.graph, args.assignment,
                weight_names=tuple(args.weights),
                config=GDConfig.from_args(args),
                serve_config=serve_config)
        except (StoreError, OSError, ValueError) as error:
            return _fail(str(error))

        async def _serve() -> None:
            server = PartitionServer(service)
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, server.request_stop)
            await server.run_until_stopped()

        asyncio.run(_serve())
        return 0
    if args.serve_command == "bench":
        import json

        from .serve import ServiceClient, format_report, run_load

        try:
            report = run_load(args.host, args.port, num_lookups=args.lookups,
                              batch_size=args.batch_size, skew=args.skew,
                              seed=args.seed, churn_batches=args.churn_batches,
                              churn_fraction=args.churn_fraction,
                              wait_seconds=args.wait_seconds)
        except (OSError, RuntimeError, ValueError) as error:
            return _fail(str(error))
        print(format_report(report))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"report written to {args.json}")
        if args.shutdown:
            async def _shutdown() -> None:
                async with ServiceClient(args.host, args.port) as client:
                    await client.call("shutdown")

            asyncio.run(_shutdown())
            print("shutdown requested")
        failures = []
        if (args.min_lookups_per_sec is not None
                and report.lookups_per_sec < args.min_lookups_per_sec):
            failures.append(f"lookups/sec {report.lookups_per_sec:,.0f} below "
                            f"the floor {args.min_lookups_per_sec:,.0f}")
        if (args.max_repair_lag is not None
                and report.repair_lag_batches > args.max_repair_lag):
            failures.append(f"repair lag {report.repair_lag_batches} exceeds "
                            f"the limit {args.max_repair_lag}")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    if args.serve_command == "chaos":
        import json
        import logging

        from .faults import FaultPlan
        from .serve import (
            build_chaos_service,
            default_chaos_plan,
            format_chaos_report,
            run_chaos,
        )

        logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                            format="%(asctime)s %(name)s %(levelname)s "
                                   "%(message)s")
        try:
            plan = (FaultPlan.from_file(args.fault_plan)
                    if args.fault_plan is not None
                    else default_chaos_plan(args.seed))
            service = build_chaos_service(num_vertices=args.vertices,
                                          num_parts=args.parts,
                                          seed=args.seed)
            report = asyncio.run(run_chaos(service, plan))
        except (OSError, RuntimeError, ValueError) as error:
            return _fail(str(error))
        print(format_chaos_report(report))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"report written to {args.json}")
        return 0 if report.recovered else 1
    raise AssertionError(f"unhandled serve command {args.serve_command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "partition":
        return _run_partition(args)
    if args.command == "evaluate":
        return _run_evaluate(args)
    if args.command == "generate":
        return _run_generate(args)
    if args.command == "repartition":
        return _run_repartition(args)
    if args.command == "store":
        return _run_store(args)
    if args.command == "serve":
        return _run_serve(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
