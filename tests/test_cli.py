"""Unit tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graphs import read_edge_list, read_partition, write_edge_list
from repro.graphs.generators import power_law_cluster_graph


@pytest.fixture
def graph_file(tmp_path):
    graph = power_law_cluster_graph(200, 4, 10.0, seed=0)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_version_is_single_sourced_from_the_package(self):
        """pyproject.toml must not carry its own version literal: it declares
        ``version`` dynamic and reads ``repro.__version__``."""
        import pathlib

        import repro

        tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

        pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        assert "version" not in data["project"]
        assert "version" in data["project"]["dynamic"]
        assert data["tool"]["setuptools"]["dynamic"]["version"]["attr"] == "repro.__version__"
        assert repro.__version__

    def test_parallelism_accepts_shm(self):
        args = build_parser().parse_args(
            ["partition", "g.txt", "--parallelism", "shm"])
        assert args.parallelism == "shm"
        assert not hasattr(args, "shm_min_wave_tasks")

    def test_removed_backend_flags_are_rejected(self, capsys):
        # Two backends, serial and shm; the others and the shm wave-size
        # knob are usage errors on every command that took them.
        for argv in (["partition", "g.txt", "--parallelism", "thread"],
                     ["partition", "g.txt", "--parallelism", "process"],
                     ["repartition", "g.txt", "a.txt", "u.txt",
                      "--parallelism", "thread"],
                     ["repartition", "g.txt", "a.txt", "u.txt",
                      "--parallelism", "process"],
                     ["partition", "g.txt", "--shm-min-wave-tasks", "2"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_partition_defaults(self):
        args = build_parser().parse_args(["partition", "g.txt"])
        assert args.parts == 2
        assert args.algorithm == "gd"
        assert args.weights == ["unit", "degree"]

    def test_rejects_unknown_weight(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "g.txt", "--weights", "bogus"])

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "g.txt", "--algorithm", "bogus"])

    def test_projection_flags(self):
        args = build_parser().parse_args(["partition", "g.txt"])
        assert args.projection_method == "alternating_oneshot"
        args = build_parser().parse_args(
            ["partition", "g.txt", "--projection", "exact"])
        assert args.projection_method == "exact"

    def test_rejects_unknown_projection(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "g.txt", "--projection", "bogus"])

    def test_multilevel_and_compaction_flags(self):
        # GD runs one free-vertex loop: no flag selects a V-cycle or turns
        # compaction on or off, and the parsed arguments carry no such knob.
        args = build_parser().parse_args(["partition", "g.txt"])
        for dest in ("multilevel", "compaction", "coarsest_size",
                     "refinement_iterations"):
            assert not hasattr(args, dest)
        for flags in (["--multilevel"], ["--no-multilevel"], ["--compaction"],
                      ["--no-compaction"], ["--coarsest-size", "256"],
                      ["--refinement-iterations", "6"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["partition", "g.txt", *flags])

    def test_removed_hot_loop_flags_are_rejected(self):
        # GD has one hot loop, so no flag selects a variant of it.
        for argv in (["partition", "g.txt", "--parallelism", "batched"],
                     ["partition", "g.txt", "--kernel-backend", "numpy"],
                     ["partition", "g.txt", "--no-projection-cache"],
                     ["repartition", "g.txt", "a.txt", "u.txt",
                      "--kernel-backend", "numpy"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)


class TestPartitionCommand:
    def test_gd_partition_writes_assignment(self, graph_file, tmp_path, capsys):
        output = tmp_path / "parts.txt"
        code = main(["partition", str(graph_file), "--parts", "4",
                     "--iterations", "15", "--output", str(output)])
        assert code == 0
        graph = read_edge_list(graph_file)
        assignment = read_partition(output)
        assert assignment.shape == (graph.num_vertices,)
        assert set(np.unique(assignment)).issubset({0, 1, 2, 3})
        captured = capsys.readouterr().out
        assert "edge locality" in captured

    def test_workers_with_poolless_backend_warns(self, graph_file, capsys):
        # --workers has no effect on serial; say so instead of
        # silently ignoring it.
        code = main(["partition", str(graph_file), "--parts", "2",
                     "--iterations", "10", "--workers", "4"])
        assert code == 0
        captured = capsys.readouterr()
        assert "warning: --workers 4 is ignored" in captured.err
        assert "serial" in captured.err

    def test_workers_with_pool_backend_does_not_warn(self, graph_file, capsys):
        code = main(["partition", str(graph_file), "--parts", "2",
                     "--iterations", "10", "--workers", "2",
                     "--parallelism", "shm"])
        assert code == 0
        assert "ignored" not in capsys.readouterr().err

    def test_gd_partition_with_shm_parallelism(self, graph_file, tmp_path, capsys):
        # The same seed through serial and shm produces identical files.
        serial_out = tmp_path / "serial.txt"
        shm_out = tmp_path / "shm.txt"
        assert main(["partition", str(graph_file), "--parts", "4",
                     "--iterations", "10", "--seed", "3",
                     "--output", str(serial_out)]) == 0
        assert main(["partition", str(graph_file), "--parts", "4",
                     "--iterations", "10", "--seed", "3",
                     "--parallelism", "shm", "--workers", "2",
                     "--output", str(shm_out)]) == 0
        capsys.readouterr()
        assert np.array_equal(read_partition(serial_out), read_partition(shm_out))

    def test_gd_partition_with_multilevel_and_compaction(self, graph_file, capsys):
        # The command refuses the flags of the deleted V-cycle and
        # compaction switch with a usage error instead of ignoring them.
        with pytest.raises(SystemExit) as excinfo:
            main(["partition", str(graph_file), "--parts", "2",
                  "--iterations", "15", "--multilevel",
                  "--coarsest-size", "64", "--refinement-iterations", "5",
                  "--compaction"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --multilevel" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--workers", "0"], "max_workers must be at least 1 when given"),
        (["--iterations", "0"], "iterations must be at least 1"),
    ])
    def test_out_of_range_flag_is_a_one_line_error(self, graph_file, flags,
                                                   message, capsys):
        assert main(["partition", str(graph_file), *flags]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("algorithm", ["hash", "blp", "fennel", "ldg"])
    def test_baseline_algorithms(self, graph_file, algorithm, capsys):
        code = main(["partition", str(graph_file), "--algorithm", algorithm,
                     "--parts", "2"])
        assert code == 0
        assert "edge locality" in capsys.readouterr().out


class TestEvaluateCommand:
    def test_evaluate_roundtrip(self, graph_file, tmp_path, capsys):
        output = tmp_path / "parts.txt"
        assert main(["partition", str(graph_file), "--iterations", "10",
                     "--output", str(output)]) == 0
        capsys.readouterr()
        assert main(["evaluate", str(graph_file), str(output)]) == 0
        assert "imbalance" in capsys.readouterr().out

    def test_evaluate_length_mismatch(self, graph_file, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0\n1\n")
        assert main(["evaluate", str(graph_file), str(bad)]) == 2


class TestRepartitionCommand:
    def test_repartition_defaults(self):
        args = build_parser().parse_args(
            ["repartition", "g.txt", "parts.txt", "updates.txt"])
        assert args.weights == ["unit", "degree"]
        assert args.hops is None and args.damage_threshold is None
        assert args.parallelism == "serial"

    def test_repartition_roundtrip(self, graph_file, tmp_path, capsys):
        """Partition, churn, repair: the repaired assignment is written and
        the per-batch repair-vs-recompute report is printed."""
        from repro.dynamic import UpdateBatch, write_update_batches
        from repro.graphs import churn_trace

        parts = tmp_path / "parts.txt"
        assert main(["partition", str(graph_file), "--parts", "4",
                     "--iterations", "15", "--output", str(parts)]) == 0
        graph = read_edge_list(graph_file)
        trace = churn_trace(graph, 2, 0.02, seed=4)
        updates = tmp_path / "updates.txt"
        write_update_batches(
            [UpdateBatch(insertions=ins, deletions=dels) for ins, dels in trace],
            updates)
        capsys.readouterr()

        repaired = tmp_path / "repaired.txt"
        code = main(["repartition", str(graph_file), str(parts), str(updates),
                     "--iterations", "15", "--repair-iterations", "5",
                     "--output", str(repaired)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "batch 0:" in captured and "batch 1:" in captured
        assert "work ratio" in captured
        assignment = read_partition(repaired)
        assert assignment.shape == (graph.num_vertices,)
        assert set(np.unique(assignment)).issubset({0, 1, 2, 3})

    def test_repartition_length_mismatch(self, graph_file, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0\n1\n")
        updates = tmp_path / "updates.txt"
        updates.write_text("+ 0 1\n")
        assert main(["repartition", str(graph_file), str(bad),
                     str(updates)]) == 2

    def test_repartition_parts_override(self, graph_file, tmp_path, capsys):
        """--parts protects against silently shrinking k when the
        highest-numbered part happens to be empty in the input."""
        graph = read_edge_list(graph_file)
        parts = tmp_path / "parts.txt"
        # Parts 0/1 populated, part 2 empty: inference would say k=2.
        assignment = np.arange(graph.num_vertices) % 2
        parts.write_text("\n".join(str(p) for p in assignment) + "\n")
        updates = tmp_path / "updates.txt"
        updates.write_text("# empty batch\n")
        out = tmp_path / "repaired.txt"
        assert main(["repartition", str(graph_file), str(parts), str(updates),
                     "--parts", "3", "--iterations", "10",
                     "--output", str(out)]) == 0
        assert "parts:          3" in capsys.readouterr().out
        # And an assignment carrying ids beyond --parts is rejected.
        assert main(["repartition", str(graph_file), str(parts), str(updates),
                     "--parts", "1"]) == 2
        # Negative part ids get the same clean error path, not a traceback.
        parts.write_text("\n".join("-1" for _ in range(graph.num_vertices)) + "\n")
        assert main(["repartition", str(graph_file), str(parts),
                     str(updates)]) == 2


class TestGenerateCommand:
    def test_generate_preset(self, tmp_path, capsys):
        output = tmp_path / "lj.txt"
        code = main(["generate", "livejournal", "--scale", "0.1",
                     "--output", str(output)])
        assert code == 0
        graph = read_edge_list(output)
        assert graph.num_vertices > 0
        assert "wrote" in capsys.readouterr().out

    def test_generate_unknown_preset(self, tmp_path):
        with pytest.raises(KeyError):
            main(["generate", "nope", "--output", str(tmp_path / "x.txt")])


class TestRepartitionBadInput:
    """Bad operator input answers with one line on stderr and exit 2 —
    never a raw traceback (the regression this class pins down)."""

    @pytest.fixture
    def parts_file(self, graph_file, tmp_path):
        graph = read_edge_list(graph_file)
        parts = tmp_path / "parts.txt"
        parts.write_text(
            "\n".join(str(i % 2) for i in range(graph.num_vertices)) + "\n")
        return parts

    def test_unknown_trace_op(self, graph_file, parts_file, tmp_path, capsys):
        updates = tmp_path / "updates.txt"
        updates.write_text("x 1 2\n")
        assert main(["repartition", str(graph_file), str(parts_file),
                     str(updates)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "malformed update line" in err

    def test_out_of_range_update(self, graph_file, parts_file, tmp_path,
                                 capsys):
        updates = tmp_path / "updates.txt"
        updates.write_text("+ 0 999999\n")
        assert main(["repartition", str(graph_file), str(parts_file),
                     str(updates)]) == 2
        assert "error: batch 0:" in capsys.readouterr().err

    def test_conflicting_update(self, graph_file, parts_file, tmp_path,
                                capsys):
        graph = read_edge_list(graph_file)
        u, v = (int(x) for x in graph.edges[0])
        updates = tmp_path / "updates.txt"
        updates.write_text(f"- {u} {v}\n%%\n- {u} {v}\n")  # second delete conflicts
        assert main(["repartition", str(graph_file), str(parts_file),
                     str(updates)]) == 2
        assert "batch 1" in capsys.readouterr().err

    def test_junk_assignment_file(self, graph_file, tmp_path, capsys):
        bad = tmp_path / "junk.txt"
        bad.write_text("not-a-number\n")
        updates = tmp_path / "updates.txt"
        updates.write_text("+ 0 1\n")
        assert main(["repartition", str(graph_file), str(bad),
                     str(updates)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_out_of_range_flag(self, graph_file, parts_file, tmp_path, capsys):
        updates = tmp_path / "updates.txt"
        updates.write_text("+ 0 1\n")
        assert main(["repartition", str(graph_file), str(parts_file),
                     str(updates), "--hops", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: repartition_hops must be non-negative\n")

    def test_out_of_range_epsilon(self, graph_file, parts_file, tmp_path, capsys):
        """ε is checked when the repartitioner is built, before any batch
        reaches the live graph."""
        graph = read_edge_list(graph_file)
        u, v = (int(x) for x in graph.edges[0])
        updates = tmp_path / "updates.txt"
        updates.write_text(f"- {u} {v}\n")
        assert main(["repartition", str(graph_file), str(parts_file),
                     str(updates), "--epsilon", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: epsilon must be in (0, 1], got 0.0\n"
        assert "batch" not in captured.out

    def test_missing_updates_file(self, graph_file, parts_file, tmp_path,
                                  capsys):
        assert main(["repartition", str(graph_file), str(parts_file),
                     str(tmp_path / "nope.txt")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_evaluate_junk_assignment(self, graph_file, tmp_path, capsys):
        bad = tmp_path / "junk.txt"
        bad.write_text("zero\n")
        assert main(["evaluate", str(graph_file), str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestStoreCommand:
    def test_init_put_ls_get_roundtrip(self, graph_file, tmp_path, capsys):
        store = tmp_path / "store.sqlite"
        parts = tmp_path / "parts.txt"
        assert main(["partition", str(graph_file), "--parts", "4",
                     "--iterations", "10", "--output", str(parts)]) == 0
        assert main(["store", "init", str(store)]) == 0
        assert main(["store", "put", str(store), "g", str(graph_file),
                     "--assignment", str(parts)]) == 0
        capsys.readouterr()

        assert main(["store", "ls", str(store)]) == 0
        listing = capsys.readouterr().out
        assert "1 graphs, 1 assignments" in listing
        assert "assignment 'initial': k=4" in listing

        exported = tmp_path / "exported.txt"
        exported_parts = tmp_path / "exported_parts.txt"
        assert main(["store", "get", str(store), "g",
                     "--output", str(exported)]) == 0
        assert main(["store", "get", str(store), "g",
                     "--assignment-name", "initial",
                     "--assignment-output", str(exported_parts)]) == 0
        original = read_edge_list(graph_file)
        roundtrip = read_edge_list(exported)
        assert roundtrip.num_vertices == original.num_vertices
        np.testing.assert_array_equal(roundtrip.edges, original.edges)
        np.testing.assert_array_equal(read_partition(exported_parts),
                                      read_partition(parts))

    def test_put_assignment_onto_existing_graph(self, graph_file, tmp_path,
                                                capsys):
        store = tmp_path / "store.sqlite"
        graph = read_edge_list(graph_file)
        parts = tmp_path / "parts.txt"
        parts.write_text(
            "\n".join(str(i % 3) for i in range(graph.num_vertices)) + "\n")
        assert main(["store", "init", str(store)]) == 0
        assert main(["store", "put", str(store), "g", str(graph_file)]) == 0
        # Second put: no edge list, just attach another assignment.
        assert main(["store", "put", str(store), "g",
                     "--assignment", str(parts),
                     "--assignment-name", "by-hand", "--parts", "3"]) == 0
        capsys.readouterr()
        assert main(["store", "ls", str(store)]) == 0
        assert "by-hand" in capsys.readouterr().out

    def test_store_errors_are_one_liners(self, graph_file, tmp_path, capsys):
        store = tmp_path / "store.sqlite"
        assert main(["store", "ls", str(store)]) == 2  # missing store
        assert "error:" in capsys.readouterr().err
        assert main(["store", "init", str(store)]) == 0
        assert main(["store", "init", str(store)]) == 2  # double init
        assert main(["store", "put", str(store), "g"]) == 2  # nothing to store
        assert main(["store", "put", str(store), "g", str(graph_file)]) == 0
        assert main(["store", "put", str(store), "g", str(graph_file)]) == 2
        assert main(["store", "get", str(store), "missing"]) == 2
        err = capsys.readouterr().err
        assert "already stored" in err and "no graph" in err


class TestServeCommand:
    def test_bench_parser_defaults(self):
        args = build_parser().parse_args(["serve", "bench"])
        assert args.lookups == 50_000
        assert args.batch_size == 256
        assert args.skew == 1.0
        assert args.min_lookups_per_sec is None

    def test_run_parser_defaults(self):
        args = build_parser().parse_args(["serve", "run", "db", "g", "a"])
        assert args.port == 7171
        assert args.weights == ["unit", "degree"]
        assert args.max_queue == 64

    def test_bench_without_server_fails_cleanly(self, capsys):
        # Port 1 is privileged and unbound: the connect fails immediately.
        assert main(["serve", "bench", "--port", "1",
                     "--lookups", "10"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_serve_run_rejects_missing_store(self, tmp_path, capsys):
        assert main(["serve", "run", str(tmp_path / "nope.sqlite"),
                     "g", "initial"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_serve_run_rejects_corrupt_store(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.sqlite"
        corrupt.write_bytes(b"definitely not sqlite\x00" * 64)
        assert main(["serve", "run", str(corrupt), "g", "initial"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not a valid partition store" in err

    def test_serve_run_rejects_bad_fault_plan(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text("{broken", encoding="utf-8")
        assert main(["serve", "run", str(tmp_path / "db.sqlite"), "g", "a",
                     "--fault-plan", str(plan)]) == 2
        assert "cannot load fault plan" in capsys.readouterr().err

    def test_serve_run_rejects_out_of_range_flag(self, tmp_path, capsys):
        assert main(["serve", "run", str(tmp_path / "db.sqlite"), "g", "a",
                     "--port", "70000"]) == 2
        assert capsys.readouterr().err == "error: port must be in 0..65535\n"

    def test_store_get_absent_assignment_fails_cleanly(self, graph_file,
                                                       tmp_path, capsys):
        store = tmp_path / "store.sqlite"
        assert main(["store", "init", str(store)]) == 0
        assert main(["store", "put", str(store), "g", str(graph_file)]) == 0
        capsys.readouterr()
        assert main(["store", "get", str(store), "g",
                     "--assignment-name", "absent"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "absent" in err


class TestResilienceCLI:
    """Checkpoint/resume, fault plans and the chaos command."""

    def test_partition_resilience_parser_defaults(self):
        args = build_parser().parse_args(["partition", "g.txt"])
        assert args.task_timeout is None
        assert args.task_retries is None
        assert args.checkpoint_store is None
        assert args.checkpoint_every == 1
        assert args.resume is False
        assert args.fault_plan is None

    def test_serve_chaos_parser_defaults(self):
        args = build_parser().parse_args(["serve", "chaos"])
        assert args.fault_plan is None
        assert args.vertices == 300
        assert args.parts == 4
        assert args.json is None

    def test_resume_requires_checkpoint_store(self, graph_file, capsys):
        assert main(["partition", str(graph_file), "--resume"]) == 2
        assert "--resume needs --checkpoint-store" in capsys.readouterr().err

    def test_checkpointing_requires_gd(self, graph_file, tmp_path, capsys):
        assert main(["partition", str(graph_file), "--algorithm", "hash",
                     "--checkpoint-store",
                     str(tmp_path / "ckpt.sqlite")]) == 2
        assert "only supported for --algorithm gd" in capsys.readouterr().err

    def test_malformed_fault_plan_fails_cleanly(self, graph_file, tmp_path,
                                                capsys):
        plan = tmp_path / "plan.json"
        plan.write_text("[not, an, object]", encoding="utf-8")
        assert main(["partition", str(graph_file),
                     "--fault-plan", str(plan)]) == 2
        assert "cannot load fault plan" in capsys.readouterr().err

    def test_killed_run_resumes_bit_identically(self, graph_file, tmp_path,
                                                capsys):
        """The operator workflow end to end: a checkpointed run dies at
        wave 2 (injected), `--resume` replays from the stored checkpoint,
        and the assignment matches an uninterrupted run's bits."""
        import json

        reference = tmp_path / "reference.txt"
        base = ["partition", str(graph_file), "--parts", "8",
                "--iterations", "10", "--seed", "5"]
        assert main(base + ["--output", str(reference)]) == 0

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"faults": [
            {"site": "recursive.wave", "label": "level=2", "at": None,
             "message": "injected kill"}]}), encoding="utf-8")
        store = tmp_path / "ckpt.sqlite"
        capsys.readouterr()
        assert main(base + ["--checkpoint-store", str(store),
                            "--checkpoint-run", "demo",
                            "--fault-plan", str(plan)]) == 2
        assert "injected kill" in capsys.readouterr().err

        resumed = tmp_path / "resumed.txt"
        assert main(base + ["--checkpoint-store", str(store),
                            "--checkpoint-run", "demo", "--resume",
                            "--output", str(resumed)]) == 0
        assert "resuming run 'demo' from checkpoint level 2" \
            in capsys.readouterr().out
        np.testing.assert_array_equal(read_partition(resumed),
                                      read_partition(reference))

    def test_resume_without_stored_checkpoint_fails_cleanly(self, graph_file,
                                                            tmp_path, capsys):
        store = tmp_path / "ckpt.sqlite"
        assert main(["store", "init", str(store)]) == 0
        capsys.readouterr()
        assert main(["partition", str(graph_file),
                     "--checkpoint-store", str(store), "--resume"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_task_flags_flow_into_config(self, graph_file, capsys):
        """--task-timeout / --task-retries parse and the run still
        completes (inline path: no pool to time out)."""
        assert main(["partition", str(graph_file), "--parts", "4",
                     "--iterations", "10", "--task-timeout", "30",
                     "--task-retries", "1"]) == 0
        assert "edge locality" in capsys.readouterr().out

    def test_serve_chaos_reports_recovery(self, tmp_path, capsys):
        """The chaos lane's entry point: seeded storm, exit 0, greppable
        verdict, JSON report with the recovery counters."""
        import json

        report_file = tmp_path / "chaos.json"
        assert main(["serve", "chaos", "--vertices", "200",
                     "--json", str(report_file)]) == 0
        out = capsys.readouterr().out
        assert "verdict           recovered" in out
        report = json.loads(report_file.read_text(encoding="utf-8"))
        assert report["recovered"] is True
        assert report["failed_lookups"] == 0
        assert report["repair_recoveries"] == 2
        assert report["health_sequence"][0] == "ok"
        assert "degraded" in report["health_sequence"]
