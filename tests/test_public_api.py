"""Tests of the curated public surface and the shared config conventions.

Covers: every name in ``repro.__all__`` resolves; the one-call
``partition_graph`` / ``evaluate`` veneer; the ``to_dict`` / ``from_dict``
/ ``from_args`` round-trip shared by :class:`GDConfig` and
:class:`ServeConfig`; and the names removed in 2.0 (renamed fields, flat
execution fields, top-level solver aliases) failing like any unknown
name.
"""

from __future__ import annotations

import argparse
import json
import warnings

import numpy as np
import pytest

import repro
from repro.core import ExecutionConfig, GDConfig
from repro.serve import ServeConfig


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_all_is_sorted_sanely(self):
        # No duplicates, and everything importable with a star import.
        assert len(repro.__all__) == len(set(repro.__all__))
        namespace = {}
        exec("from repro import *", namespace)
        missing = [n for n in repro.__all__ if n not in namespace]
        assert not missing

    def test_version_is_exported(self):
        assert repro.__version__
        assert "__version__" in repro.__all__

    def test_partition_graph_and_evaluate(self, two_cliques_graph):
        partition = repro.partition_graph(
            two_cliques_graph, 2, epsilon=0.1,
            config=GDConfig(iterations=30, seed=3))
        assert partition.num_parts == 2
        report = repro.evaluate(partition)
        assert set(report) == {"num_parts", "edge_locality_pct", "imbalance_pct"}
        assert report["num_parts"] == 2
        assert 0.0 <= report["edge_locality_pct"] <= 100.0
        assert len(report["imbalance_pct"]) == 2
        json.dumps(report)  # JSON-friendly by contract

    def test_partition_graph_custom_weights(self, two_cliques_graph):
        weights = np.ones((1, two_cliques_graph.num_vertices))
        partition = repro.partition_graph(
            two_cliques_graph, 2, weights=weights, epsilon=0.1,
            config=GDConfig(iterations=30, seed=3))
        report = repro.evaluate(partition, weights)
        assert len(report["imbalance_pct"]) == 1


class TestDeprecatedAliases:
    """The top-level solver aliases of 1.x are gone: ``repro.core`` holds
    the solver entry points, ``repro.partition_graph`` / ``repro.run``
    front them."""

    def test_top_level_solver_aliases_are_refused(self):
        for name in ("gd_bisect", "recursive_bisection"):
            with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
                getattr(repro, name)
            assert callable(getattr(repro.core, name))

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
            repro.nonsense

    def test_deprecated_names_left_out_of_all(self):
        assert "gd_bisect" not in repro.__all__
        assert "recursive_bisection" not in repro.__all__


class TestRemovedNames:
    """Renamed and moved config names fail like any unknown name."""

    def test_gdconfig_refuses_removed_keywords(self):
        for name, value in (("projection", "exact"), ("parallelism", "shm"),
                            ("max_workers", 2), ("task_timeout_seconds", 1.0),
                            ("task_retries", 1)):
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
                GDConfig(**{name: value})

    def test_with_updates_refuses_removed_names(self):
        with pytest.raises(TypeError, match="max_workers"):
            GDConfig().with_updates(max_workers=2)
        with pytest.raises(TypeError, match="projection"):
            GDConfig().with_updates(projection="exact")
        with pytest.raises(TypeError, match="shm_min_wave_tasks"):
            ExecutionConfig().with_updates(shm_min_wave_tasks=2)

    def test_removed_attributes_are_gone(self):
        config = GDConfig()
        for name in ("projection", "parallelism", "max_workers",
                     "task_timeout_seconds", "task_retries", "final_projection_rounds"):
            assert not hasattr(config, name), name
        assert not hasattr(ExecutionConfig(), "shm_min_wave_tasks")
        assert not hasattr(ServeConfig(), "shutdown_drain_seconds")

    def test_serveconfig_refuses_old_drain_name(self):
        with pytest.raises(TypeError, match="shutdown_drain_seconds"):
            ServeConfig(shutdown_drain_seconds=5.0)

    def test_from_dict_refuses_removed_keys(self):
        for key, value in (("projection", "exact"), ("parallelism", "shm"),
                           ("task_retries", 1), ("final_projection_rounds", 50)):
            with pytest.raises(ValueError, match=f"unknown GDConfig fields: {key}"):
                GDConfig.from_dict({key: value, "seed": 4})
        with pytest.raises(ValueError, match="unknown ServeConfig fields"):
            ServeConfig.from_dict({"shutdown_drain_seconds": 3.0})
        with pytest.raises(ValueError, match="unknown ExecutionConfig fields"):
            ExecutionConfig.from_dict({"shm_min_wave_tasks": 2})

    def test_execution_refuses_removed_backends(self):
        for backend in ("thread", "process"):
            with pytest.raises(ValueError, match="parallelism must be one of"):
                ExecutionConfig(parallelism=backend)
        with pytest.raises(TypeError, match="shm_min_wave_tasks"):
            ExecutionConfig(shm_min_wave_tasks=2)

    def test_shim_installers_are_gone(self):
        for name in ("install_rename_shims", "install_move_shims"):
            assert name not in repro.core.__all__
            assert not hasattr(repro.core, name)


class TestConfigRoundTrip:
    def test_gdconfig_dict_round_trip(self):
        config = GDConfig(iterations=42, projection_method="exact", seed=9,
                          noise_every_iteration=True)
        restored = GDConfig.from_dict(config.to_dict())
        assert restored == config

    def test_gdconfig_to_dict_is_json_serializable(self):
        as_json = json.dumps(GDConfig().to_dict())
        assert GDConfig.from_dict(json.loads(as_json)) == GDConfig()

    def test_serveconfig_dict_round_trip(self):
        config = ServeConfig(port=0, epsilon=0.2, drain_seconds=1.0)
        assert ServeConfig.from_dict(config.to_dict()) == config

    def test_from_dict_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown GDConfig fields: iteration"):
            GDConfig.from_dict({"iteration": 5})

    def test_from_args_takes_matching_dests(self):
        namespace = argparse.Namespace(
            iterations=7, seed=2, projection_method="exact",
            dataset="fb-80", output=None)  # non-field entries ignored
        config = GDConfig.from_args(namespace)
        assert (config.iterations, config.seed, config.projection_method) == (7, 2, "exact")

    def test_from_args_skips_none_and_applies_aliases(self):
        namespace = argparse.Namespace(
            iterations=None, workers=3, hops=4, damage_threshold=0.5,
            repair_iterations=6)
        config = GDConfig.from_args(namespace)
        assert config.iterations == GDConfig().iterations  # None → default
        # --workers belongs to the nested ExecutionConfig, built on its own.
        assert config.execution == ExecutionConfig()
        assert ExecutionConfig.from_args(namespace).max_workers == 3
        assert config.repartition_hops == 4
        assert config.repartition_damage_threshold == 0.5
        assert config.repartition_iterations == 6

    def test_from_args_overrides_win(self):
        namespace = argparse.Namespace(iterations=7, seed=2)
        config = GDConfig.from_args(namespace, seed=11)
        assert (config.iterations, config.seed) == (7, 11)

    def test_serveconfig_from_args(self):
        namespace = argparse.Namespace(host="0.0.0.0", port=0, epsilon=0.1,
                                       verbose=True)
        config = ServeConfig.from_args(namespace)
        assert (config.host, config.port, config.epsilon) == ("0.0.0.0", 0, 0.1)

    def test_from_args_with_execution_override_owns_the_routing(self):
        # The CLI pattern: execution built separately from the same
        # namespace and passed in as an override; no warning fires.
        namespace = argparse.Namespace(iterations=7, workers=3, parallelism="shm")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = GDConfig.from_args(
                namespace, execution=ExecutionConfig.from_args(namespace))
        assert config.iterations == 7
        assert config.execution.parallelism == "shm"
        assert config.execution.max_workers == 3


class TestExecutionConfig:
    def test_defaults_and_round_trip(self):
        config = ExecutionConfig(parallelism="shm", max_workers=4,
                                 task_timeout_seconds=30.0, task_retries=1)
        assert ExecutionConfig.from_dict(config.to_dict()) == config
        json.dumps(config.to_dict())

    def test_validation(self):
        with pytest.raises(ValueError, match="parallelism"):
            ExecutionConfig(parallelism="fork-bomb")
        with pytest.raises(ValueError, match="max_workers"):
            ExecutionConfig(max_workers=0)

    def test_gdconfig_nests_execution_in_dict_round_trip(self):
        config = GDConfig(seed=5, execution=ExecutionConfig(parallelism="shm",
                                                            max_workers=2))
        as_dict = config.to_dict()
        assert as_dict["execution"]["parallelism"] == "shm"
        restored = GDConfig.from_dict(json.loads(json.dumps(as_dict)))
        assert restored == config
        assert isinstance(restored.execution, ExecutionConfig)

    def test_execution_dict_is_coerced(self):
        # from_dict of a nested mapping (the JSON round-trip path).
        config = GDConfig(execution={"parallelism": "shm", "max_workers": 2})
        assert isinstance(config.execution, ExecutionConfig)
        assert config.execution.max_workers == 2


class TestRunFacade:
    def test_run_matches_partition_graph_bisection(self, two_cliques_graph):
        gd = GDConfig(iterations=30, seed=3)
        reference = repro.partition_graph(two_cliques_graph, 2, epsilon=0.1,
                                          config=gd)
        result = repro.run(two_cliques_graph, 2, epsilon=0.1, gd=gd)
        assert isinstance(result, repro.RunResult)
        assert np.array_equal(result.partition.assignment, reference.assignment)
        # 2-way runs surface the full solver diagnostics.
        assert result.bisection is not None
        assert result.executor_stats is None
        assert result.elapsed_seconds > 0.0

    def test_run_kway_carries_executor_stats(self, two_cliques_graph):
        gd = GDConfig(iterations=15, seed=3)
        reference = repro.partition_graph(two_cliques_graph, 4, epsilon=0.1,
                                          config=gd)
        result = repro.run(two_cliques_graph, 4, epsilon=0.1, gd=gd)
        assert np.array_equal(result.partition.assignment, reference.assignment)
        assert result.bisection is None
        assert result.executor_stats is not None
        assert result.executor_stats.retries == 0
        assert result.executor_stats.shm.waves == 0  # serial default: no arenas

    def test_run_execution_override_wins(self, two_cliques_graph):
        gd = GDConfig(iterations=15, seed=3)
        result = repro.run(two_cliques_graph, 4, epsilon=0.1, gd=gd,
                           execution=ExecutionConfig(parallelism="shm",
                                                     max_workers=2))
        assert result.execution.parallelism == "shm"
        assert result.gd.execution.parallelism == "shm"
        reference = repro.run(two_cliques_graph, 4, epsilon=0.1, gd=gd)
        assert np.array_equal(result.partition.assignment,
                              reference.partition.assignment)
