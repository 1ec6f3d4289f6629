"""Shared plumbing of the experiment harness.

Every experiment module in this package exposes a ``run(...)`` function
returning plain data (lists of row dicts or series) and a
``format_result(...)`` helper turning that data into the text table printed
by the corresponding benchmark.  This module holds the pieces they share:
the partitioner registry, the partitioning *modes* of §4.2 (vertex / edge /
vertex-edge balance), resource measurement, and the default experiment
scale.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..baselines import (
    BalancedLabelPropagation,
    HashPartitioner,
    MetisLikePartitioner,
    Partitioner,
    SocialHashPartitioner,
    SpinnerPartitioner,
)
from ..core import ExecutionConfig, GDConfig, GDPartitioner
from ..graphs import Graph, load_dataset, standard_weights
from ..graphs.weights import degree_weights, unit_weights
from ..partition.partition import Partition

__all__ = [
    "DEFAULT_SCALE",
    "PUBLIC_GRAPHS",
    "ResourceUsage",
    "measure_resources",
    "make_baseline",
    "make_gd",
    "partition_by_mode",
    "PARTITIONING_MODES",
    "public_graph",
    "hash_placement",
    "as_gigabytes",
    "normalized_rows",
    "seeded_rng",
]

#: Default generator scale used by the benchmarks; 1.0 keeps every
#: experiment in the seconds range on a laptop.
DEFAULT_SCALE = 1.0

#: The three public graphs used in Figures 4 and 5.
PUBLIC_GRAPHS = ("livejournal", "twitter", "friendster")

#: Partitioning modes of §4.2: which dimensions GD balances.
PARTITIONING_MODES = ("vertex", "edge", "vertex-edge")


@dataclass(frozen=True)
class ResourceUsage:
    """Wall-clock time and peak memory of one partitioner invocation."""

    seconds: float
    peak_memory_mb: float


def measure_resources(function: Callable[[], object]) -> tuple[object, ResourceUsage]:
    """Run ``function`` measuring wall-clock time and peak allocation."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        value = function()
    finally:
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return value, ResourceUsage(seconds=elapsed, peak_memory_mb=peak / 1e6)


def public_graph(name: str, scale: float = DEFAULT_SCALE, seed: int = 0) -> Graph:
    """Load one of the public-graph presets at the experiment scale."""
    return load_dataset(name, scale=scale, seed=seed)


def make_baseline(name: str, seed: int = 0) -> Partitioner:
    """Instantiate a baseline partitioner by its paper name."""
    factories: dict[str, Callable[[], Partitioner]] = {
        "Hash": lambda: HashPartitioner(salt=seed),
        "Spinner": lambda: SpinnerPartitioner(seed=seed),
        "BLP": lambda: BalancedLabelPropagation(seed=seed),
        "SHP": lambda: SocialHashPartitioner(seed=seed),
        "METIS": lambda: MetisLikePartitioner(seed=seed),
    }
    if name not in factories:
        raise KeyError(f"unknown baseline {name!r}; available: {sorted(factories)}")
    return factories[name]()


def make_gd(epsilon: float = 0.05, iterations: int = 60, seed: int = 0,
            **config_overrides) -> GDPartitioner:
    """GD partitioner with the experiment-default configuration."""
    config = GDConfig(iterations=iterations, seed=seed, **config_overrides)
    return GDPartitioner(epsilon=epsilon, config=config)


def partition_by_mode(graph: Graph, mode: str, num_parts: int,
                      epsilon: float = 0.05, iterations: int = 60,
                      seed: int = 0, parallelism: str = "serial",
                      max_workers: int | None = None) -> Partition:
    """Partition with GD balancing the dimensions selected by ``mode``.

    ``"vertex"`` balances vertex counts only, ``"edge"`` balances edge
    (degree) counts only, and ``"vertex-edge"`` balances both — the three
    strategies compared in Figures 1 and 7.  ``parallelism`` /
    ``max_workers`` pick the recursive-bisection execution backend; the
    produced partition is bit-identical across backends for a fixed seed.
    """
    if mode == "vertex":
        weights = unit_weights(graph)[None, :]
    elif mode == "edge":
        weights = degree_weights(graph)[None, :]
    elif mode == "vertex-edge":
        weights = standard_weights(graph, 2)
    else:
        raise ValueError(f"unknown partitioning mode {mode!r}; "
                         f"available: {PARTITIONING_MODES}")
    partitioner = make_gd(epsilon=epsilon, iterations=iterations, seed=seed,
                          execution=ExecutionConfig(parallelism=parallelism,
                                                    max_workers=max_workers))
    return partitioner.partition(graph, weights, num_parts)


def hash_placement(graph: Graph, num_parts: int, seed: int = 0) -> Partition:
    """Hash-based placement (the baseline of every distributed experiment)."""
    weights = unit_weights(graph)[None, :]
    return HashPartitioner(salt=seed).partition(graph, weights, num_parts)


def as_gigabytes(message_bytes: float) -> float:
    """Convert simulated bytes to GB for Table 2 style reporting."""
    return message_bytes / 1e9


def normalized_rows(rows: list[dict], keys: list[str]) -> list[list]:
    """Project row dictionaries onto an ordered list of columns."""
    return [[row[key] for key in keys] for row in rows]


def seeded_rng(seed: int) -> np.random.Generator:
    """Tiny helper so experiments share one RNG construction idiom."""
    return np.random.default_rng(seed)
