"""Bit-level fingerprints of the solver's outputs, one line per group.

Prints ``<group> <sha256>`` for each group of solves below, hashing every
output bit for bit (array dtype, shape and bytes; floats by their exact
``repr``).  Run it on two checkouts and diff the outputs: a change that
claims to leave the arithmetic alone must print the same lines::

    PYTHONPATH=<other-checkout>/src python benchmarks/fingerprints.py > before.txt
    PYTHONPATH=src python benchmarks/fingerprints.py > after.txt
    diff before.txt after.txt

BLAS is pinned to one thread before numpy is imported, so no reduction
depends on the thread count.  The script takes no flags, writes nothing
and uses only the public ``repro`` API.  It takes about 40 s on two
vCPUs.

Groups:

* ``kway_serial`` / ``kway_k64`` — ``repro.run`` assignments for GD
  seeds 0–31 on perfbench's k-way inputs (``fb_like(80, 8)``, k = 16;
  ``fb_like(80, 2)``, k = 64; d = 2, ε = 0.05, 100 iterations);
  ``kway_shm2`` — seeds 0–3 of the first on the ``shm`` executor with
  two workers.
* ``churn_repair_<seed>`` — 100 batches of perfbench's churn workload at
  seeds 1 and 9173: the assignment after each batch and every
  ``RepairReport`` field but ``elapsed_seconds``.
* ``d3_k12`` / ``d1_k7`` — ``fb_like(80, 0.5)`` at d = 3, k = 12 and at
  d = 1, k = 7, seeds 0–7.
* ``projection_<method>`` — every projection method on
  ``fb_like(80, 0.25)`` at k ∈ {3, 8}, seeds 0–2.
* ``noise`` — noise at every iteration, and a set noise deviation, on
  ``fb_like(80, 0.25)`` at k = 4, seeds 0–3.
* ``history`` — one ``gd_bisect`` with ``record_history=True``: its
  history, fractional iterate and assignment.
"""

from __future__ import annotations

import os

for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_variable] = "1"

import dataclasses
import hashlib

import numpy as np

from repro import ExecutionConfig, GDConfig, run, standard_weights
from repro.core import PROJECTION_METHODS, gd_bisect
from repro.dynamic import (
    DynamicGraph,
    IncrementalRepartitioner,
    UpdateBatch,
    degree_weight_deltas,
)
from repro.graphs import churn_trace, fb_like

EPSILON = 0.05
ITERATIONS = 100


def _feed(digest, value) -> None:
    """Hash ``value`` bit for bit: arrays by dtype, shape and bytes,
    dataclasses field by field, floats by their round-trip ``repr``."""
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        for item in dataclasses.fields(value):
            digest.update(item.name.encode())
            _feed(digest, getattr(value, item.name))
    elif isinstance(value, (list, tuple)):
        digest.update(f"[{len(value)}".encode())
        for item in value:
            _feed(digest, item)
        digest.update(b"]")
    else:
        digest.update(f"{type(value).__name__}:{value!r};".encode())


def _print(group: str, values) -> None:
    digest = hashlib.sha256()
    _feed(digest, values)
    print(f"{group} {digest.hexdigest()}", flush=True)


def _assignments(graph, num_parts, weights, configs, execution=None) -> list[np.ndarray]:
    return [run(graph, num_parts, weights=weights, epsilon=EPSILON, gd=config,
                execution=execution).partition.assignment for config in configs]


def kway() -> None:
    for group, scale, num_parts in (("kway_serial", 8, 16), ("kway_k64", 2, 64)):
        graph = fb_like(80, scale=scale)
        weights = standard_weights(graph, 2)
        configs = [GDConfig(iterations=ITERATIONS, seed=seed) for seed in range(32)]
        _print(group, _assignments(graph, num_parts, weights, configs))
    graph = fb_like(80, scale=8)
    configs = [GDConfig(iterations=ITERATIONS, seed=seed) for seed in range(4)]
    _print("kway_shm2", _assignments(graph, 16, standard_weights(graph, 2), configs,
                                     ExecutionConfig(parallelism="shm", max_workers=2)))


def churn(seed: int, batches: int = 100) -> None:
    graph = fb_like(80, scale=4)
    weights = standard_weights(graph, 2)
    config = GDConfig(iterations=ITERATIONS, seed=seed)
    initial = run(graph, 16, weights=weights, epsilon=EPSILON, gd=config)
    dynamic = DynamicGraph(graph, weights)
    repartitioner = IncrementalRepartitioner(dynamic, initial.partition.assignment, 16,
                                             EPSILON, config)
    outputs = [initial.partition.assignment]
    for insertions, deletions in churn_trace(graph, batches, 0.0005, seed=seed + 1):
        vertices, deltas = degree_weight_deltas(dynamic, insertions, deletions)
        report = repartitioner.apply(UpdateBatch(insertions=insertions, deletions=deletions,
                                                 weight_vertices=vertices,
                                                 weight_deltas=deltas))
        outputs.append(repartitioner.assignment.copy())
        outputs.append([(item.name, getattr(report, item.name))
                        for item in dataclasses.fields(report)
                        if item.name != "elapsed_seconds"])
    _print(f"churn_repair_{seed}", outputs)


def dimensions() -> None:
    graph = fb_like(80, scale=0.5)
    for group, d, num_parts in (("d3_k12", 3, 12), ("d1_k7", 1, 7)):
        configs = [GDConfig(iterations=ITERATIONS, seed=seed) for seed in range(8)]
        _print(group, _assignments(graph, num_parts, standard_weights(graph, d), configs))


def projections() -> None:
    graph = fb_like(80, scale=0.25)
    weights = standard_weights(graph, 2)
    for method in PROJECTION_METHODS:
        _print(f"projection_{method}",
               [_assignments(graph, num_parts, weights,
                             [GDConfig(iterations=ITERATIONS, seed=seed,
                                       projection_method=method) for seed in range(3)])
                for num_parts in (3, 8)])


def noise() -> None:
    graph = fb_like(80, scale=0.25)
    weights = standard_weights(graph, 2)
    configs = [GDConfig(iterations=ITERATIONS, seed=seed, **options)
               for options in ({"noise_every_iteration": True}, {"noise_std": 0.3})
               for seed in range(4)]
    _print("noise", _assignments(graph, 4, weights, configs))


def history() -> None:
    graph = fb_like(80, scale=0.25)
    result = gd_bisect(graph, standard_weights(graph, 2), EPSILON,
                       GDConfig(iterations=ITERATIONS, seed=0, record_history=True))
    _print("history", [result.history, result.fractional, result.partition.assignment])


def main() -> None:
    kway()
    for seed in (1, 9173):
        churn(seed)
    dimensions()
    projections()
    noise()
    history()


if __name__ == "__main__":
    main()
