"""repro — Multi-Dimensional Balanced Graph Partitioning via Projected Gradient Descent.

A from-scratch reproduction of Avdiukhin, Pupyrev and Yaroslavtsev (VLDB /
arXiv:1902.03522, 2019).  The package contains:

* :mod:`repro.graphs` — graph representation, synthetic dataset presets and
  vertex weight functions;
* :mod:`repro.partition` — the partition data model and quality metrics;
* :mod:`repro.core` — the GD algorithm (projected gradient descent with
  exact / alternating / Dykstra projections, rounding, k-way drivers);
* :mod:`repro.baselines` — Hash, Spinner, BLP, SHP and a METIS-like
  multilevel multi-constraint partitioner;
* :mod:`repro.distributed` — a Giraph-style BSP simulator with PageRank,
  Connected Components, Mutual Friends and Hypergraph Clustering;
* :mod:`repro.dynamic` — the dynamic-graph engine: batched edge/weight
  updates on a live CSR and incremental repartitioning under churn;
* :mod:`repro.store` — the sqlite-backed catalog of graphs, assignments
  and run metrics (``repro store`` on the CLI);
* :mod:`repro.serve` — the partition-serving service: lookups and k-way
  routing over an atomically-swapped assignment while churn is repaired
  in the background by a supervised, self-healing worker (``repro
  serve`` on the CLI);
* :mod:`repro.faults` — deterministic, seeded fault injection (the
  chaos lane and the resilience tests arm a :class:`~repro.FaultPlan`;
  disarmed sites cost one pointer check);
* :mod:`repro.experiments` — one runner per table / figure of the paper.

Quickstart::

    from repro import Graph, partition_graph, evaluate
    from repro.graphs import livejournal_like

    graph = livejournal_like()
    partition = partition_graph(graph, num_parts=8, epsilon=0.05)
    print(evaluate(partition))

Stable public surface
---------------------
``__all__`` below is the supported API: the top-level types and entry
points (``Graph``, ``GDPartitioner``, ``GDConfig``, ``ExecutionConfig``,
``partition_graph``, ``run``, ``evaluate``, the store/serve entry
points) plus the documented subpackages.  Everything else — in particular the solver internals under
:mod:`repro.core` (steppers, noise/step schedules, the free-vertex system, kernels)
— is importable but may change between releases; such modules carry an
"internal" note in their docstring.
"""

from . import (
    baselines,
    core,
    distributed,
    dynamic,
    experiments,
    faults,
    graphs,
    partition,
    serve,
    store,
)
from .api import RunResult, evaluate, partition_graph, run
from .core import ExecutionConfig, GDConfig, GDPartitioner
from .faults import FaultPlan, FaultSpec, InjectedFault
from .graphs import Graph, load_dataset, standard_weights, weight_matrix
from .partition import Partition, edge_locality, imbalance, is_epsilon_balanced, max_imbalance
from .serve import PartitionService, ServeConfig, ServeError
from .store import PartitionStore

# The single source of the package version: pyproject.toml declares
# ``version`` as dynamic and reads this attribute; the CLI's ``--version``
# flag prints it.
__version__ = "2.0.0"

__all__ = [
    "baselines",
    "core",
    "distributed",
    "dynamic",
    "experiments",
    "faults",
    "graphs",
    "partition",
    "serve",
    "store",
    "ExecutionConfig",
    "GDConfig",
    "GDPartitioner",
    "partition_graph",
    "evaluate",
    "run",
    "RunResult",
    "Graph",
    "load_dataset",
    "standard_weights",
    "weight_matrix",
    "Partition",
    "edge_locality",
    "imbalance",
    "is_epsilon_balanced",
    "max_imbalance",
    "PartitionService",
    "ServeConfig",
    "ServeError",
    "PartitionStore",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "__version__",
]
