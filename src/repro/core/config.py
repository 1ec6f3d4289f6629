"""Configuration of the projected-gradient-descent partitioner.

Also home of :class:`ConfigIO`, the shared ``to_dict`` / ``from_dict`` /
``from_args`` / ``with_updates`` mixin every config dataclass follows, so
each subsystem is constructible from JSON or an ``argparse`` namespace
the same way.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace

__all__ = [
    "ConfigIO",
    "ExecutionConfig",
    "GDConfig",
    "PARALLELISM_MODES",
    "PROJECTION_METHODS",
]

#: Projection methods accepted by :class:`GDConfig.projection_method`.
PROJECTION_METHODS = (
    "exact",
    "alternating",
    "alternating_oneshot",
    "dykstra",
)

#: Execution backends accepted by :class:`ExecutionConfig.parallelism`.
PARALLELISM_MODES = (
    "serial",
    "shm",
)


class ConfigIO:
    """Shared construction/serialization convention of config dataclasses.

    Subclasses may override :attr:`_ARG_ALIASES` (argparse ``dest`` →
    field name).
    """

    _ARG_ALIASES: dict[str, str] = {}

    def to_dict(self) -> dict:
        """All fields as a JSON-serializable dict (round-trips through
        :meth:`from_dict`).  Nested :class:`ConfigIO` fields recurse."""
        return {f.name: (value.to_dict() if isinstance(value := getattr(self, f.name),
                                                       ConfigIO) else value)
                for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, mapping: dict):
        """Construct from a (JSON-loaded) mapping; unknown keys raise."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValueError(f"unknown {cls.__name__} fields: {', '.join(unknown)}")
        return cls(**mapping)

    @classmethod
    def from_args(cls, namespace, **overrides):
        """Construct from an ``argparse`` namespace.

        Namespace entries whose ``dest`` (after :attr:`_ARG_ALIASES`)
        matches a field are taken; ``None`` values are skipped so absent
        optional flags fall back to the field defaults.  ``overrides``
        win over namespace values.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        values = {}
        for dest, value in vars(namespace).items():
            name = cls._ARG_ALIASES.get(dest, dest)
            if name in known and value is not None:
                values[name] = value
        values.update(overrides)
        return cls(**values)

    def with_updates(self, **changes):
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ExecutionConfig(ConfigIO):
    """How the recursive k-way scheduler executes its bisection frontier.

    Kept apart from :class:`GDConfig` so that execution concerns (which
    machine resources to use, how to survive worker failures) evolve
    independently of the algorithm parameters.

    Attributes
    ----------
    parallelism:
        Execution backend used by :func:`repro.core.recursive_bisection`
        to run independent sub-bisections of the recursion tree:
        ``"serial"`` (in-process, the default) or ``"shm"`` (a process
        pool fed through :mod:`multiprocessing.shared_memory`: a walk's
        input graph, weights and output buffer live in one shared segment
        that workers attach zero-copy, so only task coordinates cross the
        pipe — see :mod:`repro.core.shm`).  Both backends produce
        bit-identical partitions for a fixed ``GDConfig.seed``.
    max_workers:
        Worker count of the ``"shm"`` pool; ``None`` lets
        :mod:`concurrent.futures` pick a machine-dependent default.
        Ignored when ``parallelism`` is ``"serial"``.
    task_timeout_seconds:
        Per-task wall-clock budget on the ``"shm"`` pool.  A task that
        exceeds it is treated exactly like a task that raised: the pool
        is killed and rebuilt (a hung worker cannot be reclaimed any
        other way) and the task is retried up to ``task_retries`` times.
        ``None`` (the default) waits forever.  Ignored by the serial
        backend, which runs in the coordinating process.
    task_retries:
        How many times a failed or timed-out task is re-executed before
        the run fails with :class:`~repro.core.executor.ExecutorTaskError`.
        Retries are deterministic: the task's RNG seed is a pure function
        of its recursion-tree coordinate
        (:func:`~repro.core.executor.task_seed`), so a retry replays
        bit-identical work.

    The ``"shm"`` backend names its segments ``repro-shm-<pid>-<n>``
    (coordinator pid and a per-walk counter), so concurrent runs never
    collide and leftovers are easy to find.
    """

    parallelism: str = "serial"
    max_workers: int | None = None
    task_timeout_seconds: float | None = None
    task_retries: int = 2

    _ARG_ALIASES = {
        "workers": "max_workers",
        "task_timeout": "task_timeout_seconds",
    }

    def __post_init__(self) -> None:
        if self.parallelism not in PARALLELISM_MODES:
            raise ValueError(f"parallelism must be one of {PARALLELISM_MODES}, "
                             f"got {self.parallelism!r}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be at least 1 when given")
        if self.task_timeout_seconds is not None and self.task_timeout_seconds <= 0:
            raise ValueError("task_timeout_seconds must be positive when given")
        if self.task_retries < 0:
            raise ValueError("task_retries must be non-negative")


@dataclass(frozen=True)
class GDConfig(ConfigIO):
    """Parameters of Algorithm 1 (GD) and its implementation details (§3).

    Attributes
    ----------
    iterations:
        Number of projected-gradient iterations ``I`` (the paper uses 100).
    step_length_factor:
        Target Euclidean step length per iteration, in units of
        ``xi = sqrt(n) / iterations``.  The paper finds ``2 * xi`` works well
        across graphs (Figure 8), so the default is 2.
    adaptive_step:
        Rescale the gradient every iteration so that the realized step
        ``||x(t+1) - x(t)||`` stays close to the target (§3.2).  When False
        a constant step size derived from the first iteration is used.
    vertex_fixing:
        Freeze vertices whose relaxed value is nearly integral so they stop
        participating in the gradient and projection steps (§3.2).  Every
        iteration runs on the free vertices only
        (:class:`~repro.core.compaction.FreeVertexSystem`).
    fixing_threshold:
        ``|x_i| >= fixing_threshold`` marks vertex ``i`` as integral.
    fixing_start_fraction:
        Fraction of the iteration budget after which fixing may begin
        (fixing from the very first iterations would freeze noise).
    projection_method:
        One of ``"exact"``, ``"alternating"`` (to convergence),
        ``"alternating_oneshot"`` (paper default for large graphs), or
        ``"dykstra"``.
    projection_epsilon:
        Allowed imbalance used *inside* the projection.  The paper observes
        that a larger allowed imbalance during the descent gives the
        algorithm more freedom (Figure 10); the final solution is still
        repaired to the user-requested ``epsilon``.  ``None`` means "use the
        user-requested epsilon".
    noise_std:
        Standard deviation of the Gaussian noise added at iteration 0;
        ``None`` picks ``1 / sqrt(n)`` which is enough to leave the saddle
        at the origin.
    noise_every_iteration:
        Add noise at every iteration instead of only the first (ablation).
    final_projection_rounds:
        Number of full alternating-projection sweeps applied after the last
        iteration to clean up accumulated imbalance (§3.1).
    balance_repair:
        Run a greedy repair pass after randomized rounding that flips
        vertices towards the requested epsilon balance.  The pass stops
        when no single flip lowers the total violation, so the integral
        solution can still end outside epsilon.
    record_history:
        Record per-iteration edge locality and imbalance (used by the
        convergence figures 8--10 and 15--17).
    seed:
        Seed of the random number generator (noise and rounding).
    execution:
        The :class:`ExecutionConfig` of the recursive k-way scheduler —
        parallelism backend, worker count and per-task timeout/retry
        budgets.
    repartition_hops:
        Radius of the incremental repartitioner's freeze rule
        (:mod:`repro.dynamic.repartition`): after an update batch, only
        vertices within this many hops of a touched edge/vertex may be
        reassigned by a local repair; everything farther is frozen at
        its previous side.  Ignored by the one-shot partitioners.
    repartition_damage_threshold:
        Damage score above which the incremental repartitioner abandons
        local repair and re-runs full recursive GD on the updated graph.
        The score sums the batch's relative cut increase (fraction of the
        edge set) and its ε-balance violation in slack-widths (1.0 = a
        part sits a full ``ε·W/k`` past its band), so the default 0.05
        recomputes when a batch cuts ~5% of the edges *or* pushes a part
        5% of one slack-width out of band — deliberately conservative on
        balance, because an out-of-band partition must not be served and
        the released vertices alone cannot always restore it (the
        escalation path is the backstop, not the plan).
    repartition_iterations:
        GD iterations of each local-repair pass.  Repairs start from the
        previous (integral) assignment with most vertices frozen, so a
        short budget suffices — this is the lever behind the
        repair-vs-recompute work ratio.
    """

    iterations: int = 100
    step_length_factor: float = 2.0
    adaptive_step: bool = True
    vertex_fixing: bool = True
    fixing_threshold: float = 0.99
    fixing_start_fraction: float = 0.25
    projection_method: str = "alternating_oneshot"
    projection_epsilon: float | None = None
    noise_std: float | None = None
    noise_every_iteration: bool = False
    final_projection_rounds: int = 50
    balance_repair: bool = True
    record_history: bool = False
    seed: int = 0
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    repartition_hops: int = 2
    repartition_damage_threshold: float = 0.05
    repartition_iterations: int = 10

    _ARG_ALIASES = {
        "hops": "repartition_hops",
        "damage_threshold": "repartition_damage_threshold",
        "repair_iterations": "repartition_iterations",
    }

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.step_length_factor <= 0:
            raise ValueError("step_length_factor must be positive")
        if not 0.0 < self.fixing_threshold <= 1.0:
            raise ValueError("fixing_threshold must be in (0, 1]")
        if not 0.0 <= self.fixing_start_fraction <= 1.0:
            raise ValueError("fixing_start_fraction must be in [0, 1]")
        if self.projection_method not in PROJECTION_METHODS:
            raise ValueError(f"projection_method must be one of {PROJECTION_METHODS}, "
                             f"got {self.projection_method!r}")
        if self.projection_epsilon is not None and self.projection_epsilon <= 0:
            raise ValueError("projection_epsilon must be positive when given")
        if self.noise_std is not None and self.noise_std < 0:
            raise ValueError("noise_std must be non-negative when given")
        if self.final_projection_rounds < 0:
            raise ValueError("final_projection_rounds must be non-negative")
        if isinstance(self.execution, dict):
            # from_dict hands the nested mapping through verbatim; coerce it
            # here so round-tripped configs rebuild their ExecutionConfig.
            object.__setattr__(self, "execution",
                               ExecutionConfig.from_dict(self.execution))
        if not isinstance(self.execution, ExecutionConfig):
            raise TypeError("execution must be an ExecutionConfig "
                            f"(got {type(self.execution).__name__})")
        if self.repartition_hops < 0:
            raise ValueError("repartition_hops must be non-negative")
        if self.repartition_damage_threshold <= 0:
            raise ValueError("repartition_damage_threshold must be positive")
        if self.repartition_iterations < 1:
            raise ValueError("repartition_iterations must be at least 1")
