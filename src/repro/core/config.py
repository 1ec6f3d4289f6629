"""Configuration of the projected-gradient-descent partitioner.

Also home of the package-wide config conventions:

* :class:`ConfigIO` — the shared ``to_dict`` / ``from_dict`` /
  ``from_args`` mixin every config dataclass follows, so each subsystem
  is constructible from JSON or an ``argparse`` namespace the same way;
* :func:`install_rename_shims` — the deprecation mechanism renamed
  fields go through (old keyword and attribute keep working for one
  release, with a :class:`DeprecationWarning`).
"""

from __future__ import annotations

import dataclasses
import functools
import warnings
from dataclasses import dataclass, field, replace

__all__ = [
    "ConfigIO",
    "ExecutionConfig",
    "GDConfig",
    "PARALLELISM_MODES",
    "PROJECTION_METHODS",
    "install_move_shims",
    "install_rename_shims",
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
    "thread",
    "process",
    "shm",
)


def install_rename_shims(cls, renames: dict[str, str]):
    """Make renamed dataclass fields accept their old names, with warnings.

    For each ``old -> new`` entry the generated ``__init__`` is wrapped so
    ``old=`` keywords are remapped to ``new=`` (emitting a
    :class:`DeprecationWarning`; passing both is a :class:`TypeError`),
    and a read-only ``old`` property that forwards to ``new`` is added.
    ``with_updates`` is wrapped the same way — it cannot reuse the
    ``__init__`` remap because :func:`dataclasses.replace` passes every
    current field, which would collide with the remapped keyword.
    """
    original_init = cls.__init__

    @functools.wraps(original_init)
    def __init__(self, *args, **kwargs):
        for old, new in renames.items():
            if old in kwargs:
                if new in kwargs:
                    raise TypeError(
                        f"{cls.__name__}() got values for both {old!r} and its "
                        f"replacement {new!r}"
                    )
                warnings.warn(
                    f"{cls.__name__} field {old!r} was renamed to {new!r}; "
                    f"the old name will be removed in a future release",
                    DeprecationWarning,
                    stacklevel=2,
                )
                kwargs[new] = kwargs.pop(old)
        original_init(self, *args, **kwargs)

    cls.__init__ = __init__

    def _make_alias(old: str, new: str) -> property:
        def getter(self):
            warnings.warn(
                f"{cls.__name__}.{old} was renamed to {new}; "
                f"the old name will be removed in a future release",
                DeprecationWarning,
                stacklevel=2,
            )
            return getattr(self, new)

        getter.__doc__ = f"Deprecated alias of :attr:`{new}`."
        return property(getter)

    for old, new in renames.items():
        setattr(cls, old, _make_alias(old, new))

    original_with_updates = getattr(cls, "with_updates", None)
    if original_with_updates is not None:
        @functools.wraps(original_with_updates)
        def with_updates(self, **changes):
            for old, new in renames.items():
                if old in changes:
                    if new in changes:
                        raise TypeError(
                            f"{cls.__name__}.with_updates() got values for both "
                            f"{old!r} and its replacement {new!r}"
                        )
                    warnings.warn(
                        f"{cls.__name__} field {old!r} was renamed to {new!r}; "
                        f"the old name will be removed in a future release",
                        DeprecationWarning,
                        stacklevel=2,
                    )
                    changes[new] = changes.pop(old)
            return original_with_updates(self, **changes)

        cls.with_updates = with_updates
    return cls


def install_move_shims(cls, nested_field: str, nested_cls, moved: tuple[str, ...]):
    """Make fields that moved into a nested config accept their old flat names.

    The counterpart of :func:`install_rename_shims` for fields that were
    *extracted* into a sub-config (``GDConfig.parallelism`` →
    ``GDConfig.execution.parallelism``).  The generated ``__init__`` is
    wrapped so old flat keywords are collected into a fresh ``nested_cls``
    instance (emitting a :class:`DeprecationWarning`; passing a flat name
    *and* ``nested_field=`` together is a :class:`TypeError`), read-only
    forwarding properties are added for the old attribute paths, and
    ``with_updates`` remaps flat names onto
    ``nested_field=self.<nested_field>.with_updates(...)``.
    """

    def _warn(name: str) -> None:
        warnings.warn(
            f"{cls.__name__} field {name!r} moved to "
            f"{cls.__name__}.{nested_field}.{name}; pass "
            f"{nested_field}={nested_cls.__name__}({name}=...) instead — "
            f"the flat name will be removed in a future release",
            DeprecationWarning,
            stacklevel=3,
        )

    def _take(kwargs: dict, where: str) -> dict:
        taken = {name: kwargs.pop(name) for name in moved if name in kwargs}
        if taken and nested_field in kwargs:
            raise TypeError(
                f"{where} got values for both {sorted(taken)} and the "
                f"{nested_field!r} config they moved into")
        for name in taken:
            _warn(name)
        return taken

    original_init = cls.__init__

    @functools.wraps(original_init)
    def __init__(self, *args, **kwargs):
        taken = _take(kwargs, f"{cls.__name__}()")
        if taken:
            kwargs[nested_field] = nested_cls(**taken)
        original_init(self, *args, **kwargs)

    cls.__init__ = __init__
    # from_args support: where the flat names went, and which argparse
    # dests used to reach them (the nested class's aliases restricted to
    # the moved names).
    cls._MOVED_INTO = nested_field
    cls._MOVED_ARG_ALIASES = {dest: name
                              for dest, name in nested_cls._ARG_ALIASES.items()
                              if name in moved}

    def _make_alias(name: str) -> property:
        def getter(self):
            _warn(name)
            return getattr(getattr(self, nested_field), name)

        getter.__doc__ = f"Deprecated alias of :attr:`{nested_field}.{name}`."
        return property(getter)

    for name in moved:
        setattr(cls, name, _make_alias(name))

    original_with_updates = cls.with_updates

    @functools.wraps(original_with_updates)
    def with_updates(self, **changes):
        taken = _take(changes, f"{cls.__name__}.with_updates()")
        if taken:
            changes[nested_field] = getattr(self, nested_field).with_updates(**taken)
        return original_with_updates(self, **changes)

    cls.with_updates = with_updates
    return cls


class ConfigIO:
    """Shared construction/serialization convention of config dataclasses.

    Subclasses may override :attr:`_ARG_ALIASES` (argparse ``dest`` →
    field name), :attr:`_RENAMED_FIELDS` (deprecated field name → new
    name, accepted by :meth:`from_dict` with a warning) and
    :attr:`_MOVED_FIELDS` (flat names that moved into a nested config —
    see :func:`install_move_shims` — which :meth:`from_dict` forwards to
    the constructor so old serialized configs keep loading).
    """

    _ARG_ALIASES: dict[str, str] = {}
    _RENAMED_FIELDS: dict[str, str] = {}
    _MOVED_FIELDS: tuple[str, ...] = ()
    #: Set by :func:`install_move_shims`: the nested field the moved
    #: names live in now, and the argparse dests that used to reach them.
    _MOVED_INTO: str | None = None
    _MOVED_ARG_ALIASES: dict[str, str] = {}

    def to_dict(self) -> dict:
        """All fields as a JSON-serializable dict (round-trips through
        :meth:`from_dict`).  Nested :class:`ConfigIO` fields recurse."""
        return {f.name: (value.to_dict() if isinstance(value := getattr(self, f.name),
                                                       ConfigIO) else value)
                for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, mapping: dict):
        """Construct from a (JSON-loaded) mapping; unknown keys raise."""
        values = dict(mapping)
        for old, new in cls._RENAMED_FIELDS.items():
            if old in values:
                warnings.warn(
                    f"{cls.__name__} field {old!r} was renamed to {new!r}; "
                    f"the old name will be removed in a future release",
                    DeprecationWarning,
                    stacklevel=2,
                )
                values[new] = values.pop(old)
        known = {f.name for f in dataclasses.fields(cls)} | set(cls._MOVED_FIELDS)
        unknown = sorted(set(values) - known)
        if unknown:
            raise ValueError(f"unknown {cls.__name__} fields: {', '.join(unknown)}")
        return cls(**values)

    @classmethod
    def from_args(cls, namespace, **overrides):
        """Construct from an ``argparse`` namespace.

        Namespace entries whose ``dest`` (after :attr:`_ARG_ALIASES`)
        matches a field are taken; ``None`` values are skipped so absent
        optional flags fall back to the field defaults.  ``overrides``
        win over namespace values.

        Moved fields (:func:`install_move_shims`) are still collected —
        through their old aliases — and routed into the nested config by
        the constructor shim, *unless* the caller passes the nested
        config itself as an override (then the caller owns the routing,
        as the CLI does with ``execution=ExecutionConfig.from_args(...)``).
        """
        known = {f.name for f in dataclasses.fields(cls)}
        take_moved = cls._MOVED_INTO is not None and cls._MOVED_INTO not in overrides
        if take_moved:
            known |= set(cls._MOVED_FIELDS)
        values = {}
        for dest, value in vars(namespace).items():
            name = cls._ARG_ALIASES.get(dest, dest)
            if take_moved:
                name = cls._MOVED_ARG_ALIASES.get(dest, name)
            if name in known and value is not None:
                values[name] = value
        values.update(overrides)
        return cls(**values)


@dataclass(frozen=True)
class ExecutionConfig(ConfigIO):
    """How the recursive k-way scheduler executes its bisection frontier.

    Extracted from :class:`GDConfig` so that execution concerns (which
    machine resources to use, how to survive worker failures) evolve
    independently of the algorithm parameters.  The old flat
    ``GDConfig`` names keep working for one release via
    :func:`install_move_shims` (``GDConfig(parallelism=...)`` warns and
    forwards here; passing a flat name *and* ``execution=`` raises).

    Attributes
    ----------
    parallelism:
        Execution backend used by :func:`repro.core.recursive_bisection`
        to run independent sub-bisections of the recursion tree:
        ``"serial"`` (in-process, the default), ``"thread"`` (a
        :class:`~concurrent.futures.ThreadPoolExecutor`; the numpy/scipy
        kernels release the GIL), ``"process"`` (a
        :class:`~concurrent.futures.ProcessPoolExecutor`; each task's
        subgraph is pickled to its worker), ``"shm"`` (a process pool fed
        through :mod:`multiprocessing.shared_memory`: every wave's CSR,
        weights and output buffers live in one shared segment that
        workers attach zero-copy, so only task coordinates cross the
        pipe — see :mod:`repro.core.shm`).  All backends produce
        bit-identical partitions for a fixed ``GDConfig.seed``.
    max_workers:
        Worker count for the thread/process/shm backends; ``None`` lets
        :mod:`concurrent.futures` pick a machine-dependent default.
        Ignored when ``parallelism`` is ``"serial"``.
    task_timeout_seconds:
        Per-task wall-clock budget on the pool backends.  A task that
        exceeds it is treated exactly like a task that raised: retried
        up to ``task_retries`` times (the process-pool backends kill and
        rebuild the pool first, since a hung worker cannot be reclaimed
        any other way).  ``None`` (the default) waits forever.  Ignored
        by the serial backend, which runs in the coordinating process.
    task_retries:
        How many times a failed or timed-out task is re-executed before
        the run fails with :class:`~repro.core.executor.ExecutorTaskError`.
        Retries are deterministic: the task's RNG seed is a pure function
        of its recursion-tree coordinate
        (:func:`~repro.core.executor.task_seed`), so a retry replays
        bit-identical work.
    shm_min_wave_tasks:
        Smallest frontier the ``"shm"`` backend ships through a shared
        segment.  Waves with fewer tasks (notably the single root task)
        skip the arena and run through the ordinary task path — packing
        a segment for one task costs more than it saves.
    shm_segment_prefix:
        Name prefix of the shared-memory segments (suffixed with the
        coordinator pid and a per-wave counter).  Keep it short: POSIX
        caps shared-memory names at 31 characters on some platforms.
    """

    parallelism: str = "serial"
    max_workers: int | None = None
    task_timeout_seconds: float | None = None
    task_retries: int = 2
    shm_min_wave_tasks: int = 2
    shm_segment_prefix: str = "repro-shm"

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
        if self.shm_min_wave_tasks < 1:
            raise ValueError("shm_min_wave_tasks must be at least 1")
        if (not self.shm_segment_prefix
                or not self.shm_segment_prefix.replace("-", "").replace("_", "").isalnum()):
            raise ValueError("shm_segment_prefix must be a non-empty "
                             "alphanumeric/dash/underscore string")
        if len(self.shm_segment_prefix) > 16:
            raise ValueError("shm_segment_prefix must be at most 16 characters "
                             "(POSIX shared-memory names are length-limited)")

    def with_updates(self, **changes) -> "ExecutionConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


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
        ``"dykstra"``.  (Renamed from ``projection``, which keeps working
        with a :class:`DeprecationWarning`.)
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
        Run a greedy repair pass after randomized rounding so the integral
        solution satisfies the requested epsilon balance.
    record_history:
        Record per-iteration edge locality and imbalance (used by the
        convergence figures 8--10 and 15--17).
    seed:
        Seed of the random number generator (noise and rounding).
    execution:
        The :class:`ExecutionConfig` of the recursive k-way scheduler —
        parallelism backend, worker count, per-task timeout/retry
        budgets and the shared-memory knobs.  The old flat fields
        (``parallelism``, ``max_workers``, ``task_timeout_seconds``,
        ``task_retries``) keep working for one release with a
        :class:`DeprecationWarning`; passing a flat name together with
        ``execution=`` is a :class:`TypeError`.
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
    _RENAMED_FIELDS = {"projection": "projection_method"}
    _MOVED_FIELDS = ("parallelism", "max_workers",
                     "task_timeout_seconds", "task_retries")

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

    def with_updates(self, **changes) -> "GDConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


install_rename_shims(GDConfig, {"projection": "projection_method"})
install_move_shims(GDConfig, "execution", ExecutionConfig,
                   ("parallelism", "max_workers",
                    "task_timeout_seconds", "task_retries"))
