"""Execution backends for the recursive-bisection scheduler.

The ``⌈log₂ k⌉``-level recursion tree of :func:`repro.core.recursive_bisection`
contains, at every level, a frontier of bisection subproblems that touch
disjoint vertex sets and are therefore fully independent.
:class:`BisectionExecutor` is the small abstraction that runs one such
frontier: serially, on a thread pool (the numpy/scipy kernels inside GD
release the GIL during mat-vecs and sorts, so threads already overlap),
or on a process pool for full CPU parallelism — pickling each subgraph
to its worker (``"process"``) or sharing the whole wave zero-copy
through one :mod:`multiprocessing.shared_memory` arena with only task
coordinates crossing the pipe (``"shm"``, see :mod:`repro.core.shm`).

Two properties the scheduler relies on:

* **Order preservation** — :meth:`BisectionExecutor.map` returns results in
  task-submission order regardless of completion order, so the caller can
  zip results back onto its task list.
* **Determinism** — the executor never injects randomness; combined with
  per-task seeds derived from the task's *position in the recursion tree*
  (see :func:`task_seed`), every backend produces bit-identical partitions
  for a fixed :attr:`GDConfig.seed`.

Failure handling
----------------
Tasks that raise, hang past ``task_timeout_seconds``, or take their
worker process down with them are retried up to ``task_retries`` times
before the run fails with :class:`ExecutorTaskError` (which names the
task coordinate and the attempt count).  Because each task's RNG seed is
a pure function of its recursion-tree coordinate, a retry replays
bit-identical work — results are the same whether or not failures
occurred.  Specifics per backend:

* **process** — a timed-out or crashed worker breaks the whole pool
  (:class:`~concurrent.futures.process.BrokenProcessPool`, or a hang we
  can only resolve by killing the worker).  The executor kills the
  remaining workers, rebuilds the pool, and resubmits every unfinished
  task; each re-execution counts as one more attempt for all of them.
* **thread** — a raised task is resubmitted; a hung thread cannot be
  killed, so on timeout the task is resubmitted alongside it and the
  hung thread is left to unwind on its own (best effort — enough hung
  threads can clog the pool and exhaust retries).
* **serial / single-task waves** — run in the coordinating
  process: exceptions are retried inline, but timeouts are not enforced
  (we cannot interrupt our own thread).

Each execution enters the fault-injection site ``"executor.task"`` with
the task's label and its retry attempt
(:func:`repro.faults.attempt_scope`), so seeded chaos plans can kill or
hang one specific task of one specific wave and the default
``attempt=0`` keying makes the retry succeed.

The process backend pickles each task's induced subgraph and weight slice to
the workers.  Worker processes must be able to import :mod:`repro`; when the
multiprocessing start method is ``spawn`` (the default on macOS/Windows) this
means ``src`` has to be on ``PYTHONPATH`` — on Linux the default ``fork``
start method inherits the parent's ``sys.path``.

Internal module: not part of the stable public API (see ``repro.__all__``); its contents may change between releases.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

import numpy as np

from ..faults import attempt_scope, fault_site
from .config import PARALLELISM_MODES
from .shm import ShmStats

if TYPE_CHECKING:
    from .config import ExecutionConfig

__all__ = [
    "BisectionExecutor",
    "ExecutorStats",
    "ExecutorTaskError",
    "task_seed",
    "resolve_parallelism",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

logger = logging.getLogger("repro.executor")


class ExecutorTaskError(RuntimeError):
    """A task failed (or timed out) on every allowed attempt."""


@dataclass
class ExecutorStats:
    """Counters of the resilience machinery (one executor's lifetime).

    ``shm`` aggregates the shared-memory backend's per-wave counters —
    segments created, worker attaches, bytes shared versus the pickled
    bytes the process backend would have shipped (see
    :class:`~repro.core.shm.ShmStats`).  Empty for the other backends.
    """

    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    shm: ShmStats = field(default_factory=ShmStats)


def task_seed(base_seed: int, depth: int, first_part: int) -> int:
    """Deterministic RNG seed for the subproblem at ``(depth, first_part)``.

    A recursion-tree node is uniquely identified by its level ``depth`` and
    the index ``first_part`` of the first bucket it is responsible for.
    Keying a :class:`numpy.random.SeedSequence` on that coordinate (via its
    ``spawn_key`` mechanism — the same device :meth:`SeedSequence.spawn`
    uses internally) yields streams that are

    * statistically independent across sibling subproblems, and
    * a pure function of the task's identity, never of scheduling order —
      which is what makes serial, thread and process execution agree bit
      for bit, and retried tasks replay bit-identical work.
    """
    sequence = np.random.SeedSequence(base_seed, spawn_key=(depth, first_part))
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def resolve_parallelism(parallelism: str) -> str:
    """Validate a parallelism mode string and return it."""
    if parallelism not in PARALLELISM_MODES:
        raise ValueError(f"parallelism must be one of {PARALLELISM_MODES}, "
                         f"got {parallelism!r}")
    return parallelism


def _invoke(function, task, attempt, label):
    """One task execution (runs in the worker for pool backends).

    Module-level for picklability.  Marks the retry attempt for the
    fault registry and enters the ``executor.task`` site, so fault plans
    can target individual (task, attempt) executions.
    """
    with attempt_scope(attempt):
        fault_site("executor.task", label=label)
        return function(task)


class BisectionExecutor:
    """Runs batches of independent bisection tasks on a chosen backend.

    Parameters
    ----------
    parallelism:
        ``"serial"``, ``"thread"``, ``"process"`` or ``"shm"``.
        ``"shm"`` is a process pool whose frontier waves
        travel through shared-memory arenas instead of pickles (see
        :mod:`repro.core.shm`); its generic :meth:`map` path and
        too-small waves fall back to the ordinary pickling pool.
    max_workers:
        Pool size for the thread/process/shm backends; ``None`` uses the
        :mod:`concurrent.futures` default.  Ignored by the serial
        backend.
    task_timeout_seconds:
        Per-task wall-clock budget on the pool backends; ``None`` waits
        forever.  See the module docs for per-backend semantics.
    task_retries:
        Re-executions allowed per failed/timed-out task before
        :class:`ExecutorTaskError`.

    Usable as a context manager; the underlying pool (if any) is created
    lazily on the first :meth:`map` call and shut down on exit, so the pool
    is reused across the recursion levels of one ``recursive_bisection``
    call instead of being respawned per level.  :attr:`stats` counts
    retries, timeouts and pool rebuilds over the executor's lifetime.
    """

    def __init__(self, parallelism: str = "serial", max_workers: int | None = None,
                 task_timeout_seconds: float | None = None, task_retries: int = 2,
                 shm_min_wave_tasks: int = 2, shm_segment_prefix: str = "repro-shm"):
        self.parallelism = resolve_parallelism(parallelism)
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1 when given")
        if task_timeout_seconds is not None and task_timeout_seconds <= 0:
            raise ValueError("task_timeout_seconds must be positive when given")
        if task_retries < 0:
            raise ValueError("task_retries must be non-negative")
        if shm_min_wave_tasks < 1:
            raise ValueError("shm_min_wave_tasks must be at least 1")
        self.max_workers = max_workers
        self.task_timeout_seconds = task_timeout_seconds
        self.task_retries = task_retries
        self.shm_min_wave_tasks = shm_min_wave_tasks
        self.shm_segment_prefix = shm_segment_prefix
        self.stats = ExecutorStats()
        self._pool: ThreadPoolExecutor | ProcessPoolExecutor | None = None

    @classmethod
    def from_execution(cls, execution: "ExecutionConfig") -> "BisectionExecutor":
        """Build an executor from an :class:`~repro.core.ExecutionConfig`."""
        return cls(execution.parallelism, execution.max_workers,
                   task_timeout_seconds=execution.task_timeout_seconds,
                   task_retries=execution.task_retries,
                   shm_min_wave_tasks=execution.shm_min_wave_tasks,
                   shm_segment_prefix=execution.shm_segment_prefix)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "BisectionExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Shut down the worker pool (no-op for the serial backend)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _ensure_pool(self) -> ThreadPoolExecutor | ProcessPoolExecutor:
        if self._pool is None:
            if self.parallelism == "thread":
                self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
            else:
                self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _rebuild_pool(self) -> None:
        """Tear down a broken/hung process pool and forget it.

        Hung workers never come back on their own, so they are killed
        outright; the next :meth:`_ensure_pool` call starts fresh
        workers.  Pending futures of the old pool break and are
        resubmitted by the caller.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self.stats.pool_rebuilds += 1
        logger.warning("rebuilding dead process pool "
                       "(rebuild #%d)", self.stats.pool_rebuilds)
        for process in list(getattr(pool, "_processes", {}).values()):
            process.kill()
        pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------ #
    # Failure accounting
    # ------------------------------------------------------------------ #
    def _note_failure(self, label: str, attempt: int, error: BaseException) -> None:
        """Record one failed execution; raise if the budget is spent."""
        if attempt >= self.task_retries:
            raise ExecutorTaskError(
                f"task {label} failed after {attempt + 1} attempt(s): "
                f"{error}") from error
        self.stats.retries += 1
        logger.warning("task %s failed on attempt %d (%s); retrying",
                       label, attempt, error)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def map(self, function: Callable[[_T], _R], tasks: Sequence[_T] | Iterable[_T],
            labels: Sequence[str] | None = None) -> list[_R]:
        """Apply ``function`` to every task, returning results in task order.

        ``labels`` (optional, parallel to ``tasks``) name the tasks in
        retry logs, :class:`ExecutorTaskError` messages and the
        ``executor.task`` fault site; unnamed tasks get ``"#<index>"``.

        With a single task (the root of the recursion tree, typically the
        most expensive bisection of the whole run) the pool is bypassed to
        avoid pickling the largest subgraph for no concurrency gain.
        """
        tasks = list(tasks)
        if labels is None:
            labels = [f"#{index}" for index in range(len(tasks))]
        else:
            labels = [label if label is not None else f"#{index}"
                      for index, label in enumerate(labels)]
        if self.parallelism == "serial" or len(tasks) <= 1:
            return [self._run_inline(function, task, label)
                    for task, label in zip(tasks, labels)]
        if self.parallelism == "thread":
            return self._map_threads(function, tasks, labels)
        return self._map_processes(function, tasks, labels)

    def _run_inline(self, function, task, label):
        """Run one task in the coordinating process, with inline retries.

        Timeouts are not enforced here — we cannot interrupt our own
        thread — so only raised exceptions are retried.
        """
        attempt = 0
        while True:
            try:
                return _invoke(function, task, attempt, label)
            except Exception as error:  # noqa: BLE001 — retry any task failure
                self._note_failure(label, attempt, error)
                attempt += 1

    def _map_threads(self, function, tasks, labels):
        pool = self._ensure_pool()
        timeout = self.task_timeout_seconds
        futures = [pool.submit(_invoke, function, task, 0, label)
                   for task, label in zip(tasks, labels)]
        attempts = [0] * len(tasks)
        results: list = [None] * len(tasks)
        for index in range(len(tasks)):
            while True:
                try:
                    results[index] = futures[index].result(timeout)
                    break
                except _FuturesTimeout as error:
                    # The hung thread cannot be killed; abandon it (it
                    # unwinds on its own) and race a fresh execution.
                    futures[index].cancel()
                    self.stats.timeouts += 1
                    self._note_failure(
                        labels[index], attempts[index],
                        TimeoutError(f"timed out after {timeout}s") if not
                        str(error) else error)
                    attempts[index] += 1
                    futures[index] = pool.submit(_invoke, function,
                                                 tasks[index],
                                                 attempts[index],
                                                 labels[index])
                except Exception as error:  # noqa: BLE001 — task raised
                    self._note_failure(labels[index], attempts[index], error)
                    attempts[index] += 1
                    futures[index] = pool.submit(_invoke, function,
                                                 tasks[index],
                                                 attempts[index],
                                                 labels[index])
        return results

    def _map_processes(self, function, tasks, labels):
        timeout = self.task_timeout_seconds
        attempts = [0] * len(tasks)
        results: list = [None] * len(tasks)
        done = [False] * len(tasks)

        def submit_pending():
            pool = self._ensure_pool()
            return {index: pool.submit(_invoke, function, tasks[index],
                                       attempts[index], labels[index])
                    for index in range(len(tasks)) if not done[index]}

        def fail_pending(error):
            # One more attempt for every unfinished task: the dead pool
            # took all of their executions with it, and we cannot tell
            # which worker actually crashed or hung.
            for index in range(len(tasks)):
                if not done[index]:
                    self._note_failure(labels[index], attempts[index], error)
                    attempts[index] += 1

        futures = submit_pending()
        index = 0
        while index < len(tasks):
            if done[index]:
                index += 1
                continue
            try:
                results[index] = futures[index].result(timeout)
                done[index] = True
                index += 1
            except _FuturesTimeout:
                self.stats.timeouts += 1
                self._rebuild_pool()
                fail_pending(TimeoutError(
                    f"timed out after {timeout}s (process pool rebuilt)"))
                futures = submit_pending()
            except BrokenProcessPool as error:
                self._rebuild_pool()
                fail_pending(error)
                futures = submit_pending()
            except Exception as error:  # noqa: BLE001 — task raised
                self._note_failure(labels[index], attempts[index], error)
                attempts[index] += 1
                pool = self._ensure_pool()
                futures[index] = pool.submit(_invoke, function, tasks[index],
                                             attempts[index], labels[index])
        return results

    def solve_frontier(self, subproblems: Sequence[_T],
                       run_one: Callable[[_T], np.ndarray],
                       labels: Sequence[str] | None = None) -> list[np.ndarray]:
        """Solve one wave of bisection subproblems on the configured backend.

        ``subproblems`` are records with ``subgraph``, ``weights``,
        ``epsilon``, ``config`` and ``target_fraction`` fields.  The shm
        backend packs the wave into one shared-memory arena and
        drives the process pool with task coordinates only
        (:func:`~repro.core.shm.solve_frontier_shm` — the retry/timeout/
        pool-rebuild machinery of :meth:`_map_processes` applies
        unchanged); the other backends map ``run_one`` over the tasks.
        Either way the per-task local assignments come back in task
        order and are bit-identical across backends (the
        deterministic-seeding contract).
        """
        subproblems = list(subproblems)
        if not subproblems:
            return []
        if self.parallelism == "shm":
            from .shm import solve_frontier_shm, wave_is_shm_packable

            if (len(subproblems) >= self.shm_min_wave_tasks
                    and wave_is_shm_packable(subproblems)):
                if labels is None:
                    labels = [f"#{index}" for index in range(len(subproblems))]
                return solve_frontier_shm(self, subproblems, labels)
            # Tiny waves (typically the root task) and tasks carrying
            # solver state fall through to the ordinary task path below
            # — same results, no arena overhead.
        return self.map(run_one, subproblems, labels=labels)
