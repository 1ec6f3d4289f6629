"""Execution backends for the recursive-bisection scheduler.

The ``⌈log₂ k⌉``-level recursion tree of :func:`repro.core.recursive_bisection`
contains, at every level, a frontier of bisection tasks that touch
disjoint vertex sets and are therefore fully independent.
:class:`BisectionExecutor` is the small abstraction that runs one such
frontier, on one of two backends chosen by
:attr:`ExecutionConfig.parallelism`.  Both run the same task function,
:func:`repro.core.recursive.solve_group`: ``"serial"`` in the
coordinating process, on the whole wave at once as one lock-step group
(one GD iteration body steps every task of the wave together); ``"shm"``
on a process pool, one task — a group of one — per submission, sharing
the whole walk zero-copy through one :mod:`multiprocessing.shared_memory`
arena so that only task coordinates cross the pipe (see
:mod:`repro.core.shm`).

Two properties the scheduler relies on:

* **Order preservation** — :meth:`BisectionExecutor.map` returns results in
  task-submission order regardless of completion order, so the caller can
  zip results back onto its task list.
* **Determinism** — the executor never injects randomness; combined with
  per-task seeds derived from the task's *position in the recursion tree*
  (see :func:`task_seed`), both backends produce bit-identical partitions
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

* **shm** — a timed-out or crashed worker breaks the whole pool
  (:class:`~concurrent.futures.process.BrokenProcessPool`, or a hang we
  can only resolve by killing the worker).  The executor kills the
  remaining workers, rebuilds the pool, and resubmits every unfinished
  task; each re-execution counts as one more attempt for all of them.
  A pool that breaks under ``submit`` (a worker died while tasks were
  being resubmitted) is handled the same way.
* **serial / single-task waves** — run in the coordinating
  process, a wave as one group: exceptions are retried inline, and a
  failure retries the whole group, charged to the task that failed; but
  timeouts are not enforced (we cannot interrupt our own thread).

Each execution enters the fault-injection site ``"executor.task"`` with
the task's label and its retry attempt
(:func:`repro.faults.attempt_scope`) — once per task, also when a group
runs its tasks together — so seeded chaos plans can kill or hang one
specific task of one specific wave and the default ``attempt=0`` keying
makes the retry succeed.

Worker processes must be able to import :mod:`repro`; when the
multiprocessing start method is ``spawn`` (the default on macOS/Windows) this
means ``src`` has to be on ``PYTHONPATH`` — on Linux the default ``fork``
start method inherits the parent's ``sys.path``.

Internal module: not part of the stable public API (see ``repro.__all__``); its contents may change between releases.
"""

from __future__ import annotations

import functools
import logging
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

import numpy as np

from ..faults import attempt_scope, fault_site
from .checkpoint import TaskState
from .config import ExecutionConfig
from .shm import ShmStats, WalkArena

if TYPE_CHECKING:
    from .recursive import Walk

__all__ = [
    "BisectionExecutor",
    "ExecutorStats",
    "ExecutorTaskError",
    "task_seed",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

logger = logging.getLogger("repro.executor")


class ExecutorTaskError(RuntimeError):
    """A task failed (or timed out) on every allowed attempt."""


@dataclass
class ExecutorStats:
    """Counters of the resilience machinery (one executor's lifetime).

    ``shm`` aggregates the shared-memory backend's counters: pooled waves
    and tasks, segments created (one per walk), worker attaches, bytes
    shared and the pickled bytes per task (see
    :class:`~repro.core.shm.ShmStats`).  Empty for the serial backend.
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
      which is what makes serial and shm execution agree bit for bit,
      and retried tasks replay bit-identical work.
    """
    sequence = np.random.SeedSequence(base_seed, spawn_key=(depth, first_part))
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def _invoke(function, task, attempt, label):
    """One task execution (runs in the worker on the shm pool).

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
    execution:
        The :class:`~repro.core.ExecutionConfig` to run on (backend,
        worker count, per-task timeout and retry budget); ``None`` uses
        the default, serial one.  The config checked every field when it
        was built, so the executor does not check them again.

    Usable as a context manager; the process pool of the ``"shm"``
    backend is created lazily on the first pooled wave and shut down on
    exit, so it is reused across the recursion levels of a walk (and
    across the walks of a caller-owned executor) instead of being
    respawned per level.  Each walk with a pooled wave gets one arena,
    released by :meth:`end_walk`.  A task hands back only its sides
    (:meth:`solve_frontier`): no solver state outlives a task, so the
    executor holds none between waves or walks.  :attr:`stats` counts
    retries, timeouts, pool rebuilds and the shared-memory traffic over
    the executor's lifetime.
    """

    def __init__(self, execution: ExecutionConfig | None = None):
        self.execution = execution if execution is not None else ExecutionConfig()
        self.stats = ExecutorStats()
        self._pool: ProcessPoolExecutor | None = None
        self._arena: WalkArena | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "BisectionExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Release the walk's arena and shut down the worker pool (no-op
        if neither exists)."""
        self.end_walk()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.execution.max_workers)
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
        if attempt >= self.execution.task_retries:
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
        if self.execution.parallelism == "serial" or len(tasks) <= 1:
            return [self._run_inline(functools.partial(function, task), [label])
                    for task, label in zip(tasks, labels)]
        return self._map_processes(function, tasks, labels)

    def _run_inline(self, run: Callable[[], _R], labels: Sequence[str]) -> _R:
        """Run ``run()``, the work of the tasks named by ``labels``, in the
        coordinating process, with inline retries.

        Every execution first enters the ``executor.task`` site once per
        task, under the task's label and the execution's attempt.  A
        failure retries the whole call and is charged to the task whose
        site raised; a failure of ``run()`` itself is charged to the
        first task.  Timeouts are not enforced here — we cannot interrupt
        our own thread — so only raised exceptions are retried.
        """
        attempt = 0
        while True:
            try:
                with attempt_scope(attempt):
                    for label in labels:
                        fault_site("executor.task", label=label)
                    label = labels[0]
                    return run()
            except Exception as error:  # noqa: BLE001 — retry any task failure
                self._note_failure(label, attempt, error)
                attempt += 1

    def _map_processes(self, function, tasks, labels):
        timeout = self.execution.task_timeout_seconds
        attempts = [0] * len(tasks)
        results: list = [None] * len(tasks)
        # Futures of the submitted, unfinished tasks; results are taken in
        # task order, so tasks[index:] are the unfinished ones.
        futures: dict = {}

        def fail_pending(error):
            # One more attempt for every unfinished task: the dead pool
            # took all of their executions with it, and we cannot tell
            # which worker actually crashed or hung.
            for pending in range(index, len(tasks)):
                self._note_failure(labels[pending], attempts[pending], error)
                attempts[pending] += 1
            futures.clear()

        index = 0
        while index < len(tasks):
            try:
                # (Re)submit inside the try: a worker that dies while tasks
                # are being submitted breaks the pool under ``submit``, and
                # that is handled like any other broken pool.
                for pending in range(index, len(tasks)):
                    if pending not in futures:
                        futures[pending] = self._ensure_pool().submit(
                            _invoke, function, tasks[pending], attempts[pending],
                            labels[pending])
                results[index] = futures.pop(index).result(timeout)
                index += 1
            except _FuturesTimeout:
                self.stats.timeouts += 1
                self._rebuild_pool()
                fail_pending(TimeoutError(
                    f"timed out after {timeout}s (process pool rebuilt)"))
            except BrokenProcessPool as error:
                self._rebuild_pool()
                fail_pending(error)
            except Exception as error:  # noqa: BLE001 — task raised
                self._note_failure(labels[index], attempts[index], error)
                attempts[index] += 1
        return results

    def solve_frontier(self, walk: Walk, tasks: Sequence[TaskState]) -> list[np.ndarray]:
        """Solve one wave of a walk of the recursion tree.

        Every task runs through :func:`~repro.core.recursive.solve_group`
        on ``walk``.  The serial backend, and a wave of one task, run the
        whole wave in process as one lock-step group (:meth:`_run_inline`:
        each task still enters the ``executor.task`` fault site under its
        own label, and a failure retries the group).  On the shm backend a
        wave of two or more tasks runs on the process pool, one task — a
        group of one — per submission: the walk is packed into one
        shared-memory arena on its first such wave and only each task's
        coordinates cross the pipe (:class:`~repro.core.shm.WalkArena`;
        the retry/timeout/pool-rebuild machinery of :meth:`_map_processes`
        applies unchanged).  Either way one sides array per task comes
        back in task order, bit-identical across backends (the
        deterministic-seeding contract).  :meth:`end_walk` releases the
        arena.
        """
        # recursive.py imports this module, so the task function is bound late.
        from .recursive import solve_group

        if not tasks:
            return []
        labels = [f"depth={task.depth}/part={task.first_part}" for task in tasks]
        if self.execution.parallelism == "shm" and len(tasks) > 1:
            if self._arena is None or self._arena.walk is not walk:
                self.end_walk()
                self._arena = WalkArena(walk, self)
            return self._arena.solve_wave(self, tasks, labels)
        return self._run_inline(lambda: solve_group(walk, tasks), labels)

    def end_walk(self) -> None:
        """Unlink the current walk's shared-memory arena (no-op if none)."""
        arena, self._arena = self._arena, None
        if arena is not None:
            arena.unlink()
