"""Zero-copy shared-memory execution of recursion-tree walks.

A plain process pool pays for its parallelism twice per task: the
coordinator pickles the task's induced subgraph and weight slice into the
pipe, and the worker unpickles them into fresh heap copies.  For the
wave-at-a-time scheduler (:func:`repro.core.recursive.walk_tree`, which
runs full solves and churn repairs alike) that cost is pure overhead:
every task of a walk reads the same input graph and weights, and a task
is fully named by its vertex set and its recursion-tree coordinate.

The ``"shm"`` backend shares the walk instead.  On a walk's first wave
of two or more tasks the coordinator packs one
:class:`multiprocessing.shared_memory` segment (a
:class:`SharedGraphArena`, see :func:`pack_walk`) holding the input
graph's CSR (no edge list), the weight matrix, a per-vertex id buffer
and a per-vertex output buffer, plus a repair walk's starting
assignment and free mask; the pickled header carries the per-level
epsilon and the workers' config.  Per wave the coordinator refills only
the id buffer with the tasks' vertex sets, back to back.  What crosses
the pipe per task is a :class:`ShmTaskRef` (segment name, id range and
tree coordinate) and, back, a completion token that is one flag: whether the
worker attached the segment for this task.  Workers attach the segment
once per walk, rebuild the walk on read-only views into it, run
:func:`~repro.core.recursive.solve_group` (the task function the serial
backend runs a whole wave through in process) on one task at a time —
a group of one — and write each task's sides into the output buffer at
the task's own vertex ids; the sides are all a task hands back.

Determinism: the worker runs the same task function on the same bits
(the arena's weight matrix is C-contiguous, the layout the stepper gives
every weight matrix anyway), and every task is seeded by its recursion
coordinate, so ``"shm"`` output is bit-identical to the serial
backend's.

Lifecycle: a walk's segment is unlinked when the walk returns or raises
(:meth:`~repro.core.executor.BisectionExecutor.end_walk`).  The creating
process also records every owned segment in a registry that is drained
by an ``atexit`` hook and a chained ``SIGTERM`` handler (installed only
when no handler is set), so segments never outlive the run, including
after worker crashes and pool rebuilds, because only the coordinator
ever unlinks.  Workers attach without resource-tracker registration (the
tracker would otherwise unlink the segment when a crashed worker is
reaped out from under the coordinator).

Internal module: not part of the stable public API (see ``repro.__all__``); its contents may change between releases.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import signal
import struct
import sys
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..graphs.graph import Graph
from .checkpoint import TaskState

if TYPE_CHECKING:
    from .recursive import Walk

__all__ = [
    "SharedGraphArena",
    "ShmStats",
    "ShmTaskRef",
    "pack_walk",
    "run_walk_task",
]

_ALIGNMENT = 64
_HEADER_PREFIX = struct.Struct("<Q")
_PICKLE = pickle.HIGHEST_PROTOCOL

#: Segments created (and therefore owned) by this process, keyed by name.
_OWNED: dict[str, "SharedGraphArena"] = {}
_OWNED_LOCK = threading.Lock()
_CLEANUP_INSTALLED = False
_SEGMENT_COUNTER = itertools.count()

#: The walk segment this *worker* process is attached to and the walk
#: rebuilt on it (workers run many tasks of the same walk; attaching once
#: per walk is the whole point).  Replaced when a task of a newer walk
#: arrives.
_WORKER_WALK: "tuple[SharedGraphArena, Walk] | None" = None


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def _cleanup_owned() -> None:
    """Unlink every segment this process still owns (atexit/signal path)."""
    with _OWNED_LOCK:
        arenas = list(_OWNED.values())
    for arena in arenas:
        arena.unlink()


def _install_cleanup() -> None:
    """Arm the never-leak-a-segment hooks (once per process).

    ``atexit`` covers normal interpreter shutdown and ``KeyboardInterrupt``
    unwinding.  ``SIGTERM`` is chained only when no handler is installed:
    a host that manages its own signals (the serve stack does) keeps
    full control and its orderly shutdown reaches ``atexit`` anyway.
    """
    global _CLEANUP_INSTALLED
    if _CLEANUP_INSTALLED:
        return
    _CLEANUP_INSTALLED = True
    atexit.register(_cleanup_owned)
    try:
        if (signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
                and threading.current_thread() is threading.main_thread()):
            def _on_term(signum, frame):
                _cleanup_owned()
                signal.signal(signum, signal.SIG_DFL)
                os.kill(os.getpid(), signum)

            signal.signal(signal.SIGTERM, _on_term)
    except (ValueError, OSError):  # non-main thread / restricted platform
        pass


def _next_segment_name() -> str:
    # Pid + counter keeps concurrent runs and successive walks apart while
    # staying far below the 31-character POSIX name floor.
    return f"repro-shm-{os.getpid()}-{next(_SEGMENT_COUNTER)}"


class SharedGraphArena:
    """One shared-memory segment of named numpy arrays.

    Layout: an 8-byte header length, the pickled header (array offsets,
    dtypes, shapes and an arbitrary ``meta`` dict), then the 64-byte
    aligned array data.  The owner builds it with :meth:`create`; workers
    :meth:`attach` by name and read the same physical pages.

    :meth:`close` unmaps the segment in this process.  Only the owner may
    :meth:`unlink`; doing so also deregisters the arena from the
    process-wide cleanup registry.
    """

    def __init__(self, segment: shared_memory.SharedMemory, *, owner: bool,
                 header: dict, data_start: int):
        self._segment = segment
        self._owner = owner
        self._header = header
        self._data_start = data_start
        self._creator_pid = os.getpid() if owner else None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, arrays: dict[str, np.ndarray],
               meta: dict | None = None) -> "SharedGraphArena":
        """Create a segment holding copies of ``arrays`` plus ``meta``."""
        contiguous = {key: np.ascontiguousarray(value)
                      for key, value in arrays.items()}
        entries: dict[str, tuple[int, str, tuple[int, ...]]] = {}
        offset = 0
        for key, array in contiguous.items():
            offset = _align(offset)
            entries[key] = (offset, str(array.dtype), array.shape)
            offset += array.nbytes
        header = {"arrays": entries, "meta": meta if meta is not None else {}}
        blob = pickle.dumps(header, protocol=_PICKLE)
        data_start = _align(_HEADER_PREFIX.size + len(blob))
        total = max(1, data_start + offset)
        segment = shared_memory.SharedMemory(
            name=_next_segment_name(), create=True, size=total)
        segment.buf[:_HEADER_PREFIX.size] = _HEADER_PREFIX.pack(len(blob))
        segment.buf[_HEADER_PREFIX.size:_HEADER_PREFIX.size + len(blob)] = blob
        arena = cls(segment, owner=True, header=header, data_start=data_start)
        for key, array in contiguous.items():
            np.copyto(arena.array(key), array)
        with _OWNED_LOCK:
            _OWNED[arena.name] = arena
        _install_cleanup()
        return arena

    @classmethod
    def attach(cls, name: str) -> "SharedGraphArena":
        """Attach to an existing segment by name (zero-copy).

        On 3.13+ the attach opts out of resource tracking
        (``track=False``): only the owner manages the segment's life.
        Before 3.13 every ``SharedMemory(name=...)`` re-registers the
        name with the resource tracker — harmless here, because pool
        workers share the coordinator's tracker process (fork and spawn
        both inherit it) and its cache is a set: the attach-time
        register is a no-op and the owner's unlink removes the single
        entry.  Crucially the attacher must *not* unregister: doing so
        would strip the owner's registration from the shared cache.
        """
        if sys.version_info >= (3, 13):
            segment = shared_memory.SharedMemory(name=name, track=False)
        else:
            segment = shared_memory.SharedMemory(name=name)
        (length,) = _HEADER_PREFIX.unpack_from(segment.buf, 0)
        start = _HEADER_PREFIX.size
        header = pickle.loads(bytes(segment.buf[start:start + length]))
        return cls(segment, owner=False, header=header,
                   data_start=_align(start + length))

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self._segment.name.lstrip("/")

    @property
    def nbytes(self) -> int:
        return self._segment.size

    @property
    def meta(self) -> dict:
        return self._header["meta"]

    def array(self, key: str) -> np.ndarray:
        """A numpy view of the named array (no copy; writable)."""
        offset, dtype, shape = self._header["arrays"][key]
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        view = np.frombuffer(self._segment.buf, dtype=np.dtype(dtype),
                             count=count, offset=self._data_start + offset)
        return view.reshape(shape)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Unmap the segment in this process (no-op once closed)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._segment.close()
        except BufferError:
            # A live numpy view still pins the mapping; the pages are
            # released when the view dies (or at process exit).  Never
            # fatal — the name is gone once the owner unlinks.
            pass

    def unlink(self) -> None:
        """Owner only: close the mapping and remove the segment name."""
        if not self._owner:
            raise RuntimeError("only the creating process may unlink an arena")
        if self._creator_pid != os.getpid():
            # A forked child inherited the registry; the coordinator still
            # needs the segment, so the child must never destroy it.
            return
        with _OWNED_LOCK:
            _OWNED.pop(self.name, None)
        self.close()
        try:
            self._segment.unlink()
        except FileNotFoundError:
            pass


# ---------------------------------------------------------------------- #
# Walk packing (coordinator side)
# ---------------------------------------------------------------------- #
class ShmTaskRef(NamedTuple):
    """What crosses the pipe per task: coordinates, not data.

    ``start:stop`` is the task's range of the arena's vertex-id buffer;
    ``num_parts``, ``first_part`` and ``depth`` are its recursion-tree
    coordinate.
    """

    segment: str
    start: int
    stop: int
    num_parts: int
    first_part: int
    depth: int


def pack_walk(walk: "Walk") -> SharedGraphArena:
    """Pack one walk into a fresh shared arena.

    Arrays (all 64-byte aligned within the segment): the input graph's
    CSR, ``indptr`` and ``indices`` (no edge list: a worker's tasks never
    read one); ``weights``, C-contiguous;
    ``vertex_ids``, one int64 slot per vertex, which every wave refills
    with its tasks' vertex sets back to back; ``out``, one int8 slot per
    vertex, where each task writes its sides at its own vertex ids; and
    for a repair walk ``assignment`` and ``free``.  The header's ``meta``
    carries the per-level ``epsilon`` and the workers' ``config``.
    """
    graph = walk.graph
    arrays = {"indptr": graph.indptr, "indices": graph.indices, "weights": walk.weights,
              "vertex_ids": np.zeros(graph.num_vertices, dtype=np.int64),
              "out": np.zeros(graph.num_vertices, dtype=np.int8)}
    if walk.free is not None:
        arrays["assignment"] = walk.assignment
        arrays["free"] = walk.free
    meta = {"epsilon": walk.epsilon, "config": walk.config, "repair": walk.free is not None}
    return SharedGraphArena.create(arrays, meta)


# ---------------------------------------------------------------------- #
# Worker side
# ---------------------------------------------------------------------- #
def _readonly(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


def _attach_walk(name: str) -> tuple[SharedGraphArena, "Walk", bool]:
    """Attach (or reuse) the walk segment in this worker process.

    Returns the arena, the walk rebuilt on read-only views into it, and
    whether this call attached a fresh segment (the token workers send
    back so the coordinator can count attaches).
    """
    # recursive.py imports this module through the executor.
    from .recursive import Walk

    global _WORKER_WALK
    if _WORKER_WALK is not None and _WORKER_WALK[0].name == name:
        return (*_WORKER_WALK, False)
    if _WORKER_WALK is not None:
        previous, _WORKER_WALK = _WORKER_WALK[0], None
        previous.close()
    arena = SharedGraphArena.attach(name)
    indptr, indices, weights = (_readonly(arena.array(key))
                                for key in ("indptr", "indices", "weights"))
    meta = arena.meta
    walk = Walk(graph=Graph.from_csr(indptr.shape[0] - 1, indptr, indices),
                weights=weights, epsilon=meta["epsilon"], config=meta["config"],
                assignment=_readonly(arena.array("assignment")) if meta["repair"] else None,
                free=_readonly(arena.array("free")) if meta["repair"] else None)
    _WORKER_WALK = (arena, walk)
    return arena, walk, True


def run_walk_task(ref: ShmTaskRef) -> bool:
    """Worker entry point: solve one task of the walk in place.

    Rebuilds the task from its id range and coordinate, runs
    :func:`~repro.core.recursive.solve_group` on the attached walk with
    this one task (a group of one) and writes the sides into the shared
    output buffer at the task's vertex ids.  Returns the completion
    token: whether this call attached the segment.  Idempotent: a
    retried task (pool rebuild, injected crash) recomputes the same
    deterministic values and overwrites its own slots.
    """
    from .recursive import solve_group

    arena, walk, attached = _attach_walk(ref.segment)
    task = TaskState(vertex_ids=_readonly(arena.array("vertex_ids")[ref.start:ref.stop]),
                     num_parts=ref.num_parts, first_part=ref.first_part, depth=ref.depth)
    (sides,) = solve_group(walk, [task])
    arena.array("out")[task.vertex_ids] = sides
    return attached


# ---------------------------------------------------------------------- #
# Stats
# ---------------------------------------------------------------------- #
@dataclass
class ShmStats:
    """Shared-memory counters of one executor's lifetime.

    ``segments_created`` counts the walks that had a pooled wave (one
    segment each), ``bytes_shared`` their segments' sizes, ``waves`` and
    ``tasks`` the pooled waves and their tasks, and ``payload_bytes`` the
    pickled task refs that crossed the pipe.
    """

    waves: int = 0
    tasks: int = 0
    segments_created: int = 0
    attaches: int = 0
    bytes_shared: int = 0
    payload_bytes: int = 0

    @property
    def payload_bytes_per_task(self) -> float:
        """Mean pickled bytes per dispatched task (the O(coordinates) claim)."""
        return self.payload_bytes / self.tasks if self.tasks else 0.0

    def as_dict(self) -> dict:
        """JSON-friendly summary."""
        return {
            "waves": self.waves,
            "tasks": self.tasks,
            "segments_created": self.segments_created,
            "attaches": self.attaches,
            "bytes_shared": self.bytes_shared,
            "payload_bytes": self.payload_bytes,
            "payload_bytes_per_task": self.payload_bytes_per_task,
        }
