"""Zero-copy shared-memory execution of bisection frontiers.

A plain process pool pays for its parallelism twice per task: the
coordinator pickles the task's induced subgraph and weight slice into the
pipe, and the worker unpickles them into fresh heap copies.  For the
wave-at-a-time scheduler (:func:`repro.core.recursive.walk_tree`, which
runs full solves and churn repairs alike) that cost is pure overhead —
every task of a wave is already materialized in the coordinator, and the
workers only ever *read* the graph data.

The ``"shm"`` backend removes the copies.  Per wave the coordinator packs
one :class:`multiprocessing.shared_memory` segment — a
:class:`SharedGraphArena` — holding the concatenated CSR structure
(``indptr``/``indices``), edge lists, weight matrices and an output
buffer of every task — and, for a repair's warm wave, every task's
initial sides and fixed mask — plus a pickled header with the per-task
offsets, epsilons, target fractions, seeded configs and warm
multipliers.  Workers attach the segment once per wave (cached across
tasks; the previous wave's segment is released on the first task of the
next), rebuild each task's :class:`~repro.graphs.Graph` as read-only
views into the segment, run byte-for-byte the serial ``gd_bisect`` path,
and write the local sides into the shared output buffer.  The only
things crossing the pipe are a :class:`ShmTaskRef` — segment name + task
index, O(coordinates) — and a small completion token carrying the task's
exported multipliers.

Determinism: the configs packed into the header already carry their
recursion-coordinate seeds (derived upstream by
``task_seed(config.seed, depth, first_part)``), the per-task weight
blocks are stored C-contiguously — the layout the stepper gives every
weight matrix on the serial path too — and the worker runs the identical
``gd_bisect`` code, so ``"shm"`` output is bit-identical to the serial
backend's.

Lifecycle: segments are refcounted per process; the creating process
records every owned segment in a registry that is drained by an
``atexit`` hook and a chained ``SIGTERM`` handler (installed only when
no handler is set), so segments never outlive the run — including after
worker crashes and pool rebuilds, because only the coordinator ever
unlinks.  Workers attach without resource-tracker registration (the
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
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from ..graphs.graph import Graph
from .gd import gd_bisect

__all__ = [
    "SharedGraphArena",
    "ShmStats",
    "ShmTaskRef",
    "ShmWaveStats",
    "pack_wave",
    "solve_frontier_shm",
]

_ALIGNMENT = 64
_HEADER_PREFIX = struct.Struct("<Q")
_PICKLE = pickle.HIGHEST_PROTOCOL

#: Segments created (and therefore owned) by this process, keyed by name.
_OWNED: dict[str, "SharedGraphArena"] = {}
_OWNED_LOCK = threading.Lock()
_CLEANUP_INSTALLED = False
_SEGMENT_COUNTER = itertools.count()

#: The one wave segment this *worker* process is attached to (workers
#: process many tasks of the same wave; attaching once per wave is the
#: whole point).  Replaced when a task of a newer wave arrives.
_WORKER_ARENA: "SharedGraphArena | None" = None


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


def _next_segment_name(prefix: str) -> str:
    # Pid + counter keeps concurrent runs and successive waves apart while
    # staying far below the 31-character POSIX name floor.
    return f"{prefix}-{os.getpid()}-{next(_SEGMENT_COUNTER)}"


class SharedGraphArena:
    """One refcounted shared-memory segment of named numpy arrays.

    Layout: an 8-byte header length, the pickled header (array offsets,
    dtypes, shapes and an arbitrary ``meta`` dict), then the 64-byte
    aligned array data.  The owner builds it with :meth:`create`; workers
    :meth:`attach` by name and read the same physical pages.

    Reference counting is per process: :meth:`acquire` / :meth:`close`
    bracket users of the mapping, and the segment is closed when the
    count reaches zero.  Only the owner may :meth:`unlink`; doing so also
    deregisters the arena from the process-wide cleanup registry.
    """

    def __init__(self, segment: shared_memory.SharedMemory, *, owner: bool,
                 header: dict, data_start: int):
        self._segment = segment
        self._owner = owner
        self._header = header
        self._data_start = data_start
        self._refs = 1
        self._creator_pid = os.getpid() if owner else None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, arrays: dict[str, np.ndarray], meta: dict | None = None,
               *, prefix: str = "repro-shm") -> "SharedGraphArena":
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
            name=_next_segment_name(prefix), create=True, size=total)
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
    def acquire(self) -> "SharedGraphArena":
        """Take one more reference to the mapping."""
        self._refs += 1
        return self

    def close(self) -> None:
        """Drop one reference; unmaps the segment at zero."""
        self._refs -= 1
        if self._refs > 0 or self._closed:
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
        self._refs = min(self._refs, 1)
        self.close()
        try:
            self._segment.unlink()
        except FileNotFoundError:
            pass


# ---------------------------------------------------------------------- #
# Wave packing (coordinator side)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShmTaskRef:
    """What actually crosses the pipe per task: a coordinate, not data."""

    segment: str
    index: int


def pack_wave(subproblems: Sequence, *,
              prefix: str = "repro-shm") -> tuple[SharedGraphArena, np.ndarray]:
    """Pack one wave of subproblems into a fresh shared arena.

    Returns the owned arena and the per-task vertex offsets into the
    concatenated buffers.  Array layout (all 64-byte aligned within the
    segment):

    ``indptr``
        Every task's CSR ``indptr`` back to back (task ``i`` spans
        ``indptr_offsets[i] : indptr_offsets[i] + n_i + 1``).
    ``indices`` / ``edges``
        Concatenated adjacency lists and canonical edge arrays.
    ``weights``
        Per-task ``(d_i, n_i)`` blocks flattened C-contiguously — the
        layout :class:`~repro.core.gd.BisectionStepper` gives every
        weight matrix it takes (the serial path's ``weights[:, mapping]``
        slices are Fortran-ordered and copied to C order there), which
        keeps reductions bit-identical.
    ``out``
        One int8 slot per vertex of the wave; workers write their local
        0/1 sides here.
    ``initial_x`` / ``initial_fixed``
        Warm waves only (a repair's, see
        :func:`~repro.core.recursive.walk_tree`): every task's initial
        sides (float64) and fixed mask, one entry per vertex of the wave.

    The header's ``meta`` carries the per-task epsilons, target
    fractions and (already seeded) configs — and a warm wave's per-task
    multipliers (``warm_lambdas``) — so nothing per-task needs to be
    pickled again at dispatch time.  A wave is either all cold or all
    warm.
    """
    tasks = list(subproblems)
    warm = [task.initial_x is not None for task in tasks]
    if any(warm) and not all(warm):
        raise ValueError("a wave must be either all cold or all warm")
    counts = np.array([task.subgraph.num_vertices for task in tasks], dtype=np.int64)
    vertex_offsets = np.zeros(len(tasks) + 1, dtype=np.int64)
    np.cumsum(counts, out=vertex_offsets[1:])
    indptr_lengths = counts + 1
    indptr_offsets = np.zeros(len(tasks) + 1, dtype=np.int64)
    np.cumsum(indptr_lengths, out=indptr_offsets[1:])
    adjacency_lengths = np.array([task.subgraph.indices.shape[0] for task in tasks],
                                 dtype=np.int64)
    adjacency_offsets = np.zeros(len(tasks) + 1, dtype=np.int64)
    np.cumsum(adjacency_lengths, out=adjacency_offsets[1:])
    edge_counts = np.array([task.subgraph.num_edges for task in tasks], dtype=np.int64)
    edge_offsets = np.zeros(len(tasks) + 1, dtype=np.int64)
    np.cumsum(edge_counts, out=edge_offsets[1:])
    weight_lengths = np.array([task.weights.size for task in tasks], dtype=np.int64)
    weight_offsets = np.zeros(len(tasks) + 1, dtype=np.int64)
    np.cumsum(weight_lengths, out=weight_offsets[1:])

    def _concat(parts, dtype, width=None):
        if not parts:
            shape = (0,) if width is None else (0, width)
            return np.empty(shape, dtype=dtype)
        return np.concatenate([np.asarray(part, dtype=dtype) for part in parts])

    arrays = {
        "indptr": _concat([task.subgraph.indptr for task in tasks], np.int64),
        "indices": _concat([task.subgraph.indices for task in tasks], np.int64),
        "edges": _concat([task.subgraph.edges for task in tasks], np.int64, width=2),
        "weights": _concat([np.ascontiguousarray(task.weights).ravel()
                            for task in tasks], np.float64),
        "out": np.zeros(int(vertex_offsets[-1]), dtype=np.int8),
    }
    meta = {
        "num_tasks": len(tasks),
        "counts": counts,
        "dims": np.array([task.weights.shape[0] for task in tasks], dtype=np.int64),
        "vertex_offsets": vertex_offsets,
        "indptr_offsets": indptr_offsets,
        "adjacency_offsets": adjacency_offsets,
        "edge_offsets": edge_offsets,
        "weight_offsets": weight_offsets,
        "epsilons": [float(task.epsilon) for task in tasks],
        "target_fractions": [float(task.target_fraction) for task in tasks],
        # Seeds were derived upstream from each task's (depth, part)
        # recursion coordinate; the configs ship them into the workers.
        "configs": [task.config for task in tasks],
    }
    if any(warm):
        arrays["initial_x"] = _concat([task.initial_x for task in tasks], np.float64)
        arrays["initial_fixed"] = _concat([task.initial_fixed for task in tasks], np.bool_)
        meta["warm_lambdas"] = [task.warm_lambdas for task in tasks]
    arena = SharedGraphArena.create(arrays, meta, prefix=prefix)
    return arena, vertex_offsets


# ---------------------------------------------------------------------- #
# Worker side
# ---------------------------------------------------------------------- #
def _attach_wave(name: str) -> tuple[SharedGraphArena, bool]:
    """Attach (or reuse) the wave segment in this worker process.

    Returns the arena and whether this call attached a fresh segment —
    the token workers send back so the coordinator can count attaches.
    """
    global _WORKER_ARENA
    if _WORKER_ARENA is not None and _WORKER_ARENA.name == name:
        return _WORKER_ARENA, False
    if _WORKER_ARENA is not None:
        _WORKER_ARENA.close()
    _WORKER_ARENA = SharedGraphArena.attach(name)
    return _WORKER_ARENA, True


def _readonly(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


def _run_shm_task(ref: ShmTaskRef) -> tuple[int, bool, dict[int, float] | None]:
    """Worker entry point: solve one task of the wave entirely in place.

    Rebuilds the task's graph, weights and (warm waves) initial sides and
    fixed mask as read-only zero-copy views into the shared segment, runs
    the serial ``gd_bisect`` path, and writes the local sides into the
    shared output buffer; the exported multipliers ride back in the
    token.  Idempotent: a retried task (pool rebuild, injected crash)
    recomputes the same deterministic values and overwrites its own
    slice.
    """
    arena, attached = _attach_wave(ref.segment)
    meta = arena.meta
    i = ref.index
    n = int(meta["counts"][i])
    d = int(meta["dims"][i])
    vo = int(meta["vertex_offsets"][i])
    io = int(meta["indptr_offsets"][i])
    ao = int(meta["adjacency_offsets"][i])
    eo = int(meta["edge_offsets"][i])
    wo = int(meta["weight_offsets"][i])

    indptr = _readonly(arena.array("indptr")[io:io + n + 1])
    adjacency_end = ao + int(indptr[-1]) if n else ao
    indices = _readonly(arena.array("indices")[ao:adjacency_end])
    edges = _readonly(arena.array("edges")[eo:int(meta["edge_offsets"][i + 1])])
    weights = _readonly(arena.array("weights")[wo:wo + d * n].reshape(d, n))
    graph = Graph.from_csr(n, edges, indptr, indices)
    warm_start = {}
    if "warm_lambdas" in meta:
        warm_start = {"initial_x": _readonly(arena.array("initial_x")[vo:vo + n]),
                      "initial_fixed": _readonly(arena.array("initial_fixed")[vo:vo + n]),
                      "warm_lambdas": meta["warm_lambdas"][i]}

    result = gd_bisect(graph, weights, meta["epsilons"][i], meta["configs"][i],
                       target_fraction=meta["target_fractions"][i], **warm_start)
    arena.array("out")[vo:vo + n] = result.partition.assignment.astype(np.int8)
    return i, attached, result.warm_lambdas


# ---------------------------------------------------------------------- #
# Stats
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShmWaveStats:
    """What one wave shipped through shared memory instead of the pipe."""

    tasks: int
    segment_bytes: int
    #: Pickled bytes that actually crossed the pipe (all task refs).
    payload_bytes: int
    #: Pickled bytes a plain process pool would have shipped instead.
    pickled_bytes_avoided: int
    #: Fresh segment attaches reported by the workers.
    attaches: int


@dataclass
class ShmStats:
    """Aggregated shared-memory counters of one executor's lifetime."""

    waves: int = 0
    tasks: int = 0
    segments_created: int = 0
    attaches: int = 0
    bytes_shared: int = 0
    payload_bytes: int = 0
    pickled_bytes_avoided: int = 0
    per_wave: list[ShmWaveStats] = field(default_factory=list)

    def record_wave(self, wave: ShmWaveStats) -> None:
        self.waves += 1
        self.tasks += wave.tasks
        self.segments_created += 1
        self.attaches += wave.attaches
        self.bytes_shared += wave.segment_bytes
        self.payload_bytes += wave.payload_bytes
        self.pickled_bytes_avoided += wave.pickled_bytes_avoided
        self.per_wave.append(wave)

    @property
    def payload_bytes_per_task(self) -> float:
        """Mean pickled bytes per dispatched task (the O(coordinates) claim)."""
        return self.payload_bytes / self.tasks if self.tasks else 0.0

    def as_dict(self) -> dict:
        """JSON-friendly summary (per-wave detail included)."""
        return {
            "waves": self.waves,
            "tasks": self.tasks,
            "segments_created": self.segments_created,
            "attaches": self.attaches,
            "bytes_shared": self.bytes_shared,
            "payload_bytes": self.payload_bytes,
            "payload_bytes_per_task": self.payload_bytes_per_task,
            "pickled_bytes_avoided": self.pickled_bytes_avoided,
            "per_wave": [vars(wave) for wave in self.per_wave],
        }


# ---------------------------------------------------------------------- #
# Frontier driver (coordinator side)
# ---------------------------------------------------------------------- #
def solve_frontier_shm(executor, subproblems: Sequence, labels: Sequence[str]
                       ) -> list[tuple[np.ndarray, dict[int, float] | None]]:
    """Solve one wave through a shared arena on ``executor``'s process pool.

    Returns each task's ``(local assignment, exported multipliers)`` in
    task order.

    Reuses the executor's ``_map_processes`` machinery wholesale, so
    per-task timeouts, bounded retries, pool rebuilds and the
    ``executor.task`` fault site all apply to shm workers unchanged
    (rebuilt workers simply re-attach the wave segment).  The arena is
    unlinked before returning — results are copied out of the shared
    output buffer first — so a raising wave never leaks its segment.
    """
    tasks = list(subproblems)
    arena, vertex_offsets = pack_wave(tasks, prefix=executor.execution.shm_segment_prefix)
    try:
        refs = [ShmTaskRef(segment=arena.name, index=index)
                for index in range(len(tasks))]
        payload_bytes = sum(len(pickle.dumps(ref, protocol=_PICKLE))
                            for ref in refs)
        pickled_bytes_avoided = sum(len(pickle.dumps(task, protocol=_PICKLE))
                                    for task in tasks)
        tokens = executor._map_processes(_run_shm_task, refs, labels)
        out = arena.array("out")
        results = [(out[int(vertex_offsets[i]):int(vertex_offsets[i + 1])]
                    .astype(np.int64), lambdas)
                   for i, (_, _, lambdas) in enumerate(tokens)]
        del out  # release the view so unlink() can unmap cleanly
        executor.stats.shm.record_wave(ShmWaveStats(
            tasks=len(tasks), segment_bytes=arena.nbytes,
            payload_bytes=payload_bytes,
            pickled_bytes_avoided=pickled_bytes_avoided,
            attaches=sum(1 for _, attached, _ in tokens if attached)))
        return results
    finally:
        arena.unlink()
