"""Frontier checkpoints: resumable state of a recursive-bisection run.

A multi-hour partitioning run dies with the machine unless its progress
survives somewhere.  The natural checkpoint of the frontier scheduler
(:func:`repro.core.recursive_bisection`) is the state at the top of a
wave: the partial ``assignment`` written by finished levels plus the
list of tasks still to solve.  Because every task's RNG seed is a pure
function of its recursion-tree coordinate (the deterministic-seeding
contract), replaying the remaining waves from a checkpoint produces a
final assignment **bit-identical** to the uninterrupted run — which is
what makes checkpoints safe to resume from without invalidating any
downstream bit-exactness guarantee.

A :class:`FrontierCheckpoint` serializes to one ``.npz`` blob (arrays)
plus a small JSON-able ``meta`` mapping (run identity: seed, parts,
epsilon, graph shape).  The blob goes into the ``checkpoints`` table of
:class:`~repro.store.PartitionStore` — atomic and versioned per
``(run, level)`` — and ``repro partition --resume`` loads the newest one
back.  ``meta`` is validated on resume so a checkpoint cannot silently
be replayed against a different graph or configuration.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

__all__ = ["CheckpointMismatch", "FrontierCheckpoint", "TaskState"]


class CheckpointMismatch(ValueError):
    """A checkpoint does not belong to the run being resumed."""


@dataclass(frozen=True)
class TaskState:
    """One node of the recursion tree: split ``vertex_ids`` into
    ``num_parts`` parts numbered from ``first_part``.

    The frontier scheduler's work item (a wave is a list of them) and,
    unchanged, a checkpoint's record of a pending task.  ``vertex_ids``
    is coerced to int64, so a frontier loaded from any checkpoint indexes
    like one the scheduler built.
    """

    vertex_ids: np.ndarray
    num_parts: int
    first_part: int
    depth: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertex_ids",
                           np.asarray(self.vertex_ids, dtype=np.int64))


@dataclass(frozen=True)
class FrontierCheckpoint:
    """State at the top of wave ``level``: partial assignment + frontier.

    ``meta`` carries the run identity used by :meth:`validate_against`:
    ``num_vertices``, ``num_edges``, ``num_parts``, ``epsilon``,
    ``seed``.  Extra keys are preserved but not validated.
    """

    level: int
    assignment: np.ndarray
    tasks: tuple[TaskState, ...]
    meta: dict

    def __post_init__(self) -> None:
        if not isinstance(self.tasks, tuple):
            object.__setattr__(self, "tasks", tuple(self.tasks))

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate_against(self, *, num_vertices: int, num_edges: int,
                         num_parts: int, epsilon: float, seed: int) -> None:
        """Refuse to resume into a different graph/config than we left."""
        expected = {"num_vertices": num_vertices, "num_edges": num_edges,
                    "num_parts": num_parts, "epsilon": epsilon, "seed": seed}
        for key, value in expected.items():
            stored = self.meta.get(key)
            if stored is not None and stored != value:
                raise CheckpointMismatch(
                    f"checkpoint {key} is {stored!r} but the run has "
                    f"{value!r}; refusing to resume")
        if self.assignment.shape != (num_vertices,):
            raise CheckpointMismatch(
                f"checkpoint assignment covers {self.assignment.shape[0]} "
                f"vertices but the graph has {num_vertices}")

    # ------------------------------------------------------------------ #
    # Serialization (one .npz blob; meta travels separately as JSON)
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """Pack level, assignment and frontier into one ``.npz`` blob."""
        offsets = np.zeros(len(self.tasks) + 1, dtype=np.int64)
        for index, task in enumerate(self.tasks):
            offsets[index + 1] = offsets[index] + task.vertex_ids.size
        concatenated = (np.concatenate([task.vertex_ids for task in self.tasks])
                        if self.tasks else np.zeros(0, dtype=np.int64))
        shape = np.array([[task.num_parts, task.first_part, task.depth]
                          for task in self.tasks], dtype=np.int64).reshape(len(self.tasks), 3)
        buffer = io.BytesIO()
        np.savez(buffer,
                 level=np.int64(self.level),
                 assignment=np.asarray(self.assignment, dtype=np.int64),
                 task_vertex_ids=np.asarray(concatenated, dtype=np.int64),
                 task_offsets=offsets,
                 task_shape=shape)
        return buffer.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes, meta: dict | None = None) -> "FrontierCheckpoint":
        with np.load(io.BytesIO(blob)) as data:
            level = int(data["level"])
            assignment = data["assignment"]
            concatenated = data["task_vertex_ids"]
            offsets = data["task_offsets"]
            shape = data["task_shape"]
        tasks = tuple(
            TaskState(vertex_ids=concatenated[offsets[i]:offsets[i + 1]],
                      num_parts=int(shape[i, 0]), first_part=int(shape[i, 1]),
                      depth=int(shape[i, 2]))
            for i in range(len(shape)))
        return cls(level=level, assignment=assignment, tasks=tasks,
                   meta=dict(meta or {}))
