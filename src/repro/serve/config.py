"""Configuration of the partition-serving service."""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.config import ConfigIO
from ..partition.validation import validate_epsilon

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig(ConfigIO):
    """Parameters of :class:`~repro.serve.PartitionService` and its TCP
    front end.

    Attributes
    ----------
    host, port:
        Bind address of the lookup service.  ``port=0`` binds an
        ephemeral port (the tests' mode; the bound port is reported by
        :attr:`PartitionServer.port` and in the ready log line).
    epsilon:
        Balance tolerance in (0, 1] handed to the incremental
        repartitioner.
    max_queue:
        Backpressure bound on the churn queue: ``update``/``churn``
        requests beyond this many pending batches are rejected with an
        error response instead of letting an overloaded repair worker
        fall arbitrarily far behind traffic.
    lookup_chunk:
        Maximum vertex ids accepted in a single lookup/fanout request
        (bounds per-request memory and keeps one giant request from
        stalling the event loop).
    degree_weight_dimension:
        Weight-matrix row kept in sync with vertex degrees as churn is
        ingested (the standard unit+degree stack uses row 1).  ``None``
        disables the sync — required when the service is run with weight
        stacks whose dimensions are not degrees.
    drain_seconds:
        How long a graceful shutdown waits for the repair worker to
        drain pending churn batches before abandoning them.
    client_timeout_seconds:
        Default per-request timeout of :class:`~repro.serve.ServiceClient`
        — a hung or half-dead server surfaces as a clean
        :class:`~repro.serve.ServeError` instead of blocking the caller
        forever.  ``None`` restores the old wait-forever behavior.
    restart_backoff_seconds, restart_backoff_max_seconds:
        Supervised-restart policy of the repair worker: the first restart
        waits ``restart_backoff_seconds``, doubling per consecutive crash
        up to the max, with deterministic seeded jitter (±50%) so
        co-crashing replicas don't restart in lock-step.
    max_worker_restarts:
        Consecutive repair-worker crashes tolerated before the supervisor
        gives up; the service then reports ``degraded`` health while
        lookups keep answering from the last published assignment.  The
        counter resets whenever a restarted worker absorbs a batch.
    escalation_threshold:
        Circuit breaker: after this many *consecutive* failed repair
        batches the service escalates to a full recompute of the
        partition from the live graph (mode ``"escalated"``), which
        clears accumulated damage a local repair can no longer fix.
    degraded_lag_batches:
        Repair lag (batches ingested but not yet absorbed) beyond which
        the ``health`` verb reports ``degraded`` — the staleness-honesty
        bound.
    """

    host: str = "127.0.0.1"
    port: int = 7171
    epsilon: float = 0.05
    max_queue: int = 64
    lookup_chunk: int = 65536
    degree_weight_dimension: int | None = 1
    drain_seconds: float = 30.0
    client_timeout_seconds: float | None = 10.0
    restart_backoff_seconds: float = 0.1
    restart_backoff_max_seconds: float = 5.0
    max_worker_restarts: int = 16
    escalation_threshold: int = 3
    degraded_lag_batches: int = 8

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in 0..65535")
        validate_epsilon(self.epsilon)
        if self.max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if self.lookup_chunk < 1:
            raise ValueError("lookup_chunk must be at least 1")
        if (self.degree_weight_dimension is not None
                and self.degree_weight_dimension < 0):
            raise ValueError("degree_weight_dimension must be non-negative")
        if self.drain_seconds < 0:
            raise ValueError("drain_seconds must be non-negative")
        if (self.client_timeout_seconds is not None
                and self.client_timeout_seconds <= 0):
            raise ValueError("client_timeout_seconds must be positive when given")
        if self.restart_backoff_seconds <= 0:
            raise ValueError("restart_backoff_seconds must be positive")
        if self.restart_backoff_max_seconds < self.restart_backoff_seconds:
            raise ValueError("restart_backoff_max_seconds must be at least "
                             "restart_backoff_seconds")
        if self.max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be non-negative")
        if self.escalation_threshold < 1:
            raise ValueError("escalation_threshold must be at least 1")
        if self.degraded_lag_batches < 1:
            raise ValueError("degraded_lag_batches must be at least 1")

    def with_updates(self, **changes) -> "ServeConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)
