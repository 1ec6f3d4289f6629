"""Tests for the partition-serving service.

pytest-asyncio is not a hard dependency of the suite: every test drives
its coroutine through ``asyncio.run`` inside a plain sync test, which
also mirrors how the CLI entry points invoke the service.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import GDConfig, recursive_bisection
from repro.faults import FaultPlan, FaultSpec, inject
from repro.graphs import power_law_cluster_graph, standard_weights
from repro.serve import (
    PartitionServer,
    PartitionService,
    ServeConfig,
    ServeError,
    ServiceClient,
    drive,
)
from repro.serve.load import zipf_ids

NUM_PARTS = 4
CONFIG = GDConfig(iterations=15, seed=0)


@pytest.fixture(scope="module")
def serving_state():
    graph = power_law_cluster_graph(300, 6, 10.0, seed=3)
    weights = standard_weights(graph, 2)
    partition = recursive_bisection(graph, weights, NUM_PARTS, 0.05, CONFIG)
    return graph, weights, partition.assignment


def make_service(serving_state, **overrides) -> PartitionService:
    graph, weights, assignment = serving_state
    serve_config = ServeConfig(port=0, **overrides)
    return PartitionService(graph, weights, assignment.copy(), NUM_PARTS,
                            config=CONFIG, serve_config=serve_config)


class TestLookups:
    def test_lookup_matches_assignment(self, serving_state):
        service = make_service(serving_state)
        _, _, assignment = serving_state
        parts, version = service.lookup([0, 5, 299])
        assert version == 0
        np.testing.assert_array_equal(parts, assignment[[0, 5, 299]])

    def test_lookup_rejects_out_of_range(self, serving_state):
        service = make_service(serving_state)
        with pytest.raises(ValueError, match="out of range"):
            service.lookup([300])
        with pytest.raises(ValueError, match="out of range"):
            service.lookup([-1])

    def test_lookup_rejects_oversized_batches(self, serving_state):
        service = make_service(serving_state, lookup_chunk=4)
        with pytest.raises(ValueError, match="per-request limit"):
            service.lookup([0, 1, 2, 3, 4])

    def test_route_and_fanout(self, serving_state):
        service = make_service(serving_state)
        _, _, assignment = serving_state
        route = service.route(0, 1)
        assert route["parts"] == [int(assignment[0]), int(assignment[1])]
        assert route["local"] == (assignment[0] == assignment[1])
        fanout = service.fanout(range(300))
        assert fanout["fanout"] == NUM_PARTS
        assert sum(fanout["parts"].values()) == 300


class TestRepairSwap:
    def test_lookups_stay_consistent_during_inflight_repair(self,
                                                            serving_state):
        """While a repair is running, every lookup batch must agree with
        the *complete* assignment of the version it reports — the old one
        or the repaired one, never a torn mix."""

        async def scenario():
            service = make_service(serving_state)
            await service.start()
            try:
                by_version = {0: service.lookup(range(300))[0].copy()}
                await service.ingest_churn(0.05, seed=11)
                ids = np.arange(0, 300, 7)
                observed = []
                # Hammer lookups until the swap lands (bounded by the
                # queue join below, which waits for the repair).
                while service.version == 0:
                    observed.append(service.lookup(ids))
                    await asyncio.sleep(0)
                await service._queue.join()
                by_version[service.version] = service.lookup(range(300))[0]
                observed.append(service.lookup(ids))
                for parts, version in observed:
                    np.testing.assert_array_equal(parts,
                                                  by_version[version][ids])
                assert service.version >= 1
                assert service.repair_lag == 0
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_swap_publishes_repartitioner_assignment(self, serving_state):
        async def scenario():
            service = make_service(serving_state)
            await service.start()
            try:
                await service.ingest_churn(0.03, seed=5)
                await service._queue.join()
                parts, version = service.lookup(range(300))
                assert version == 1
                np.testing.assert_array_equal(
                    parts, service._repartitioner.assignment)
                stats = service.stats()
                assert stats["batches_applied"] == 1
                assert stats["modes"]
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_failed_batch_leaves_assignment_untouched(self, serving_state):
        """A conflicting update (deleting a non-edge) fails in the worker:
        counted, logged, and the served assignment keeps its version."""
        from repro.dynamic import UpdateBatch

        async def scenario():
            service = make_service(serving_state)
            await service.start()
            try:
                u, v = 0, 1
                while service._dynamic.has_edge(u, v):
                    v += 1
                bad = UpdateBatch(deletions=np.array([[u, v]]))
                await service.ingest(bad)
                await service._queue.join()
                stats = service.stats()
                assert stats["batches_failed"] == 1
                assert stats["version"] == 0
                assert service.repair_lag == 0
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_backpressure_rejects_when_queue_full(self, serving_state):
        async def scenario():
            service = make_service(serving_state, max_queue=1)
            # Queue exists but no worker is draining it: the second
            # ingest must bounce.
            service._queue = asyncio.Queue()
            await service.ingest_churn(0.01)
            with pytest.raises(RuntimeError, match="queue full"):
                await service.ingest_churn(0.01)

        asyncio.run(scenario())

    def test_graceful_stop_drains_pending_batches(self, serving_state):
        async def scenario():
            service = make_service(serving_state)
            await service.start()
            for seed in range(3):
                await service.ingest_churn(0.02, seed=seed)
            await service.stop()
            stats = service.stats()
            assert stats["batches_applied"] == 3
            assert stats["queue_depth"] == 0
            assert service.version == 3
            # Ingest after shutdown is refused.
            with pytest.raises(RuntimeError, match="not started|shutting"):
                await service.ingest_churn(0.02)

        asyncio.run(scenario())


class TestTcpServer:
    def test_full_protocol_round_trip(self, serving_state):
        _, _, assignment = serving_state

        async def scenario():
            service = make_service(serving_state)
            server = PartitionServer(service)
            await server.start()
            try:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    assert (await client.call("ping"))["ok"]
                    response = await client.call("lookup", ids=[0, 1, 2])
                    assert response["parts"] == assignment[:3].tolist()
                    assert response["version"] == 0
                    response = await client.call("route", u=0, v=1)
                    assert len(response["parts"]) == 2
                    response = await client.call("fanout", ids=list(range(50)))
                    assert sum(response["parts"].values()) == 50
                    stats = (await client.call("stats"))["stats"]
                    assert stats["num_vertices"] == 300
                    # Errors answer in-band and keep the connection open.
                    bad = await client.request({"op": "lookup", "ids": [999]})
                    assert not bad["ok"] and "out of range" in bad["error"]
                    bad = await client.request({"op": "frobnicate"})
                    assert not bad["ok"] and "unknown op" in bad["error"]
                    assert (await client.call("ping"))["ok"]
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_churn_over_tcp_bumps_version(self, serving_state):
        async def scenario():
            service = make_service(serving_state)
            server = PartitionServer(service)
            await server.start()
            try:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    response = await client.call("churn", fraction=0.03,
                                                 seed=2)
                    assert response["queued"] >= 0
                    await service._queue.join()
                    stats = (await client.call("stats"))["stats"]
                    assert stats["version"] == 1
                    assert stats["repair_lag"] == 0
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_shutdown_op_stops_the_server(self, serving_state):
        async def scenario():
            service = make_service(serving_state)
            server = PartitionServer(service)
            runner = asyncio.ensure_future(server.run_until_stopped())
            # Wait for the listener to come up, then ask it to stop.
            for _ in range(100):
                if server._server is not None:
                    break
                await asyncio.sleep(0.01)
            async with ServiceClient("127.0.0.1", server.port) as client:
                assert (await client.call("shutdown"))["ok"]
            await asyncio.wait_for(runner, timeout=10)

        asyncio.run(scenario())

    def test_load_driver_reports_throughput_and_lag(self, serving_state):
        async def scenario():
            service = make_service(serving_state)
            server = PartitionServer(service)
            await server.start()
            try:
                report = await drive("127.0.0.1", server.port,
                                     num_lookups=2000, batch_size=100,
                                     churn_batches=1, churn_fraction=0.02,
                                     seed=3)
            finally:
                await server.stop()
            assert report.lookups == 2000
            assert report.batches == 20
            assert report.lookups_per_sec > 0
            assert report.p99_ms >= report.p50_ms
            assert report.churn_batches == 1
            # After a full drain-on-stop the batch must have been applied.
            assert service.stats()["batches_applied"] == 1
            payload = report.as_dict()
            assert {"lookups_per_sec", "p50_ms", "p99_ms",
                    "repair_lag_batches"} <= payload.keys()

        asyncio.run(scenario())


class TestZipfSampling:
    def test_skewed_sampling_is_deterministic_and_skewed(self):
        a = zipf_ids(1000, 5000, skew=1.2, seed=7)
        b = zipf_ids(1000, 5000, skew=1.2, seed=7)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0 and a.max() < 1000
        # Zipf 1.2 concentrates: the hottest vertex dominates a uniform
        # draw's expectation (5 hits) by a wide margin.
        hottest = np.bincount(a).max()
        assert hottest > 50

    def test_zero_skew_is_roughly_uniform(self):
        ids = zipf_ids(50, 20000, skew=0.0, seed=1)
        counts = np.bincount(ids, minlength=50)
        assert counts.min() > 200

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(port=-1)
        with pytest.raises(ValueError):
            ServeConfig(max_queue=0)
        with pytest.raises(ValueError):
            ServeConfig(epsilon=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            ServeConfig(epsilon=1.5)
        assert ServeConfig().with_updates(port=0).port == 0

    def test_resilience_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(client_timeout_seconds=0.0)
        with pytest.raises(ValueError):
            ServeConfig(restart_backoff_seconds=0.0)
        with pytest.raises(ValueError):
            ServeConfig(restart_backoff_seconds=2.0,
                        restart_backoff_max_seconds=1.0)
        with pytest.raises(ValueError):
            ServeConfig(max_worker_restarts=-1)
        with pytest.raises(ValueError):
            ServeConfig(escalation_threshold=0)
        with pytest.raises(ValueError):
            ServeConfig(degraded_lag_batches=0)
        assert ServeConfig(client_timeout_seconds=None).client_timeout_seconds is None


class TestSelfHealing:
    """Supervisor restarts, circuit breaker, health verb, client resilience."""

    def test_health_verb_over_tcp(self, serving_state):
        async def scenario():
            service = make_service(serving_state)
            server = PartitionServer(service)
            await server.start()
            try:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    health = (await client.call("health"))["health"]
                    assert health["status"] == "ok"
                    assert health["worker_alive"] is True
                    assert health["versions_behind"] == 0
                    assert health["seconds_since_last_repair"] is None
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_supervisor_restarts_crashed_worker_without_losing_churn(
            self, serving_state):
        """The worker crashes while holding a batch; the restarted worker
        re-processes that same batch — no churn lost, recovery counted."""
        plan = FaultPlan(faults=(FaultSpec(site="serve.repair", at=0,
                                           message="worker crash"),))

        async def scenario():
            service = make_service(serving_state,
                                   restart_backoff_seconds=0.02,
                                   restart_backoff_max_seconds=0.1)
            with inject(plan):
                await service.start()
                try:
                    await service.ingest_churn(0.02, seed=1)
                    await service._queue.join()
                finally:
                    await service.stop()
            stats = service.stats()
            assert stats["batches_applied"] == 1
            assert stats["worker_restarts"] == 1
            assert stats["repair_recoveries"] == 1
            assert service.version == 1
            assert service.health()["status"] == "ok"

        asyncio.run(scenario())

    def test_circuit_breaker_escalates_to_full_recompute(self, serving_state):
        """With the breaker threshold at 1, a failed absorb immediately
        escalates: the partition is rebuilt from the live graph and
        published, and the failure streak resets."""
        plan = FaultPlan(faults=(FaultSpec(site="serve.absorb", at=0,
                                           message="absorb failure"),))

        async def scenario():
            service = make_service(serving_state, escalation_threshold=1)
            with inject(plan):
                await service.start()
                try:
                    await service.ingest_churn(0.02, seed=2)
                    await service._queue.join()
                finally:
                    await service.stop()
            stats = service.stats()
            assert stats["batches_failed"] == 1
            assert stats["escalations"] == 1
            assert stats["modes"].get("escalated") == 1
            assert service.version == 1
            health = service.health()
            assert health["status"] == "ok"
            assert health["consecutive_failures"] == 0

        asyncio.run(scenario())

    def test_repeated_crashes_exhaust_restarts_and_degrade(self, serving_state):
        """Past ``max_worker_restarts`` the supervisor gives up: the
        service reports itself degraded with the worker dead, but keeps
        answering lookups."""
        plan = FaultPlan(faults=(FaultSpec(site="serve.repair", at=0,
                                           message="crash"),))

        async def scenario():
            service = make_service(serving_state, max_worker_restarts=0,
                                   drain_seconds=0.2)
            with inject(plan):
                await service.start()
                try:
                    await service.ingest_churn(0.02, seed=3)
                    for _ in range(200):
                        if service._worker_dead:
                            break
                        await asyncio.sleep(0.01)
                    health = service.health()
                    assert health["status"] == "degraded"
                    assert health["worker_alive"] is False
                    parts, _ = service.lookup([0, 1, 2])
                    assert parts.shape == (3,)
                finally:
                    await service.stop()

        asyncio.run(scenario())

    def test_client_timeout_surfaces_as_serve_error(self):
        """A hung server trips the client timeout instead of blocking
        forever; the connection is dropped (stream desync)."""

        async def scenario():
            async def black_hole(reader, writer):
                await asyncio.sleep(30)

            server = await asyncio.start_server(black_hole, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = ServiceClient("127.0.0.1", port, timeout=0.1)
            try:
                await client.connect()
                with pytest.raises(ServeError, match="timed out after 0.1s"):
                    await client.request({"op": "ping"})
                assert client._writer is None  # connection dropped
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_client_timeout_validation(self):
        with pytest.raises(ValueError, match="timeout"):
            ServiceClient("127.0.0.1", 1234, timeout=0.0)

    def test_client_reconnects_after_connection_loss(self, serving_state):
        """call() transparently reconnects once when the connection dies
        under it (server restart / network blip)."""

        async def scenario():
            service = make_service(serving_state)
            server = PartitionServer(service)
            await server.start()
            try:
                client = ServiceClient("127.0.0.1", server.port, timeout=5.0)
                await client.connect()
                assert (await client.call("ping"))["ok"]
                # Kill the transport under the client; the next call must
                # reconnect and succeed rather than surface the breakage.
                client._writer.transport.abort()
                assert (await client.call("ping"))["ok"]
                await client.close()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_error_replies_raise_serve_error(self, serving_state):
        async def scenario():
            service = make_service(serving_state)
            server = PartitionServer(service)
            await server.start()
            try:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    with pytest.raises(ServeError, match="out of range"):
                        await client.call("lookup", ids=[10**9])
            finally:
                await server.stop()

        asyncio.run(scenario())
