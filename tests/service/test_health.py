"""Liveness/readiness probes and the health surfaces of stats()/metrics.

The probe semantics under test (see ``repro.service.health``):
*live* means no work can strand (shards deciding, or failure decided
via an open breaker); *ready* means new traffic will actually be
evaluated rather than shed.
"""

from repro.coalition import build_joint_request
from repro.service import (
    ChaosConfig,
    FaultInjector,
    health_report,
    liveness,
    readiness,
    shard_for,
)
from repro.service.health import shard_health


def _read(users, cert, obj, now, nonce):
    return build_joint_request(
        users[0], [], "read", obj, cert, now=now, nonce=nonce
    )


class TestHealthyService:
    def test_threaded_service_is_live_and_ready(self, service_coalition):
        _, make_service = service_coalition
        service = make_service(mode="threaded", num_shards=2)
        probe = service.health()
        assert probe["liveness"]["live"]
        assert probe["liveness"]["workers_alive"] == 2
        # Decided on the submitting thread: no supervisor fields.
        assert "supervisor_alive" not in probe["liveness"]
        assert "supervised" not in probe
        assert not {"restart_pending", "pinned_epoch_id"} & set(
            probe["shards"][0]
        )
        assert probe["readiness"]["ready"]
        assert not probe["readiness"]["degraded"]
        for shard in probe["shards"]:
            assert shard["worker_alive"] and shard["ready"]
            assert shard["breaker"] == "closed"
            assert shard["crashes"] == 0
            assert shard["epoch_staleness"] == 0

    def test_manual_mode_counts_as_alive(self, service_coalition):
        _, make_service = service_coalition
        service = make_service(mode="manual", num_shards=2)
        probe = health_report(service)
        assert probe["liveness"]["live"]
        assert probe["readiness"]["ready"]
        assert "supervised" not in probe

    def test_closed_service_is_neither_live_nor_ready(self, service_coalition):
        _, make_service = service_coalition
        service = make_service(mode="threaded", num_shards=2)
        service.close()
        assert not liveness(service)["live"]
        assert not readiness(service)["ready"]


class TestFailedShard:
    def test_tripped_shard_degrades_readiness_but_stays_live(
        self, service_coalition
    ):
        ctx, make_service = service_coalition
        service = make_service(
            mode="threaded",
            num_shards=2,
            chaos=FaultInjector(
                ChaosConfig(kill_shard=0, kill_in_flight=True, kill_times=100)
            ),
            max_restarts=1,
        )
        users, cert = ctx["users"], ctx["read_cert"]
        service.submit(_read(users, cert, "ObjectO", 5, "hf-0"), now=5)
        service.submit(_read(users, cert, "ObjectO", 5, "hf-1"), now=5)
        assert service.drain(timeout=20)
        probe = service.health()
        # A failed-over shard answers (typed sheds) — live, not ready.
        assert probe["liveness"]["live"]
        assert not probe["readiness"]["ready"]
        assert probe["readiness"]["degraded"]
        assert probe["readiness"]["ready_shards"] == 1
        failed = probe["shards"][0]
        assert failed["breaker"] == "open"
        assert not failed["worker_alive"]
        assert probe["liveness"]["workers_alive"] == 1
        assert failed["live"] and not failed["ready"]
        assert failed["crashes"] == 2 and failed["restarts"] == 1

    def test_full_queue_is_not_ready(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual", num_shards=2, queue_depth=2)
        users, cert = ctx["users"], ctx["read_cert"]
        for i in range(2):
            service.submit(_read(users, cert, "ObjectO", 5, f"hq-{i}"), now=5)
        shard = shard_for(
            _read(users, cert, "ObjectO", 5, "probe"), service.num_shards
        )
        health = shard_health(service)[shard]
        assert health.queue_depth == health.queue_limit == 2
        assert not health.ready
        service.pump()
        assert shard_health(service)[shard].ready


class TestEpochStaleness:
    def test_queued_ticket_reports_epochs_behind_current(
        self, service_coalition
    ):
        ctx, make_service = service_coalition
        service = make_service(mode="manual", num_shards=2)
        users, cert = ctx["users"], ctx["read_cert"]
        request = _read(users, cert, "ObjectO", 5, "hs-0")
        shard = shard_for(request, service.num_shards)
        service.submit(request, now=5)
        assert shard_health(service)[shard].epoch_staleness == 0
        # Two publishes while the ticket sits queued: its pinned epoch
        # is now two behind, and the probe says so.
        acl = service.epochs.current.acls["ObjectP"].acl.entries
        service.update_acl("ObjectP", acl)
        service.update_acl("ObjectP", acl)
        assert shard_health(service)[shard].epoch_staleness == 2
        service.pump()
        assert shard_health(service)[shard].epoch_staleness == 0


class TestHealthSurfaces:
    def test_stats_health_section(self, service_coalition):
        _, make_service = service_coalition
        service = make_service(mode="threaded", num_shards=2)
        health = service.stats()["health"]
        assert "supervised" not in health  # logical restarts only
        assert health["workers_alive"] == 2
        assert health["worker_crashes"] == 0
        assert health["worker_restarts"] == 0
        assert health["breakers_open"] == 0
        assert health["circuit_open_sheds"] == 0

    def test_metrics_snapshot_gauges(self, service_coalition):
        _, make_service = service_coalition
        service = make_service(mode="threaded", num_shards=2)
        snapshot = service.metrics_snapshot()
        assert snapshot["gauges"]["service.workers_alive"] == 2
        assert snapshot["gauges"]["service.breakers_open"] == 0
        assert snapshot["counters"]["service.worker_crashes"] == 0
        assert snapshot["counters"]["service.worker_restarts"] == 0
