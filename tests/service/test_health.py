"""The health probe and the health surfaces of stats()/metrics.

The probe semantics under test (see ``repro.service.health``):
*live* means no work can strand (the service decides, or failure is
decided via an open breaker); *ready* means new traffic will actually
be evaluated rather than shed.
"""

from repro.coalition import build_joint_request
from repro.service import ChaosConfig, FaultInjector, health_report

REPORT_KEYS = {
    "name", "mode", "live", "ready", "breaker", "crashes", "restarts",
    "queue_depth", "queue_limit", "epoch_staleness",
}


def _read(users, cert, obj, now, nonce):
    return build_joint_request(
        users[0], [], "read", obj, cert, now=now, nonce=nonce
    )


class TestHealthyService:
    def test_threaded_service_is_live_and_ready(self, service_coalition):
        _, make_service = service_coalition
        service = make_service(mode="threaded")
        probe = service.health()
        # One flat report: no worker, shard or supervisor fields.
        assert set(probe) == REPORT_KEYS
        assert probe["live"] and probe["ready"]
        assert probe["breaker"] == "closed"
        assert probe["crashes"] == probe["restarts"] == 0
        assert probe["epoch_staleness"] == 0
        assert (probe["queue_depth"], probe["queue_limit"]) == (0, 8)

    def test_manual_mode_counts_as_alive(self, service_coalition):
        _, make_service = service_coalition
        service = make_service(mode="manual")
        probe = health_report(service)
        assert probe["live"]
        assert probe["ready"]
        assert probe["mode"] == "manual"

    def test_closed_service_is_neither_live_nor_ready(self, service_coalition):
        _, make_service = service_coalition
        service = make_service(mode="threaded")
        service.close()
        probe = health_report(service)
        assert not probe["live"]
        assert not probe["ready"]


class TestFailedShard:
    def test_tripped_shard_degrades_readiness_but_stays_live(
        self, service_coalition
    ):
        ctx, make_service = service_coalition
        service = make_service(
            mode="threaded",
            chaos=FaultInjector(
                ChaosConfig(kill_in_flight=True, kill_times=100)
            ),
            max_restarts=1,
        )
        users, cert = ctx["users"], ctx["read_cert"]
        service.submit(_read(users, cert, "ObjectO", 5, "hf-0"), now=5)
        service.submit(_read(users, cert, "ObjectO", 5, "hf-1"), now=5)
        assert service.drain(timeout=20)
        probe = service.health()
        # A failed-over service answers (typed sheds) — live, not ready.
        assert probe["live"]
        assert not probe["ready"]
        assert probe["breaker"] == "open"
        assert probe["crashes"] == 2 and probe["restarts"] == 1

    def test_full_queue_is_not_ready(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual", queue_depth=2)
        users, cert = ctx["users"], ctx["read_cert"]
        # Two objects, one queue: together they fill it.
        for i, obj in enumerate(("ObjectO", "ObjectP")):
            service.submit(_read(users, cert, obj, 5, f"hq-{i}"), now=5)
        probe = health_report(service)
        assert probe["queue_depth"] == probe["queue_limit"] == 2
        assert not probe["ready"]
        service.pump()
        assert health_report(service)["ready"]


class TestEpochStaleness:
    def test_queued_ticket_reports_epochs_behind_current(
        self, service_coalition
    ):
        ctx, make_service = service_coalition
        service = make_service(mode="manual")
        users, cert = ctx["users"], ctx["read_cert"]
        service.submit(_read(users, cert, "ObjectO", 5, "hs-0"), now=5)
        assert health_report(service)["epoch_staleness"] == 0
        # Two publishes while the ticket sits queued: its pinned epoch
        # is now two behind, and the probe says so.
        acl = service.epochs.current.acls["ObjectP"].acl.entries
        service.update_acl("ObjectP", acl)
        service.update_acl("ObjectP", acl)
        assert health_report(service)["epoch_staleness"] == 2
        service.pump()
        assert health_report(service)["epoch_staleness"] == 0


class TestHealthSurfaces:
    def test_stats_health_section(self, service_coalition):
        _, make_service = service_coalition
        service = make_service(mode="threaded")
        health = service.stats()["health"]
        assert health == {
            "breaker": "closed",
            "crashes": 0,
            "restarts": 0,
            "circuit_open_sheds": 0,
        }

    def test_metrics_snapshot_gauges(self, service_coalition):
        _, make_service = service_coalition
        service = make_service(mode="threaded")
        snapshot = service.metrics_snapshot()
        assert snapshot["gauges"]["service.breaker_open"] == 0
        assert "service.workers_alive" not in snapshot["gauges"]
        assert snapshot["counters"]["service.crashes"] == 0
        assert snapshot["counters"]["service.restarts"] == 0
