"""Admission control: backpressure, dedup, nonce barrier, lifecycle."""

import pytest

from repro.coalition import build_joint_request
from repro.service import AuthorizationService, Overloaded, ServiceError


def _read(users, cert, obj, now, nonce):
    return build_joint_request(
        users[0], [], "read", obj, cert, now=now, nonce=nonce
    )


class TestBackpressure:
    def test_full_queue_sheds_with_typed_overloaded(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(
            mode="manual", num_shards=2, queue_depth=2, dedup=False
        )
        users, cert = ctx["users"], ctx["read_cert"]
        # All traffic for one object lands on one shard; the third
        # submission overflows its depth-2 queue.
        tickets = [
            service.submit(_read(users, cert, "ObjectO", 5, f"bp-{i}"), now=5)
            for i in range(3)
        ]
        assert not tickets[0].done() and not tickets[1].done()
        shed = tickets[2]
        assert shed.done(), "shed decision must resolve at admission time"
        decision = shed.result()
        assert isinstance(decision, Overloaded)
        assert decision.shed and not decision.granted
        assert decision.shard == shed.shard
        assert decision.queue_depth == 2
        assert "overloaded" in decision.reason

        service.pump()
        stats = service.stats()["service"]
        assert stats["overloaded"] == 1
        assert stats["evaluated"] == 2  # the shed ticket never evaluates
        assert all(t.result().granted for t in tickets[:2])

    def test_other_shards_keep_admitting_past_a_full_one(
        self, service_coalition
    ):
        ctx, make_service = service_coalition
        service = make_service(
            mode="manual", num_shards=2, queue_depth=1, dedup=False
        )
        users, cert = ctx["users"], ctx["read_cert"]
        first = service.submit(_read(users, cert, "ObjectO", 5, "os-0"), now=5)
        shed = service.submit(_read(users, cert, "ObjectO", 5, "os-1"), now=5)
        other = service.submit(_read(users, cert, "ObjectP", 5, "os-2"), now=5)
        assert isinstance(shed.result(0), Overloaded)
        service.pump()
        assert first.result().granted and other.result().granted

    def test_shed_tickets_do_not_wedge_drain(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="threaded", num_shards=2, queue_depth=1)
        users, cert = ctx["users"], ctx["read_cert"]
        for i in range(12):
            service.submit(_read(users, cert, "ObjectO", 5, f"dw-{i}"), now=5)
        assert service.drain(timeout=30)


class TestDedup:
    def test_identical_inflight_submissions_coalesce(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual", num_shards=2, dedup=True)
        users, cert = ctx["users"], ctx["read_cert"]
        request = _read(users, cert, "ObjectO", 5, "dd-0")
        first = service.submit(request, now=5)
        second = service.submit(request, now=5)
        assert second is first, "duplicate must ride the in-flight ticket"
        assert first.coalesced == 1
        service.pump()
        stats = service.stats()["service"]
        assert stats["submitted"] == 2
        assert stats["evaluated"] == 1
        assert stats["coalesced"] == 1
        assert first.result().granted

    def test_after_resolution_a_duplicate_is_a_replay(self, service_coalition):
        """Dedup only coalesces *in-flight* work; a resubmission after the
        decision landed goes to the protocol, which denies the replay."""
        ctx, make_service = service_coalition
        service = make_service(mode="manual", num_shards=2, dedup=True)
        users, cert = ctx["users"], ctx["read_cert"]
        request = _read(users, cert, "ObjectO", 5, "dd-1")
        assert service.authorize(request, now=5).granted
        again = service.authorize(request, now=6)
        assert not again.granted
        assert again.reason == "replayed request (nonce already accepted)"

    def test_dedup_off_duplicates_deny_as_replays(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual", num_shards=2, dedup=False)
        users, cert = ctx["users"], ctx["read_cert"]
        request = _read(users, cert, "ObjectO", 5, "dd-2")
        first = service.submit(request, now=5)
        second = service.submit(request, now=5)
        assert second is not first
        service.pump()
        assert first.result().granted
        assert second.result().reason == (
            "replayed request (nonce already accepted)"
        )


class TestNonceBarrier:
    def test_same_nonce_orders_across_shards_threaded(self, service_coalition):
        """ObjectO and ObjectP shard apart at 2 shards, yet a shared
        nonce must still decide in admission order: first grants, second
        denies as a replay — on every run, not just lucky schedules."""
        ctx, make_service = service_coalition
        users, cert = ctx["users"], ctx["read_cert"]
        for round_ in range(5):
            service = make_service(
                mode="threaded", num_shards=2, dedup=False
            )
            nonce = f"barrier-{round_}"
            first = service.submit(
                _read(users, cert, "ObjectO", 5, nonce), now=5
            )
            second = service.submit(
                _read(users, cert, "ObjectP", 5, nonce), now=5
            )
            assert service.drain(timeout=30)
            assert first.result().granted
            assert second.result().reason == (
                "replayed request (nonce already accepted)"
            )
            service.close()

    def test_barrier_chain_in_manual_mode(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual", num_shards=2, dedup=False)
        users, cert = ctx["users"], ctx["read_cert"]
        tickets = [
            service.submit(_read(users, cert, obj, 5, "chain"), now=5)
            for obj in ("ObjectO", "ObjectP", "ObjectO")
        ]
        service.pump()
        outcomes = [t.result().granted for t in tickets]
        assert outcomes == [True, False, False]


class TestLifecycle:
    def test_manual_mode_authorize_resolves_at_submit(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual", num_shards=2)
        users, cert = ctx["users"], ctx["read_cert"]
        decision = service.authorize(
            _read(users, cert, "ObjectO", 5, "il-0"), now=5
        )
        assert decision.granted
        assert service.stats()["service"]["outstanding"] == 0

    def test_submit_after_close_raises(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual", num_shards=2)
        users, cert = ctx["users"], ctx["read_cert"]
        service.close()
        service.close()  # idempotent
        with pytest.raises(ServiceError):
            service.submit(_read(users, cert, "ObjectO", 5, "cl-0"), now=5)

    def test_pump_rejected_in_threaded_mode(self, service_coalition):
        _ctx, make_service = service_coalition
        service = make_service(mode="threaded", num_shards=2)
        with pytest.raises(ServiceError):
            service.pump()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ServiceError):
            AuthorizationService(mode="fibers")

    def test_process_mode_is_gone(self):
        with pytest.raises(ServiceError) as raised:
            AuthorizationService(mode="process")
        assert "'threaded'" in str(raised.value)
        assert "'manual'" in str(raised.value)

    def test_context_manager_closes(self, service_coalition):
        ctx, make_service = service_coalition
        users, cert = ctx["users"], ctx["read_cert"]
        with make_service(mode="threaded", num_shards=2) as service:
            decision = service.authorize(
                _read(users, cert, "ObjectO", 5, "cm-0"), now=5
            )
            assert decision.granted
        with pytest.raises(ServiceError):
            service.submit(_read(users, cert, "ObjectO", 6, "cm-1"), now=6)
