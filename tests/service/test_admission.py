"""Admission control: backpressure, duplicates, nonce barrier, lifecycle."""

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
        service = make_service(mode="manual", queue_depth=2)
        users, cert = ctx["users"], ctx["read_cert"]
        # The third submission overflows the depth-2 admission queue.
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
        assert decision.reason == "overloaded: admission queue at depth 2"
        assert decision.queue_depth == 2
        assert "overloaded" in decision.reason

        service.pump()
        stats = service.stats()["service"]
        assert stats["overloaded"] == 1
        assert stats["evaluated"] == 2  # the shed ticket never evaluates
        assert all(t.result().granted for t in tickets[:2])

    def test_queue_depth_is_the_whole_capacity(self, service_coalition):
        """One queue: ``queue_depth`` bounds every object's traffic
        together, so spreading requests over two objects admits no
        more than ``queue_depth`` of them."""
        ctx, make_service = service_coalition
        depth = 4
        service = make_service(mode="manual", queue_depth=depth)
        users, cert = ctx["users"], ctx["read_cert"]
        tickets = [
            service.submit(
                _read(users, cert, ("ObjectO", "ObjectP")[i % 2], 5, f"cap-{i}"),
                now=5,
            )
            for i in range(depth + 1)
        ]
        assert [t.done() for t in tickets] == [False] * depth + [True]
        assert isinstance(tickets[-1].result(0), Overloaded)
        service.pump()
        stats = service.stats()["service"]
        assert stats["overloaded"] == 1
        assert stats["evaluated"] == depth
        assert all(t.result().granted for t in tickets[:depth])

    def test_shed_tickets_do_not_wedge_drain(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="threaded", queue_depth=1)
        users, cert = ctx["users"], ctx["read_cert"]
        for i in range(12):
            service.submit(_read(users, cert, "ObjectO", 5, f"dw-{i}"), now=5)
        assert service.drain(timeout=30)


class TestDedup:
    """Duplicates get their own tickets; the nonce ledger alone decides
    them, so every copy after the first is denied as a replay."""

    REPLAY = "replayed request (nonce already accepted)"

    def test_after_resolution_a_duplicate_is_a_replay(self, service_coalition):
        """A resubmission after the decision landed goes to the
        protocol, which denies the replay."""
        ctx, make_service = service_coalition
        service = make_service(mode="manual")
        users, cert = ctx["users"], ctx["read_cert"]
        request = _read(users, cert, "ObjectO", 5, "dd-1")
        assert service.authorize(request, now=5).granted
        again = service.authorize(request, now=6)
        assert not again.granted
        assert again.reason == "replayed request (nonce already accepted)"

    def test_dedup_off_duplicates_deny_as_replays(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual")
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

    @pytest.mark.parametrize("mode", ["threaded", "manual"])
    def test_same_batch_replay_is_denied(self, service_coalition, mode):
        ctx, make_service = service_coalition
        service = make_service(mode=mode)
        request = _read(ctx["users"], ctx["read_cert"], "ObjectO", 5, "sb-0")
        first, second = service.submit_batch([(request, 5), (request, 5)])
        assert second is not first
        if mode == "manual":
            service.pump()
        assert first.result(0).granted
        assert not second.result(0).granted
        assert second.result(0).reason == self.REPLAY
        stats = service.stats()["service"]
        assert (stats["submitted"], stats["granted"], stats["denied"]) == (
            2, 1, 1,
        )


class TestNonceBarrier:
    def test_same_nonce_orders_across_shards_threaded(self, service_coalition):
        """Two objects share a nonce: it must decide in admission order,
        first grants, second denies as a replay — on every run, not
        just lucky schedules."""
        ctx, make_service = service_coalition
        users, cert = ctx["users"], ctx["read_cert"]
        for round_ in range(5):
            service = make_service(mode="threaded")
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
        service = make_service(mode="manual")
        users, cert = ctx["users"], ctx["read_cert"]
        tickets = [
            service.submit(_read(users, cert, obj, 5, "chain"), now=5)
            for obj in ("ObjectO", "ObjectP", "ObjectO")
        ]
        service.pump()
        outcomes = [t.result().granted for t in tickets]
        assert outcomes == [True, False, False]


class TestLifecycle:
    def test_num_shards_keyword_is_validated_then_ignored(self):
        with pytest.raises(ValueError):
            AuthorizationService(num_shards=0)
        service = AuthorizationService(num_shards=2, queue_depth=3)
        try:
            assert not hasattr(service, "num_shards")
            assert service.health()["queue_limit"] == 3
        finally:
            service.close()

    def test_manual_mode_authorize_resolves_at_submit(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual")
        users, cert = ctx["users"], ctx["read_cert"]
        decision = service.authorize(
            _read(users, cert, "ObjectO", 5, "il-0"), now=5
        )
        assert decision.granted
        assert service.stats()["service"]["outstanding"] == 0

    def test_submit_after_close_raises(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual")
        users, cert = ctx["users"], ctx["read_cert"]
        service.close()
        service.close()  # idempotent
        with pytest.raises(ServiceError):
            service.submit(_read(users, cert, "ObjectO", 5, "cl-0"), now=5)

    def test_pump_rejected_in_threaded_mode(self, service_coalition):
        _ctx, make_service = service_coalition
        service = make_service(mode="threaded")
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
        with make_service(mode="threaded") as service:
            decision = service.authorize(
                _read(users, cert, "ObjectO", 5, "cm-0"), now=5
            )
            assert decision.granted
        with pytest.raises(ServiceError):
            service.submit(_read(users, cert, "ObjectO", 6, "cm-1"), now=6)
