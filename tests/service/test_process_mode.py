"""Process-parallel shard workers: parity, replay state, supervision.

``mode="process"`` moves evaluation into per-shard worker processes
(DESIGN.md §12).  These tests pin the contract that the move is
*observationally invisible*:

* byte-identical decisions vs. the sequential oracle, including
  revocation epochs shipped mid-stream;
* replay state survives the process boundary — a replacement child is
  seeded with the pre-crash ledger, and cross-shard same-nonce requests
  are denied exactly as a single ledger would deny them;
* crashes (chaos kills, process death) route through the same restart
  budget / circuit breaker / stranded-ticket machinery as thread
  crashes, preserving ``evaluated + errored + overloaded == submitted``.
"""

import gc
import pickle
import time
import weakref
from types import SimpleNamespace

import pytest

from repro.coalition import AuthorizationDecision, build_joint_request
from repro.pki import ValidityPeriod
from repro.service import (
    ChaosConfig,
    CircuitOpen,
    Errored,
    FaultInjector,
    ServiceError,
)
from repro.service.health import health_report
from repro.service.procworker import _child_main

from .conftest import WINDOW
from .test_service_parity import (
    FRESHNESS,
    _assert_parity,
    _drive,
    _oracle_server,
)


def _read(users, cert, obj, now, nonce):
    return build_joint_request(
        users[0], [], "read", obj, cert, now=now, nonce=nonce
    )


def _service_stats(service):
    return service.stats()["service"]


def _assert_accounting_identity(service):
    stats = _service_stats(service)
    assert (
        stats["evaluated"] + stats["errored"] + stats["overloaded"]
        == stats["submitted"]
    ), stats
    assert stats["outstanding"] == 0


@pytest.mark.parametrize("num_shards", [2, 4])
def test_process_mode_parity_fuzz(service_coalition, num_shards):
    """Worker processes: same stream, byte-identical decisions.

    The stream interleaves revocations, so epochs (full pickles and
    ACL-only references) ship mid-run, and verbatim replays cross the
    pipe after their original grant — exercising the nonce frames.
    """
    ctx, make_service = service_coalition
    service = make_service(
        mode="process", num_shards=num_shards, queue_depth=512,
        dedup=False, freshness_window=FRESHNESS,
    )
    server = _oracle_server(ctx)
    paired = _drive(
        service, server, ctx["coalition"], ctx["users"], ctx["read_cert"],
        seed=5,
    )
    assert service.drain(timeout=60)
    _assert_parity(paired)
    _assert_accounting_identity(service)


def test_process_mode_health_probes(service_coalition):
    _, make_service = service_coalition
    service = make_service(mode="process", num_shards=2)
    report = health_report(service)
    assert report["mode"] == "process"
    assert report["liveness"]["live"]
    assert report["liveness"]["workers_alive"] == 2
    assert report["readiness"]["ready"]
    service.close(timeout=10)
    assert service.workers_alive() == 0


def test_pump_rejected_in_process_mode(service_coalition):
    """The dispatcher threads own the queues; a caller pump would race them."""
    _, make_service = service_coalition
    service = make_service(mode="process", num_shards=2)
    with pytest.raises(ServiceError, match="manual mode"):
        service.pump()


def test_process_cross_shard_replay_is_denied(service_coalition):
    """A nonce granted on one shard's process denies on another's.

    ObjectO and ObjectP route to different shards at 2 shards, so the
    second request evaluates in a *different child process* than the
    one that accepted the nonce — the deny can only come from the
    broadcast nonce frame (plus the cross-shard predecessor barrier).
    """
    ctx, make_service = service_coalition
    service = make_service(
        mode="process", num_shards=2, dedup=False,
        freshness_window=FRESHNESS,
    )
    users, cert = ctx["users"], ctx["read_cert"]
    now = FRESHNESS + 10
    first = service.submit(
        _read(users, cert, "ObjectO", now, "xs-nonce"), now=now
    )
    second = service.submit(
        _read(users, cert, "ObjectP", now, "xs-nonce"), now=now
    )
    assert first.shard != second.shard
    assert second.predecessor is first
    assert service.drain(timeout=30)
    assert first.result(0).granted
    denied = second.result(0)
    assert not denied.granted
    assert denied.reason == "replayed request (nonce already accepted)"


class TestProcessRestartBudget:
    def test_budget_restarts_then_trip_and_failover(self, service_coalition):
        """Same crash arithmetic as the threaded budget test: 3 kills
        (initial + 2 replacement incarnations) each taking the in-hand
        ticket down as Errored, then the breaker trips and fails the
        queue remainder over as CircuitOpen."""
        ctx, make_service = service_coalition
        service = make_service(
            mode="process",
            num_shards=2,
            queue_depth=32,
            dedup=False,
            chaos=FaultInjector(
                ChaosConfig(kill_shard=0, kill_in_flight=True, kill_times=100)
            ),
            max_restarts=2,
            restart_backoff_s=0.005,
        )
        users, cert = ctx["users"], ctx["read_cert"]
        doomed = [
            service.submit(_read(users, cert, "ObjectO", 5, f"pb-o-{i}"), now=5)
            for i in range(8)
        ]
        healthy = [
            service.submit(_read(users, cert, "ObjectP", 5, f"pb-p-{i}"), now=5)
            for i in range(6)
        ]
        assert service.drain(timeout=30), "supervised drain must terminate"

        results = [t.result(0) for t in doomed]
        errored = [r for r in results if isinstance(r, Errored)]
        shed = [r for r in results if isinstance(r, CircuitOpen)]
        assert len(errored) == 3
        assert all(r.error_type == "WorkerKilled" for r in errored)
        assert len(shed) == 5
        assert all(r.shed and r.restarts == 2 for r in shed)

        health = service.stats()["health"]
        assert health["worker_crashes"] == 3
        assert health["worker_restarts"] == 2
        assert health["breakers_open"] == 1
        assert service._breakers[0].is_open
        assert all(t.result(0).granted for t in healthy)
        _assert_accounting_identity(service)

        # The supervisor recorded both replacement processes, re-pinned
        # to the epoch current at restart time, after doubling backoffs.
        events = service.supervisor.events
        assert [e.incarnation for e in events] == [1, 2]
        assert all(e.error_type == "WorkerKilled" for e in events)
        assert all(
            e.epoch_id == service.epochs.current.epoch_id for e in events
        )
        assert events[1].backoff_s == pytest.approx(0.010)

    def test_replay_denied_across_process_restart(self, service_coalition):
        """A replacement child is seeded with the pre-crash ledger.

        The first request grants (its nonce lives only in worker-process
        state plus the parent's authoritative ledger), then a loop-top
        chaos kill takes the child down before the verbatim replay
        ships.  The replacement process must still deny the replay —
        proof the init frame re-seeds the full replay window.
        """
        ctx, make_service = service_coalition
        service = make_service(
            mode="process",
            num_shards=2,
            dedup=False,
            freshness_window=FRESHNESS,
            chaos=FaultInjector(
                ChaosConfig(kill_shard=0, kill_after=1, kill_times=1)
            ),
            max_restarts=2,
            restart_backoff_s=0.005,
        )
        users, cert = ctx["users"], ctx["read_cert"]
        now = FRESHNESS + 10
        request = _read(users, cert, "ObjectO", now, "pr-nonce")
        first = service.submit(request, now=now)
        assert first.result(timeout=20).granted
        # The next dispatch loop-top kills the child with nothing in
        # hand: the replay re-queues for the replacement incarnation.
        replay = service.submit(request, now=now)
        assert service.drain(timeout=30)
        denied = replay.result(0)
        assert not denied.granted
        assert denied.reason == "replayed request (nonce already accepted)"
        health = service.stats()["health"]
        assert health["worker_crashes"] == 1
        assert health["worker_restarts"] == 1
        _assert_accounting_identity(service)


class TestProcessUnsupervisedDetection:
    def _dead_shard_service(self, make_service):
        return make_service(
            mode="process",
            num_shards=2,
            dedup=False,
            supervise=False,
            chaos=FaultInjector(
                ChaosConfig(kill_shard=0, kill_after=1, kill_times=1)
            ),
        )

    def test_drain_raises_immediately_not_after_timeout(
        self, service_coalition
    ):
        ctx, make_service = service_coalition
        service = self._dead_shard_service(make_service)
        users, cert = ctx["users"], ctx["read_cert"]
        tickets = [
            service.submit(_read(users, cert, "ObjectO", 5, f"pd-{i}"), now=5)
            for i in range(4)
        ]
        assert tickets[0].result(timeout=20).granted
        worker = service._workers[0]
        deadline = time.monotonic() + 10
        while not worker.crashed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert worker.crashed
        start = time.perf_counter()
        with pytest.raises(ServiceError, match="shard 0 worker is dead"):
            service.drain(timeout=30)
        assert time.perf_counter() - start < 5

    def test_close_resolves_stranded_tickets(self, service_coalition):
        ctx, make_service = service_coalition
        service = self._dead_shard_service(make_service)
        users, cert = ctx["users"], ctx["read_cert"]
        tickets = [
            service.submit(_read(users, cert, "ObjectO", 5, f"pc-{i}"), now=5)
            for i in range(4)
        ]
        assert tickets[0].result(timeout=20).granted
        worker = service._workers[0]
        deadline = time.monotonic() + 10
        while not worker.crashed and time.monotonic() < deadline:
            time.sleep(0.01)
        service.close(timeout=10)
        assert all(t.done() for t in tickets), "close leaves nobody waiting"
        stranded = [
            t.result(0)
            for t in tickets
            if isinstance(t.result(0), Errored)
            and "service closed" in t.result(0).reason
        ]
        assert len(stranded) >= 1
        _assert_accounting_identity(service)


class _CountedProtocol:
    """A picklable stand-in protocol that tracks its live copies."""

    unpickled = weakref.WeakSet()

    def __init__(self):
        self.nonces = None

    def __setstate__(self, state):
        self.__dict__.update(state)
        _CountedProtocol.unpickled.add(self)

    def authorize(self, request, acl, now):
        return AuthorizationDecision(
            granted=True, reason="counted", operation=request.operation,
            object_name=request.object_name, checked_at=now,
        )


class TestProcessEpochMemory:
    def test_parent_pins_only_the_last_shipped_epoch(self, service_coalition):
        """30 revocations with traffic between them: every epoch ships
        to both workers, yet once the tickets are gone no superseded
        protocol stays alive beyond the current one and each worker's
        last shipped one — and every decision matches the oracle."""
        ctx, make_service = service_coalition
        service = make_service(
            mode="process", num_shards=2, queue_depth=512, dedup=False,
            freshness_window=FRESHNESS,
        )
        server = _oracle_server(ctx)
        coalition, users = ctx["coalition"], ctx["users"]
        validity = ValidityPeriod(0, WINDOW)
        protocols = [weakref.ref(service.epochs.current.protocol)]
        paired = []
        now = FRESHNESS + 10
        revoked = None
        for i in range(30):
            victim = coalition.authority.issue_threshold_certificate(
                users, 2, "G_write", 0, validity
            )
            for obj in ("ObjectO", "ObjectP"):
                requests = [
                    _read(users, ctx["read_cert"], obj, now, f"em-r-{i}-{obj}"),
                    build_joint_request(
                        users[0], [users[1]], "write", obj, victim,
                        now=now, nonce=f"em-w-{i}-{obj}",
                    ),
                ]
                if revoked is not None:
                    requests.append(build_joint_request(
                        users[0], [users[1]], "write", obj, revoked,
                        now=now, nonce=f"em-x-{i}-{obj}",
                    ))
                requests.append(requests[0])  # a verbatim replay
                for request in requests:
                    oracle = server.handle_request(
                        request, now=now, write_content=b"w"
                    )
                    paired.append(
                        (service.submit(request, now=now), oracle.decision)
                    )
            assert service.drain(timeout=30)
            revocation = coalition.authority.revoke_certificate(
                victim, now=now
            )
            epoch = service.publish_revocation(revocation, now=now)
            protocols.append(weakref.ref(epoch.protocol))
            server.receive_revocation(revocation, now=now)
            revoked = victim
            now += 1
        assert service.drain(timeout=30)
        _assert_parity(paired)
        _assert_accounting_identity(service)
        del paired
        gc.collect()
        alive = sum(ref() is not None for ref in protocols)
        assert alive <= 1 + service.num_shards, alive

    def test_child_drops_epochs_older_than_the_last_eval(self):
        """Drive the worker child's frame loop directly: once an eval
        frame is answered, only the newest epoch it named stays, so one
        protocol is alive however many epochs were shipped."""
        acls = {"O": SimpleNamespace(acl=None)}
        request = SimpleNamespace(object_name="O", operation="read", parts=())
        frames = [("init", 100, [])]
        for epoch_id in range(12):
            if epoch_id % 3 == 2:  # ACL-only: a back-reference
                frames.append(("epoch", epoch_id, None, epoch_id - 1, acls))
            else:
                blob = pickle.dumps(_CountedProtocol())
                frames.append(("epoch", epoch_id, blob, -1, acls))
            if epoch_id % 2:  # one eval frame names two epochs
                items = [(e, 5, e, request) for e in (epoch_id - 1, epoch_id)]
                frames.append(("eval", items))
        frames.append(("stop",))
        sent, live_after_eval = [], []

        class Conn:
            answered = False

            def recv(self):
                if self.answered:  # the first read after a "done"
                    self.answered = False
                    gc.collect()
                    live_after_eval.append(len(_CountedProtocol.unpickled))
                return frames.pop(0)

            def send(self, frame):
                sent.append(frame)
                self.answered = frame[0] == "done"

        _child_main(Conn(), shard=0)
        assert sent[-1] == ("stopped",)
        decisions = [d for _, done in sent[:-1] for _, d, _ in done]
        assert len(decisions) == 12 and all(d.granted for d in decisions)
        assert live_after_eval == [1] * 6
