"""Batch-path semantics: queue batch ops, submit_batch, trip interleave.

Batched admission (DESIGN.md §12) must be an *amortization*, never a
semantic change: FIFO order survives concurrent pushes, a requeued
remainder returns to the queue head, and a batched submission stream
resolves to byte-identical decisions as per-ticket submission.
"""

import random
import threading

import pytest

from repro.coalition import build_joint_request
from repro.service.admission import AdmissionQueue, Ticket

from .conftest import WINDOW


def _ticket(seq):
    return Ticket(request=None, now=0, epoch=None, seq=seq)


class TestShardQueueBatchOps:
    """:class:`AdmissionQueue` batch operations."""

    def test_try_push_batch_accepts_prefix_up_to_depth(self):
        queue = AdmissionQueue(depth=4)
        queue.try_push_batch([_ticket(0)])
        accepted = queue.try_push_batch([_ticket(s) for s in range(1, 9)])
        assert accepted == 3  # room for depth-1 more
        assert [t.seq for t in queue.take()] == [0, 1, 2, 3]
        # A full queue accepts nothing.
        full = AdmissionQueue(depth=1)
        full.try_push_batch([_ticket(0)])
        assert full.try_push_batch([_ticket(1)]) == 0

    def test_push_front_batch_restores_admission_order(self):
        queue = AdmissionQueue(depth=8)
        for seq in range(4):
            queue.try_push_batch([_ticket(seq)])
        batch = queue.take()
        # Crash after evaluating batch[0]: the rest go back to the head,
        # ahead of a later arrival, ignoring depth.
        queue.try_push_batch([_ticket(4)])
        queue.push_front_batch(batch[1:])
        assert [t.seq for t in queue.take()] == [1, 2, 3, 4]

    def test_take_with_a_limit_returns_the_oldest(self):
        queue = AdmissionQueue(depth=8)
        queue.try_push_batch([_ticket(seq) for seq in range(5)])
        assert [t.seq for t in queue.take(2)] == [0, 1]
        assert [t.seq for t in queue.take(9)] == [2, 3, 4]
        assert queue.take() == []

    def test_fifo_preserved_under_concurrent_push(self):
        queue = AdmissionQueue(depth=32)
        total = 400
        popped = []
        done = threading.Event()

        def producer():
            rng = random.Random(1)
            seq = 0
            while seq < total:
                chunk = [
                    _ticket(s)
                    for s in range(seq, min(total, seq + rng.randrange(1, 5)))
                ]
                accepted = queue.try_push_batch(chunk)
                seq += accepted
            done.set()

        def consumer():
            while len(popped) < total:
                batch = queue.take()
                popped.extend(batch)
                if not batch and done.is_set() and len(queue) == 0:
                    break

        threads = [
            threading.Thread(target=producer),
            threading.Thread(target=consumer),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert [t.seq for t in popped] == list(range(total))


FRESHNESS = 50


def _request_stream(coalition, users, read_cert, seed, events=120):
    """A replay/stale/unknown-heavy stream of (request, now) pairs."""
    from repro.pki import ValidityPeriod

    rng = random.Random(seed)
    validity = ValidityPeriod(0, WINDOW)
    write_cert = coalition.authority.issue_threshold_certificate(
        users, 2, "G_write", 0, validity
    )
    objects = ["ObjectO", "ObjectP", "Ghost"]
    history = []
    pairs = []
    now = FRESHNESS + 10
    for i in range(events):
        now += rng.randrange(0, 3)
        roll = rng.random()
        if roll < 0.2 and history:
            request = rng.choice(history)  # verbatim replay
        elif roll < 0.28:
            request = build_joint_request(
                users[0], [], "read", rng.choice(objects),
                read_cert, now=now - FRESHNESS - 20, nonce=f"bt-stale-{i}",
            )
        elif roll < 0.6:
            request = build_joint_request(
                users[0], [], "read", rng.choice(objects),
                read_cert, now=now, nonce=f"bt-r-{i}",
            )
        else:
            request = build_joint_request(
                users[0], [users[1]], "write", rng.choice(objects),
                write_cert, now=now, nonce=f"bt-w-{i}",
            )
        history.append(request)
        pairs.append((request, now))
    return pairs


class TestSubmitBatchParity:
    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_batched_matches_per_ticket_submission(
        self, service_coalition, seed
    ):
        """Byte-parity fuzz: submit_batch vs submit, same stream."""
        ctx, make_service = service_coalition
        batched = make_service(
            mode="manual", queue_depth=512,
            freshness_window=FRESHNESS,
        )
        per_ticket = make_service(
            mode="manual", queue_depth=512,
            freshness_window=FRESHNESS,
        )
        pairs = _request_stream(
            ctx["coalition"], ctx["users"], ctx["read_cert"], seed=seed
        )
        rng = random.Random(99)
        batched_tickets = []
        i = 0
        while i < len(pairs):
            chunk = pairs[i:i + rng.randrange(1, 8)]
            batched_tickets.extend(batched.submit_batch(chunk))
            i += len(chunk)
        single_tickets = [per_ticket.submit(r, now=n) for r, n in pairs]
        batched.pump()
        per_ticket.pump()
        granted = 0
        for i, (a, b) in enumerate(zip(batched_tickets, single_tickets)):
            da, db = a.result(), b.result()
            assert (da.granted, da.reason) == (db.granted, db.reason), (
                f"event {i}: batched={da!r} per-ticket={db!r}"
            )
            granted += da.granted
        assert granted > 10

    def test_submit_batch_counts_every_arrival(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(
            mode="manual", queue_depth=64,
            freshness_window=FRESHNESS,
        )
        pairs = _request_stream(
            ctx["coalition"], ctx["users"], ctx["read_cert"], seed=7,
            events=40,
        )
        tickets = service.submit_batch(pairs)
        assert len(tickets) == len(pairs)
        service.pump()
        stats = service.stats()["service"]
        assert stats["submitted"] == len(pairs)
        assert (
            stats["evaluated"] + stats["errored"] + stats["overloaded"]
            == stats["submitted"]
        )
        assert stats["outstanding"] == 0

    def test_submit_batch_sheds_overflow_with_typed_decisions(
        self, service_coalition
    ):
        ctx, make_service = service_coalition
        service = make_service(
            mode="manual", queue_depth=4,
            freshness_window=FRESHNESS,
        )
        pairs = _request_stream(
            ctx["coalition"], ctx["users"], ctx["read_cert"], seed=3,
            events=12,
        )
        tickets = service.submit_batch(pairs)
        shed = [t for t in tickets if t.done()]
        assert len(shed) == len(pairs) - 4  # queue depth admitted the rest
        for ticket in shed:
            assert not ticket.result().granted
            assert ticket.result().shed
        service.pump()
        stats = service.stats()["service"]
        assert stats["overloaded"] == len(shed)
        assert (
            stats["evaluated"] + stats["errored"] + stats["overloaded"]
            == stats["submitted"]
        )

    def test_empty_batch_is_a_noop(self, service_coalition):
        _, make_service = service_coalition
        service = make_service(mode="manual")
        assert service.submit_batch([]) == []


class TestTripVsPushInterleaving:
    def test_no_ticket_strands_when_trip_races_admission(
        self, service_coalition
    ):
        """Hammer the documented failover interleaving argument.

        With a zero restart budget and a kill on the first evaluation,
        the breaker trips while submitters are still flooding the
        queue.  Whatever interleaving the scheduler picks, every ticket
        must resolve (push before drain => caught by the sweep; push
        after => the breaker re-check sheds) and the accounting
        identity must hold.
        """
        from repro.service.chaos import ChaosConfig, FaultInjector

        ctx, make_service = service_coalition
        service = make_service(
            mode="threaded", queue_depth=64,
            freshness_window=FRESHNESS, max_restarts=0,
            chaos=FaultInjector(
                ChaosConfig(kill_in_flight=True, kill_times=1)
            ),
        )
        pairs = _request_stream(
            ctx["coalition"], ctx["users"], ctx["read_cert"], seed=11,
            events=60,
        )
        tickets = []
        lock = threading.Lock()

        def flood(chunk):
            for request, now in chunk:
                ticket = service.submit(request, now=now)
                with lock:
                    tickets.append(ticket)

        threads = [
            threading.Thread(target=flood, args=(pairs[i::4],))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert service.drain(timeout=30.0)
        for ticket in tickets:
            assert ticket.done()
        assert service.stats()["health"]["breaker"] == "open"
        stats = service.stats()["service"]
        assert (
            stats["evaluated"] + stats["errored"] + stats["overloaded"]
            == stats["submitted"]
            == len(pairs)
        )
