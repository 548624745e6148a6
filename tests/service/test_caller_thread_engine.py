"""Threaded mode decides on the submitting thread.

``submit``/``submit_batch`` admit, then take the service's decision lock
and decide every queued ticket in sequence order, so they return
resolved tickets.  These tests pin what that engine must keep:

* concurrent submitters with same-nonce chains across objects, racing a
  revocation publisher, neither deadlock nor diverge from the
  sequential protocol (byte-identical decision documents);
* a batch's certificate admissions warm the cache of the epoch they
  were decided in, so the next publish forks them forward;
* a batch larger than the admission queue still sheds its excess as typed
  ``Overloaded`` decisions.
"""

import random
import sys
import threading

from repro.coalition import CoalitionServer, build_joint_request
from repro.pki import ValidityPeriod
from repro.service import Overloaded
from repro.service.wire import decision_to_dict, decision_wire_bytes

from .conftest import ACL_ENTRIES, WINDOW

SUBMITTERS = 4
BATCHES = 6
BATCH = 5


def _read(users, cert, obj, now, nonce):
    return build_joint_request(
        users[0], [], "read", obj, cert, now=now, nonce=nonce
    )


def _write(users, cert, obj, now, nonce):
    return build_joint_request(
        users[0], [users[1]], "write", obj, cert, now=now, nonce=nonce
    )


def _oracle(ctx):
    server = CoalitionServer("OracleP", freshness_window=WINDOW)
    ctx["coalition"].attach_server(server)
    for name in ("ObjectO", "ObjectP"):
        server.create_object(name, b"seed", ACL_ENTRIES, admin_group="G_admin")
    return server


def _wire(decision):
    return decision_wire_bytes(decision_to_dict(decision))


def test_concurrent_submitters_match_the_sequential_protocol(
    service_coalition,
):
    ctx, make_service = service_coalition
    service = make_service(mode="threaded", queue_depth=512)
    coalition, users = ctx["coalition"], ctx["users"]
    validity = ValidityPeriod(0, WINDOW)
    write_certs = [
        coalition.authority.issue_threshold_certificate(
            users, 2, "G_write", 0, validity
        )
        for _ in range(3)
    ]
    # Each nonce is used on ObjectO by one submitter and on ObjectP by
    # the next, so same-nonce chains cross both objects and submitters.
    rng = random.Random(7)
    plans = [[] for _ in range(SUBMITTERS)]
    for k in range(SUBMITTERS * BATCHES * BATCH // 2):
        nonce = f"ct-{k}"
        now = 10 + k
        for offset, obj in enumerate(("ObjectO", "ObjectP")):
            if rng.random() < 0.5:
                request = _read(users, ctx["read_cert"], obj, now, nonce)
            else:
                cert = rng.choice(write_certs)
                request = _write(users, cert, obj, now, nonce)
            plans[(k + offset) % SUBMITTERS].append((request, now))

    tickets, pending_on_return = [], []
    lock = threading.Lock()
    published = []  # (epoch_id, revocation, now), in publish order
    start = threading.Barrier(SUBMITTERS + 1)

    def submit(plan):
        start.wait()
        for i in range(0, len(plan), BATCH):
            got = service.submit_batch(plan[i : i + BATCH])
            with lock:
                tickets.extend(got)
                pending_on_return.extend(t for t in got if not t.done())

    def publish():
        start.wait()
        for i, victim in enumerate(write_certs[:2]):
            now = 40 + 30 * i
            revocation = coalition.authority.revoke_certificate(victim, now=now)
            epoch = service.publish_revocation(revocation, now=now)
            published.append((epoch.epoch_id, revocation, now))

    threads = [threading.Thread(target=submit, args=(p,)) for p in plans]
    threads.append(threading.Thread(target=publish))
    # A short switch interval interleaves the submitters: with the
    # default 5 ms one submitter often decides its whole plan before
    # the next runs, and no same-nonce chain forms.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "deadlocked"
    assert not pending_on_return, "submit_batch returned undecided tickets"
    assert service.drain(timeout=10)
    assert len(tickets) == SUBMITTERS * BATCHES * BATCH
    # Same-nonce chains formed: some successor was admitted while its
    # predecessor was still undecided (every nonce is used twice).
    by_nonce = {}
    for ticket in sorted(tickets, key=lambda t: t.seq):
        by_nonce.setdefault(ticket.request.parts[0].nonce, []).append(ticket)
    assert any(b.submitted_at < a.completed_at for a, b in by_nonce.values())

    # Replay the admission order through one sequential protocol, with
    # each revocation applied before the first ticket that pinned it.
    server = _oracle(ctx)
    revocations = list(published)
    granted = denied = 0
    for ticket in sorted(tickets, key=lambda t: t.seq):
        while revocations and revocations[0][0] <= ticket.epoch.epoch_id:
            _, revocation, now = revocations.pop(0)
            server.receive_revocation(revocation, now=now)
        expected = server.handle_request(
            ticket.request, now=ticket.now, write_content=b"w"
        ).decision
        got = ticket.result(0)
        assert _wire(got) == _wire(expected), (ticket.seq, got, expected)
        granted += got.granted
        denied += not got.granted
    # Every nonce is used twice: the second use is a replay deny.
    assert granted > 10 and denied > 10


def test_batch_admissions_warm_the_next_epoch(service_coalition):
    """A publish forks the caches the batch just filled, minus its victim.

    With worker threads the batch was often decided after the publish,
    filling the superseded epoch's caches instead.
    """
    ctx, make_service = service_coalition
    service = make_service(mode="threaded")
    coalition, users = ctx["coalition"], ctx["users"]
    victim = coalition.authority.issue_threshold_certificate(
        users, 2, "G_write", 0, ValidityPeriod(0, WINDOW)
    )
    batch = []
    for i, obj in enumerate(("ObjectO", "ObjectP")):
        batch.append((_read(users, ctx["read_cert"], obj, 5, f"wc-r{i}"), 5))
        batch.append((_write(users, victim, obj, 5, f"wc-w{i}"), 5))
    tickets = service.submit_batch(batch)
    assert all(t.result(0).granted for t in tickets)

    before = set(service.epochs.current.protocol._cert_cache)
    assert ctx["read_cert"] in before and victim in before
    revocation = coalition.authority.revoke_certificate(victim, now=6)
    protocol = service.publish_revocation(revocation, now=6).protocol
    assert set(protocol._cert_cache) == before - {victim}
    assert protocol.stats()["cert_cache_entries"] == len(before) - 1


def test_batch_beyond_queue_depth_sheds_its_excess(service_coalition):
    ctx, make_service = service_coalition
    service = make_service(mode="threaded", queue_depth=4)
    users, cert = ctx["users"], ctx["read_cert"]
    tickets = service.submit_batch(
        [(_read(users, cert, "ObjectO", 5, f"qd-{i}"), 5) for i in range(10)]
    )
    assert all(t.done() for t in tickets)
    decisions = [t.result(0) for t in tickets]
    assert all(d.granted for d in decisions[:4])
    shed = decisions[4:]
    assert all(isinstance(d, Overloaded) and not d.granted for d in shed)
    assert all(d.queue_depth == 4 for d in shed)
    assert all(
        d.reason == "overloaded: admission queue at depth 4" for d in shed
    )
    stats = service.stats()["service"]
    assert (stats["evaluated"], stats["overloaded"], stats["submitted"]) == (
        4, 6, 10,
    )
