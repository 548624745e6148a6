"""Service vs. sequential oracle — byte-identical decisions.

Same oracle-parity style as ``tests/core/test_store_parity.py``: feed a
randomized stream of reads, writes, replays, stale requests, unknown
objects and interleaved revocations both to an
:class:`AuthorizationService` (large queue so nothing is shed) and to
a plain sequential :class:`CoalitionServer` attached to the same
coalition, then require ``granted`` *and* ``reason`` to match exactly
for every event.

The service admits the stream in ``submit_batch`` calls of ``batch``
requests (flushed before each revocation, so every request pins the
epoch the oracle saw), so a verbatim replay can share a batch with its
original: the oracle denies it, and so must the service.
"""

import random

import pytest

from repro.coalition import CoalitionServer, build_joint_request
from repro.pki import ValidityPeriod

from .conftest import ACL_ENTRIES, WINDOW

FRESHNESS = 50


def _drive(
    service, server, coalition, users, read_cert, seed, events=110,
    pump_each=False, batch=1,
):
    """Run one mirrored stream; return [(ticket, oracle_decision)].

    ``pump_each`` decides every ticket (manual mode) before the next
    event, so revocations land between evaluations, not only between
    admissions.  ``batch`` requests are admitted per ``submit_batch``.
    """
    rng = random.Random(seed)
    validity = ValidityPeriod(0, WINDOW)
    write_certs = [
        coalition.authority.issue_threshold_certificate(
            users, 2, "G_write", 0, validity
        )
        for _ in range(4)
    ]
    objects = ["ObjectO", "ObjectP", "Ghost"]
    history = []
    paired = []
    pending = []  # (request, now, oracle decision) not yet admitted

    def flush():
        tickets = service.submit_batch([(r, n) for r, n, _ in pending])
        paired.extend(zip(tickets, [d for _, _, d in pending]))
        pending.clear()

    now = FRESHNESS + 10
    for i in range(events):
        now += rng.randrange(0, 3)
        roll = rng.random()
        if roll < 0.08 and len(write_certs) > 1:
            flush()
            victim = write_certs.pop(rng.randrange(len(write_certs)))
            revocation = coalition.authority.revoke_certificate(victim, now=now)
            service.publish_revocation(revocation, now=now)
            server.receive_revocation(revocation, now=now)
            continue
        if roll < 0.22 and history:
            request = rng.choice(history)  # replay an old nonce verbatim
        elif roll < 0.30:
            # Stale: signed far outside the freshness window.
            request = build_joint_request(
                users[0], [], "read", rng.choice(objects),
                read_cert, now=now - FRESHNESS - 20, nonce=f"pf-stale-{i}",
            )
        elif roll < 0.62:
            request = build_joint_request(
                users[0], [], "read", rng.choice(objects),
                read_cert, now=now, nonce=f"pf-r-{i}",
            )
        else:
            request = build_joint_request(
                users[0], [users[1]], "write", rng.choice(objects),
                rng.choice(write_certs), now=now, nonce=f"pf-w-{i}",
            )
        history.append(request)
        oracle = server.handle_request(request, now=now, write_content=b"w")
        pending.append((request, now, oracle.decision))
        if len(pending) >= batch:
            flush()
        if pump_each:
            service.pump()
    flush()
    return paired


def _oracle_server(ctx):
    server = CoalitionServer("OracleP", freshness_window=FRESHNESS)
    ctx["coalition"].attach_server(server)
    for name in ("ObjectO", "ObjectP"):
        server.create_object(name, b"seed", ACL_ENTRIES, admin_group="G_admin")
    return server


def _assert_parity(paired):
    granted = denied = 0
    for i, (ticket, expected) in enumerate(paired):
        got = ticket.result()
        assert (got.granted, got.reason) == (
            expected.granted, expected.reason
        ), f"event {i}: service={got!r} oracle={expected!r}"
        granted += got.granted
        denied += not got.granted
    # The stream must actually exercise both outcomes to mean anything.
    assert granted > 10 and denied > 10


@pytest.mark.parametrize("batch", [1, 2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_manual_mode_parity_fuzz(service_coalition, batch, seed):
    ctx, make_service = service_coalition
    service = make_service(
        mode="manual", queue_depth=512, freshness_window=FRESHNESS,
    )
    server = _oracle_server(ctx)
    paired = _drive(
        service, server, ctx["coalition"], ctx["users"], ctx["read_cert"],
        seed, batch=batch,
    )
    service.pump()
    _assert_parity(paired)


def test_manual_mode_pump_per_submit_parity_fuzz(service_coalition):
    """Pumping after every submit; decisions still match."""
    ctx, make_service = service_coalition
    service = make_service(
        mode="manual", queue_depth=512,
        freshness_window=FRESHNESS,
    )
    server = _oracle_server(ctx)
    paired = _drive(
        service, server, ctx["coalition"], ctx["users"], ctx["read_cert"],
        seed=4, pump_each=True,
    )
    _assert_parity(paired)


@pytest.mark.parametrize("batch", [2, 4])
def test_threaded_mode_parity_fuzz(service_coalition, batch):
    """Decided on the submitting thread, batch by batch."""
    ctx, make_service = service_coalition
    service = make_service(
        mode="threaded", queue_depth=512, freshness_window=FRESHNESS,
    )
    server = _oracle_server(ctx)
    paired = _drive(
        service, server, ctx["coalition"], ctx["users"], ctx["read_cert"],
        seed=3, batch=batch,
    )
    assert service.drain(timeout=30)
    _assert_parity(paired)
