"""Seeded request streams, each request paired with the decision it must get.

Pure Python with no import of ``repro``: the plan says *what* to send
and *what must come back*; the launcher and the client turn it into
signed requests.  The same seed always gives the same plan.

Expected denies come from two sources only:

* replays: a fixed share of requests re-send an earlier request that was
  granted and has been answered, so the server must deny it as a replay;
* revocations (``revoke-churn``): a request that presents a certificate
  whose revocation was published before the request was submitted must
  be denied as revoked.

Everything else must be granted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Union

REPLAY_SHARE = 0.02
# An edge replay re-sends a request at least this many positions back,
# so its original has normally been answered long before; the client
# still holds a replay until the original's answer is in.
EDGE_REPLAY_GAP = 256
NUM_OBJECTS = 8

GRANT = "access approved"
REPLAY = "replayed request"
REVOKED = "membership revoked"


@dataclass(frozen=True)
class Op:
    """One request: what it asks for and the decision it must get."""

    index: int
    op: str  # "read" (1-of-3 certificate) or "write" (2-of-3 certificate)
    obj: int  # object number in [0, NUM_OBJECTS)
    cert: int = -1  # certificate id (revoke-churn); -1 = the shared read/write cert
    replay_of: int = -1  # index of the request re-sent verbatim; -1 = fresh
    expect: str = GRANT  # GRANT, REPLAY or REVOKED (a substring of the reason)

    @property
    def expect_grant(self) -> bool:
        return self.expect == GRANT


@dataclass(frozen=True)
class Revoke:
    """Publish the revocation of certificate ``cert``."""

    cert: int


def check(op: Op, granted: bool, reason: str) -> bool:
    """Whether a decision is the one ``op`` must get."""
    if op.expect_grant:
        return granted
    return not granted and op.expect in reason


def edge_ops(seed: int, n: int) -> List[Op]:
    """The edge workloads' stream: 50/50 read/write, uniform objects.

    Two shared certificates (1-of-3 read, 2-of-3 write) so the
    certificate cache is warm; ``REPLAY_SHARE`` of the requests after
    the first ``EDGE_REPLAY_GAP`` replay a fresh request from between
    one and two gaps back.
    """
    rng = random.Random(f"edge:{seed}")
    ops: List[Op] = []
    for i in range(n):
        if i >= 2 * EDGE_REPLAY_GAP and rng.random() < REPLAY_SHARE:
            j = rng.randrange(i - 2 * EDGE_REPLAY_GAP, i - EDGE_REPLAY_GAP)
            original = ops[j]
            if original.replay_of >= 0:
                original = ops[original.replay_of]
            ops.append(
                Op(i, original.op, original.obj, replay_of=original.index,
                   expect=REPLAY)
            )
            continue
        op = "read" if rng.random() < 0.5 else "write"
        ops.append(Op(i, op, rng.randrange(NUM_OBJECTS)))
    return ops


# revoke-churn: one revocation follows every BATCH decisions.  At this
# ratio publishing takes about a sixth of a run's time; at one per 8 it
# took about 40%, so that throughput_rps largely repeated revoke_p50_ms.
BATCH = 24
LIVE_CERTS = 24  # certificates in use at any time, three per object
# Requests that present an already revoked certificate: with BATCH=24
# about two per batch, so every run checks hundreds of revoked denies.
REVOKED_SHARE = 0.08


def cert_kind(cert: int) -> str:
    """Even certificates are 1-of-3 read, odd ones 2-of-3 write."""
    return "read" if cert % 2 == 0 else "write"


def churn_events(seed: int) -> Iterator[Union[List[Op], Revoke]]:
    """Endless revoke-churn program: a batch of ops, a revocation, repeat.

    Certificates ``0 .. LIVE_CERTS-1`` start in use; every revocation
    retires one in-use certificate (one the stream has presented) and
    brings the next unused id into use, so certificate ``k`` is needed
    only once ``k - LIVE_CERTS`` revocations have happened.  A request
    presents a revoked certificate with probability
    ``REVOKED_SHARE`` (expected: revoked) and replays a granted
    request from two or more batches back with probability
    ``REPLAY_SHARE`` (expected: replay).  A run that waits for batch
    ``k`` before it submits batch ``k + 2`` therefore only ever replays
    answered requests.
    """
    rng = random.Random(f"churn:{seed}")
    live = list(range(LIVE_CERTS))
    next_cert = LIVE_CERTS
    revoked: List[int] = []
    granted: List[Op] = []  # granted ops from batches at least two back
    previous_batch: List[Op] = []
    index = 0
    while True:
        batch: List[Op] = []
        for _ in range(BATCH):
            roll = rng.random()
            op: Optional[Op] = None
            if roll < REPLAY_SHARE and granted:
                original = granted[rng.randrange(len(granted))]
                op = Op(index, original.op, original.obj, original.cert,
                        replay_of=original.index, expect=REPLAY)
            elif roll < REPLAY_SHARE + REVOKED_SHARE and revoked:
                cert = revoked[rng.randrange(len(revoked))]
                op = Op(index, cert_kind(cert), rng.randrange(NUM_OBJECTS),
                        cert, expect=REVOKED)
            else:
                cert = live[rng.randrange(len(live))]
                op = Op(index, cert_kind(cert), rng.randrange(NUM_OBJECTS), cert)
            batch.append(op)
            index += 1
        yield batch
        granted.extend(op for op in previous_batch if op.expect_grant)
        previous_batch = batch
        used = sorted({op.cert for op in batch if op.cert in live})
        victim = used[rng.randrange(len(used))] if used else live[0]
        live.remove(victim)
        live.append(next_cert)
        next_cert += 1
        revoked.append(victim)
        yield Revoke(victim)
