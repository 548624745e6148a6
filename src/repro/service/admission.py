"""Admission control: bounded queues, load shedding, tickets, dedup.

The service never blocks a submitter and never drops a request
silently.  Every submission gets a :class:`Ticket`; when a shard's
queue is full the ticket is resolved immediately with a typed
:class:`Overloaded` decision, so callers can distinguish "denied by
policy" from "shed by the server" and retry with backoff.

Identical concurrent requests (same operation, object, parts and
decision time) coalesce onto one evaluation per shard: the second
submitter receives the *same* ticket and therefore the same decision
object, instead of paying a second derivation.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from ..coalition.protocol import AuthorizationDecision
from ..coalition.requests import JointAccessRequest

__all__ = [
    "Overloaded",
    "CircuitOpen",
    "CircuitBreaker",
    "Errored",
    "Ticket",
    "ShardQueue",
    "request_fingerprint",
]


@dataclass
class Overloaded(AuthorizationDecision):
    """A typed load-shed decision: the request was never evaluated.

    ``granted`` is always False; ``shard``/``queue_depth`` say which
    queue refused the work.  Being a real decision type (not an
    exception, not a silent drop) keeps the caller-facing contract
    uniform: every submitted request resolves to exactly one decision.
    """

    shard: int = -1
    queue_depth: int = 0

    @property
    def shed(self) -> bool:
        return True


@dataclass
class CircuitOpen(Overloaded):
    """Shed because the shard's circuit breaker is open (shard FAILED).

    Issued both at admission time (new requests for a failed shard)
    and by the give-up failover that resolves the tickets a failed
    shard had already queued.  ``restarts`` records how many restarts
    the shard burned before its breaker gave up on it.
    """

    restarts: int = 0


class CircuitBreaker:
    """Per-shard crash budget: closed (serving) or open (shedding).

    A crash within the budget is a logical restart: the decider keeps
    draining the shard's queue.  The crash after ``max_restarts``
    restarts trips the breaker open, and it stays open — give-up is
    terminal for a shard; the service sheds its traffic with typed
    :class:`CircuitOpen` decisions instead of crash-looping.  Only the
    decider (under the service's decision lock) records crashes.
    """

    def __init__(self, max_restarts: int = 3):
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self.max_restarts = max_restarts
        self.crashes = 0
        self.restarts = 0
        self.last_error = ""
        self.is_open = False

    @property
    def state(self) -> str:
        return "open" if self.is_open else "closed"

    def record_crash(self, error_type: str) -> bool:
        """Account one crash; return whether it tripped the breaker.

        True means the budget is spent: the breaker is now open and the
        caller must fail the shard over rather than restart it.
        """
        self.crashes += 1
        self.last_error = error_type
        if self.crashes > self.max_restarts:
            self.is_open = True
            return True
        self.restarts += 1
        return False


@dataclass
class Errored(AuthorizationDecision):
    """Evaluation raised: the request has no policy answer, only a fault.

    Per-ticket fault isolation (DESIGN.md §11) converts an exception
    inside the evaluation path into this decision instead of letting
    it escape the decider.  ``granted`` is always False — fail
    closed — and ``error_type`` records the exception class so callers
    and metrics can distinguish "denied by policy" from "errored".
    """

    shard: int = -1
    error_type: str = ""

    @property
    def errored(self) -> bool:
        return True


class Ticket:
    """A pending decision: resolved exactly once by its decider.

    Carries the admission-time pinning (epoch, shard, global sequence
    number) plus wall-clock timestamps for latency percentiles.
    """

    __slots__ = (
        "request",
        "now",
        "epoch",
        "shard",
        "seq",
        "coalesced",
        "submitted_at",
        "completed_at",
        "trace",
        "queue_span",
        "_decision",
        "_done",
    )

    def __init__(
        self,
        request: JointAccessRequest,
        now: int,
        epoch: object,
        shard: int,
        seq: int,
    ):
        self.request = request
        self.now = now
        self.epoch = epoch
        self.shard = shard
        self.seq = seq
        self.coalesced = 0  # extra submitters served by this evaluation
        self.submitted_at = time.perf_counter()
        self.completed_at: Optional[float] = None
        # Decision trace (repro.obs.trace): the root span of this
        # request's trace tree plus the open queue-wait child the
        # worker closes at dequeue.  Both None when tracing is off.
        self.trace = None
        self.queue_span = None
        self._decision: Optional[AuthorizationDecision] = None
        self._done = threading.Event()

    @property
    def trace_id(self) -> str:
        return self.trace.trace_id if self.trace is not None else ""

    def resolve(self, decision: AuthorizationDecision) -> None:
        self._decision = decision
        self.completed_at = time.perf_counter()
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> AuthorizationDecision:
        if not self._done.wait(timeout):
            raise TimeoutError(f"ticket seq={self.seq} not resolved in time")
        assert self._decision is not None
        return self._decision

    @property
    def latency_s(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


class ShardQueue:
    """A bounded FIFO of tickets; full means shed, never block or drop."""

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.depth = depth
        self._items: Deque[Ticket] = deque()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def try_push(self, ticket: Ticket) -> bool:
        """Admit the ticket unless the queue is at depth (backpressure)."""
        with self._lock:
            if len(self._items) >= self.depth:
                return False
            self._items.append(ticket)
            return True

    def try_push_batch(self, tickets: "list[Ticket]") -> int:
        """Admit a prefix of ``tickets``; return how many fit.

        One lock acquisition for the whole batch — the amortization
        ``submit_batch`` relies on.  Tickets
        past the remaining capacity are *not* queued; the caller sheds
        them (FIFO order within the batch is preserved: the accepted
        prefix is exactly ``tickets[:returned]``).
        """
        with self._lock:
            room = self.depth - len(self._items)
            if room <= 0:
                return 0
            accepted = tickets[:room]
            self._items.extend(accepted)
            return len(accepted)

    def push_front_batch(self, tickets: "list[Ticket]") -> None:
        """Return un-evaluated tickets to the *head* of the queue.

        A decider that stops mid-batch (a crash, or a pump limit) hands
        its untouched remainder back so the next drain sees the
        original admission order (a plain ``try_push`` would file them
        behind tickets admitted later).  Deliberately ignores ``depth``
        — these tickets were already admitted once and must not be
        shed for a bound they previously fit inside.
        """
        with self._lock:
            for ticket in reversed(tickets):
                self._items.appendleft(ticket)

    def drain_all(self) -> "list[Ticket]":
        """Remove and return every queued ticket (a decider's take, or
        give-up failover)."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
            return items

    def head_epoch_id(self) -> Optional[int]:
        """Epoch id the head (oldest) queued ticket pinned, if any.

        Queues are FIFO and epochs are pinned monotonically at
        admission, so the head is the stalest — health probes report
        ``current_epoch - head_epoch`` as the shard's epoch staleness.
        """
        with self._lock:
            if not self._items:
                return None
            return self._items[0].epoch.epoch_id


def request_fingerprint(
    request: JointAccessRequest, now: int
) -> Tuple[object, ...]:
    """Identity of an evaluation, for in-flight dedup.

    Two submissions coalesce only when every decision-relevant input is
    identical: operation, object, decision time, the threshold
    certificate and the exact signed parts.  All components are frozen
    dataclasses, so the tuple is hashable.
    """
    return (
        request.operation,
        request.object_name,
        now,
        request.attribute_certificate,
        tuple(request.parts),
    )
