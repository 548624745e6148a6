"""Admission control: the bounded queue, load shedding, tickets.

The service never blocks a submitter and never drops a request
silently.  Every submission gets a :class:`Ticket`; when the admission
queue is full the ticket is resolved immediately with a typed
:class:`Overloaded` decision, so callers can distinguish "denied by
policy" from "shed by the server" and retry with backoff.  A duplicate
submission is not special here: it gets its own ticket, and the nonce
ledger denies it as a replay.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from ..coalition.protocol import AuthorizationDecision
from ..coalition.requests import JointAccessRequest

__all__ = [
    "Overloaded",
    "CircuitOpen",
    "CircuitBreaker",
    "Errored",
    "Ticket",
    "AdmissionQueue",
]


@dataclass
class Overloaded(AuthorizationDecision):
    """A typed load-shed decision: the request was never evaluated.

    ``granted`` is always False; ``queue_depth`` is the bound of the
    queue that refused the work.  Being a real decision type (not an
    exception, not a silent drop) keeps the caller-facing contract
    uniform: every submitted request resolves to exactly one decision.
    """

    queue_depth: int = 0

    @property
    def shed(self) -> bool:
        return True


@dataclass
class CircuitOpen(Overloaded):
    """Shed because the service's circuit breaker is open.

    Issued both at admission time (new requests once the breaker
    tripped) and by the give-up failover that resolves the tickets
    already queued.  ``restarts`` records how many restarts the
    decider burned before the breaker gave up.
    """

    restarts: int = 0


class CircuitBreaker:
    """The decider's crash budget: closed (serving) or open (shedding).

    A crash within the budget is a logical restart: the decider keeps
    draining the queue.  The crash after ``max_restarts`` restarts
    trips the breaker open, and it stays open — give-up is terminal;
    the service sheds its traffic with typed
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
        caller must fail the queue over rather than restart.
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

    error_type: str = ""

    @property
    def errored(self) -> bool:
        return True


class Ticket:
    """A pending decision: resolved exactly once by its decider.

    Carries the admission-time pinning (epoch and sequence number)
    plus wall-clock timestamps for latency percentiles.
    """

    __slots__ = (
        "request",
        "now",
        "epoch",
        "seq",
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
        seq: int,
    ):
        self.request = request
        self.now = now
        self.epoch = epoch
        self.seq = seq
        self.submitted_at = time.perf_counter()
        self.completed_at: Optional[float] = None
        # Decision trace (repro.obs.trace): the root span of this
        # request's trace tree plus the open queue-wait child the
        # decider closes at dequeue.  Both None when tracing is off.
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


class AdmissionQueue:
    """A bounded FIFO of tickets; full means shed, never block or drop.

    Tickets are pushed under the admission lock and requeued at the
    head, so the queue holds them in sequence (and epoch) order.
    """

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.depth = depth
        self._items: Deque[Ticket] = deque()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

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
        original admission order (a push would file them behind
        tickets admitted later).  Deliberately ignores ``depth``
        — these tickets were already admitted once and must not be
        shed for a bound they previously fit inside.
        """
        with self._lock:
            for ticket in reversed(tickets):
                self._items.appendleft(ticket)

    def take(self, limit: Optional[int] = None) -> "list[Ticket]":
        """Remove and return the oldest ``limit`` queued tickets (all
        when ``limit`` is None): a decider's take, or give-up
        failover."""
        with self._lock:
            items = self._items
            if limit is None or limit >= len(items):
                taken = list(items)
                items.clear()
                return taken
            return [items.popleft() for _ in range(limit)]

    def head_epoch_id(self) -> Optional[int]:
        """Epoch id the head (oldest) queued ticket pinned, if any.

        Queues are FIFO and epochs are pinned monotonically at
        admission, so the head is the stalest — health probes report
        ``current_epoch - head_epoch`` as the epoch staleness.
        """
        with self._lock:
            if not self._items:
                return None
            return self._items[0].epoch.epoch_id
