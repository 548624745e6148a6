"""The epoched, backpressured authorization service.

:class:`AuthorizationService` is the serving layer in front of
:class:`~repro.coalition.protocol.AuthorizationProtocol`:

* **Epochs** — policy state (trust anchors, ACLs, revocations) is
  pinned at admission; each epoch holds the one protocol every ticket
  decides against, so a revocation is forked and applied once; see
  :mod:`repro.service.epoch`.
* **Backpressure** — one bounded admission queue; a full queue
  resolves the ticket with a typed
  :class:`~repro.service.admission.Overloaded` decision instead of
  queueing unboundedly or dropping silently.
* **Replay parity** — one nonce ledger spans every epoch, and every
  ticket is decided in sequence order, so grant/deny decisions are
  byte-identical to a single sequential protocol evaluating the same
  admission stream.  A duplicate submission is decided like any other
  request: the ledger denies the second copy as a replay.
* **Fault isolation** — evaluation exceptions become typed
  :class:`~repro.service.admission.Errored` decisions; the decider has
  a :class:`~repro.service.admission.CircuitBreaker` restart budget,
  and once it is spent the queue fails over: queued and future
  requests shed with typed
  :class:`~repro.service.admission.CircuitOpen` decisions.  No
  admitted ticket is ever stranded (DESIGN.md §11).

Execution modes: ``threaded`` (thread-safe; decided on the submitting
thread) and ``manual`` (tickets queue until :meth:`pump` or
:meth:`authorize`, deterministic — what the epoch tests, scenarios and
replay drive).  Both run one engine: the caller takes the service's
decision lock and decides every queued ticket in sequence order
(:meth:`_drain_queue`); threaded mode runs it inside
:meth:`submit`/:meth:`submit_batch`, so they return resolved tickets,
and manual mode runs it when the caller pumps.  A chaos
``WorkerKilled`` is a logical restart that burns the restart budget.

Admission is **batched** (DESIGN.md §12): callers can admit N
requests in one pass under the admission lock
(:meth:`AuthorizationService.submit_batch`), and a decided batch's
tickets are accounted with a single admission-lock sweep.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Optional

from ..coalition.acl import ACL, ACLEntry
from ..coalition.audit import AuditLog
from ..coalition.protocol import (
    DEFAULT_FRESHNESS_WINDOW,
    AuthorizationDecision,
    AuthorizationProtocol,
    NonceLedger,
)
from ..coalition.requests import JointAccessRequest
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer, TraceSpan
from ..pki.certificates import RevocationCertificate
from .admission import (
    AdmissionQueue,
    CircuitBreaker,
    CircuitOpen,
    Errored,
    Overloaded,
    Ticket,
)
from .chaos import FaultInjector, WorkerKilled
from .epoch import Epoch, EpochManager, PolicyEntry
from ..storage.wal import EpochRecord

__all__ = ["AuthorizationService", "ServiceError"]

_MODES = ("threaded", "manual")


class ServiceError(Exception):
    """Misuse of the service lifecycle (config after seal, bad mode...)."""


class _TrustFanout:
    """Duck-types the ``server.protocol`` surface coalition setup uses.

    ``Coalition.attach_server`` configures ``server.protocol`` directly;
    exposing this proxy as :attr:`AuthorizationService.protocol` lets a
    service be attached exactly like a :class:`CoalitionServer`.
    """

    def __init__(self, service: "AuthorizationService"):
        self._service = service

    def trust_domain_ca(self, *args, **kwargs) -> None:
        self._service._configure("trust_domain_ca", *args, **kwargs)

    def trust_coalition_aa(self, *args, **kwargs) -> None:
        self._service._configure("trust_coalition_aa", *args, **kwargs)

    def trust_revocation_authority(self, *args, **kwargs) -> None:
        self._service._configure("trust_revocation_authority", *args, **kwargs)


class AuthorizationService:
    """Authorization with epochs, load shedding and a circuit breaker.

    ``num_shards`` is accepted for perfbench's fixture, which still
    passes its ``--shards``; it must be >= 1 and is otherwise ignored
    (there is one admission queue).  It goes with perfbench's
    ``--shards`` in the next benchmark change.
    """

    def __init__(
        self,
        name: str = "ServiceP",
        num_shards: int = 1,
        queue_depth: int = 256,
        freshness_window: int = DEFAULT_FRESHNESS_WINDOW,
        trust_epoch: int = 0,
        mode: str = "threaded",
        tracing: bool = False,
        trace_export: Optional[str] = None,
        audit_log: Optional[AuditLog] = None,
        max_restarts: int = 3,
        chaos: Optional[FaultInjector] = None,
        wal_dir: Optional[str] = None,
        wal_sync_every: int = 64,
        wal_sync_interval_s: float = 0.0,
        wal_segment_bytes: int = 1 << 20,
        wal_manifest: Optional[Dict[str, object]] = None,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if mode not in _MODES:
            raise ServiceError(f"unknown mode {mode!r}; pick one of {_MODES}")
        self.name = name
        self.queue_depth = queue_depth
        self.mode = mode
        # One replay ledger across every epoch: replays must deny
        # globally, unlike belief state which epochs snapshot.
        self.nonce_ledger = NonceLedger(freshness_window)
        # One belief state (the paper's one verifier): the lock guards
        # evaluation and forks of it.
        self._protocol_lock = threading.Lock()
        self.epochs = EpochManager(
            AuthorizationProtocol(
                verifier_name=name,
                freshness_window=freshness_window,
                trust_epoch=trust_epoch,
                nonce_ledger=self.nonce_ledger,
            ),
            self._protocol_lock,
        )
        self.protocol = _TrustFanout(self)
        self._queue = AdmissionQueue(queue_depth)
        # The decider's crash budget; a crash is a logical restart.
        self._breaker = CircuitBreaker(max_restarts=max_restarts)
        self.chaos = chaos
        # The caller deciding queued tickets holds this lock (one
        # decider at a time, in sequence order).  The decision count
        # feeds the chaos loop-top hook and restarts from zero with
        # each logical restart.
        self._decision_lock = threading.Lock()
        self._decided = 0
        # Admission bookkeeping under one lock: sequence numbers, queue
        # pushes and completion counters.
        self._admission_lock = threading.Lock()
        self._next_seq = 0
        self._outstanding = 0
        self._drained = threading.Condition(self._admission_lock)
        # A request or publish seals the trust configuration fast path;
        # later trust changes go through epoch publishes.
        self._sealed = False
        self._closed = False
        # Counters and latency histograms (admission side; evaluation
        # detail lives on tickets).  The unified registry backs the
        # stats() view and the merged metrics snapshot.
        self.metrics = MetricsRegistry("service")
        self.submitted = self.metrics.counter("submitted")
        self.evaluated = self.metrics.counter("evaluated")
        self.granted = self.metrics.counter("granted")
        self.denied = self.metrics.counter("denied")
        self.overloaded = self.metrics.counter("overloaded")
        self.errored = self.metrics.counter("errored")
        self.crashes = self.metrics.counter("crashes")
        self.restarts = self.metrics.counter("restarts")
        self.circuit_open_sheds = self.metrics.counter("circuit_open_sheds")
        self._queue_wait_hist = self.metrics.histogram("queue_wait_s")
        self._latency_hist = self.metrics.histogram("request_latency_s")
        # Decision tracing: zero-cost when off (the default) — begin()
        # returns None and every instrumentation site checks for it.
        self.tracer = Tracer(enabled=tracing, export_path=trace_export)
        # Optional hash-chained audit log; every resolved decision
        # (including sheds and errors) is appended with its trace id.
        # With ``wal_dir`` the log is durable: entries and epoch
        # publications stream into a segmented write-ahead log, and an
        # existing directory is recovered (torn tail healed, chain
        # re-seeded and resumed) before the service starts — see
        # repro.storage and DESIGN.md §13.
        self.wal = None
        self.recovered = None
        if wal_dir is not None:
            from ..storage.recovery import open_wal_log

            self.audit_log, self.wal, self.recovered = open_wal_log(
                wal_dir,
                audit_log=audit_log,
                manifest=wal_manifest,
                segment_bytes=wal_segment_bytes,
                sync_every=wal_sync_every,
                sync_interval_s=wal_sync_interval_s,
            )
        else:
            self.audit_log = audit_log

    # ------------------------------------------------------ configuration

    def _configure(self, method: str, *args, **kwargs) -> None:
        """Apply a trust_* call to the protocol.

        Before the first request this writes the epoch-0 protocol in
        place; afterwards it publishes a new epoch so pinned evaluations
        never observe a half-configured trust set.
        """
        if not self._sealed:
            with self._protocol_lock:
                getattr(self.epochs.current.protocol, method)(*args, **kwargs)
            return
        epoch = self.epochs.publish_mutation(
            lambda protocol: getattr(protocol, method)(*args, **kwargs)
        )
        self._record_epoch("trust", epoch, detail=method)

    def _record_epoch(
        self, kind: str, epoch: Epoch, detail: str = "", timestamp: int = 0
    ) -> None:
        """Log an epoch publication to the WAL (when one is bound).

        ``timestamp`` is logical protocol time, so recorded epochs are
        byte-stable across process restarts (replay depends on it).
        """
        if self.wal is not None:
            self.wal.append_epoch(
                EpochRecord(
                    kind=kind,
                    epoch_id=epoch.epoch_id,
                    detail=detail,
                    timestamp=timestamp,
                )
            )

    def register_object(
        self,
        name: str,
        acl_entries: Iterable[ACLEntry],
        admin_group: str,
    ) -> Epoch:
        """Publish a new object's policy (ACL + admin group)."""
        current = self.epochs.current
        if name in current.acls:
            raise ValueError(f"object {name!r} already registered")
        entry = PolicyEntry(acl=ACL(list(acl_entries)), admin_group=admin_group)
        self._sealed = True
        epoch = self.epochs.publish_policy(name, entry)
        self._record_epoch("policy", epoch, detail=name)
        return epoch

    def update_acl(self, name: str, acl_entries: Iterable[ACLEntry]) -> Epoch:
        """Publish an ACL change for a registered object."""
        entry = self.epochs.current.acls.get(name)
        if entry is None:
            raise KeyError(f"object {name!r} is not registered")
        epoch = self.epochs.publish_policy(
            name, entry.updated(list(acl_entries))
        )
        self._record_epoch("policy", epoch, detail=name)
        return epoch

    # -------------------------------------------------------- revocation

    def publish_revocation(
        self, revocation: RevocationCertificate, now: int
    ) -> Epoch:
        """Admit a revocation as a new epoch (forked and applied once)."""
        self._sealed = True
        epoch = self.epochs.publish_revocation(revocation, now)
        self._record_epoch(
            "revocation", epoch, detail=revocation.revoked_serial, timestamp=now
        )
        return epoch

    # CoalitionServer-compatible spelling, so coalition dynamics can
    # push re-key revocations to an attached service unchanged.
    def receive_revocation(
        self, revocation: RevocationCertificate, now: int
    ) -> None:
        self.publish_revocation(revocation, now)

    # --------------------------------------------------------- admission

    def submit(self, request: JointAccessRequest, now: int) -> Ticket:
        """Admit a request: pin the epoch, queue (or shed).

        Returns a ticket that resolves to the decision — immediately
        with :class:`Overloaded` when the admission queue is full, or
        :class:`CircuitOpen` when the circuit breaker has tripped.  In
        threaded mode the ticket is already resolved: the calling
        thread decided it (and anything queued before it).
        """
        return self._admit_and_decide([(request, now)])[0]

    def submit_batch(
        self, batch: Iterable[tuple]
    ) -> List[Ticket]:
        """Admit ``(request, now)`` pairs under one admission pass.

        Semantically identical to calling :meth:`submit` per pair — the
        same tickets resolve to the same decisions, in the same
        sequence order — but the whole batch is admitted under one
        acquisition of the admission lock, with one ``try_push_batch``,
        so the per-request lock traffic amortizes across the batch.  In
        threaded mode every returned ticket is already resolved.
        """
        pairs = list(batch)
        if not pairs:
            return []
        return self._admit_and_decide(pairs)

    def _admit_and_decide(self, pairs: List[tuple]) -> List[Ticket]:
        tickets = self._admit(pairs)
        if self.mode == "threaded":
            self._drain_queue()
        return tickets

    def _admit(self, pairs: List[tuple]) -> List[Ticket]:
        """The admission path: one pass under the admission lock.

        Per request a sequence number and a ticket; then the breaker
        check and one ``try_push_batch``.  A ticket that is not queued
        (the breaker is open, or the queue is full) is still admitted,
        and resolves as a typed shed through :meth:`_shed` once the
        lock is released.

        Deciders take queued tickets and a breaker trip drains the
        queue (:meth:`_trip_breaker`) under the same lock, so a push is
        never split from its breaker check and the queue holds its
        tickets in sequence (and epoch) order.
        """
        if self._closed:
            raise ServiceError("service is closed")
        self._sealed = True
        tickets: List[Ticket] = []
        spans: List[Optional[TraceSpan]] = []
        with self._admission_lock:
            self.submitted.inc(len(pairs))
            self._outstanding += len(pairs)
            epoch = self.epochs.current
            for request, now in pairs:
                ticket = Ticket(
                    request=request, now=now, epoch=epoch, seq=self._next_seq
                )
                self._next_seq += 1
                tickets.append(ticket)
                root = ticket.trace = self._begin_trace(ticket)
                spans.append(
                    None if root is None
                    else root.child("admission", epoch_id=epoch.epoch_id)
                )
            circuit_open = self._breaker.is_open
            # An open breaker sheds now instead of queueing work nobody
            # will ever drain.
            accepted = 0 if circuit_open else self._queue.try_push_batch(tickets)
            for ticket, span in zip(tickets[:accepted], spans):
                if span is not None:
                    span.end(outcome="queued")
                    ticket.queue_span = ticket.trace.child("queue_wait")
            sheds = []
            for ticket, span in zip(tickets[accepted:], spans[accepted:]):
                if span is not None:
                    span.end(outcome="shed")
                if circuit_open:
                    decision: Overloaded = self._circuit_open_decision(
                        ticket, len(self._queue)
                    )
                else:
                    decision = Overloaded(
                        granted=False,
                        reason=(
                            f"overloaded: admission queue at depth "
                            f"{self.queue_depth}"
                        ),
                        operation=ticket.request.operation,
                        object_name=ticket.request.object_name,
                        checked_at=ticket.now,
                        queue_depth=self.queue_depth,
                    )
                sheds.append((ticket, decision))
        for ticket, decision in sheds:
            self._shed(ticket, decision)
        return tickets

    def _shed(self, ticket: Ticket, decision: Overloaded) -> None:
        """Resolve an admitted ticket that no decider will take.

        The one shed path: admission sheds (open breaker, full queue)
        and the tickets a tripped breaker fails over.
        """
        if ticket.trace is not None:
            ticket.trace.child("shed", reason=decision.reason).end()
        self._complete(ticket, decision)

    def _begin_trace(self, ticket: Ticket) -> Optional[TraceSpan]:
        return self.tracer.begin(
            "request",
            trace_id=f"{self.name}-{ticket.seq:08d}",
            operation=ticket.request.operation,
            object=ticket.request.object_name,
            seq=ticket.seq,
            now=ticket.now,
        )

    def _circuit_open_decision(
        self, ticket: Ticket, queue_depth: int
    ) -> CircuitOpen:
        breaker = self._breaker
        return CircuitOpen(
            granted=False,
            reason=(
                f"circuit open: restart budget exhausted "
                f"({breaker.restarts} restarts, "
                f"last error {breaker.last_error})"
            ),
            operation=ticket.request.operation,
            object_name=ticket.request.object_name,
            checked_at=ticket.now,
            queue_depth=queue_depth,
            restarts=breaker.restarts,
        )

    def authorize(
        self, request: JointAccessRequest, now: int
    ) -> AuthorizationDecision:
        """Submit and wait: the synchronous convenience path."""
        ticket = self.submit(request, now)
        if self.mode == "manual":
            self.pump()
        return ticket.result()

    # -------------------------------------------------------- evaluation

    def _decide(self, ticket: Ticket) -> AuthorizationDecision:
        """The raising decision path: epoch pin, derivation.

        Any ``Exception`` it raises becomes a typed :class:`Errored`
        decision in the caller (per-ticket fault isolation).
        ``BaseException`` (chaos ``WorkerKilled``) propagates: that is
        the crash path, which burns the restart budget.
        """
        root: Optional[TraceSpan] = ticket.trace
        self._queue_wait_hist.observe(
            time.perf_counter() - ticket.submitted_at
        )
        if ticket.queue_span is not None:
            ticket.queue_span.end()
        if self.chaos is not None:
            # Chaos hook: may sleep, raise InjectedFault (isolated to
            # this ticket) or raise WorkerKilled (crashes the decider).
            self.chaos.before_evaluate(ticket)
        epoch: Epoch = ticket.epoch
        request = ticket.request
        entry = epoch.acls.get(request.object_name)
        if root is not None:
            root.child("epoch_pin", epoch_id=epoch.epoch_id).end(
                object_known=entry is not None
            )
        derivation_span = None
        if root is not None:
            derivation_span = root.child("derivation")
        with self._protocol_lock:
            if entry is None:
                decision = AuthorizationDecision(
                    granted=False,
                    reason=f"no such object {request.object_name!r}",
                    operation=request.operation,
                    object_name=request.object_name,
                    checked_at=ticket.now,
                )
            else:
                decision = epoch.protocol.authorize(
                    request, entry.acl, ticket.now
                )
        if derivation_span is not None:
            attrs: Dict[str, object] = {
                "granted": decision.granted,
                "reason": decision.reason,
                "proof_steps": decision.derivation_steps,
            }
            if decision.proof is not None:
                # One pre-order walk: dict insertion order preserves
                # first appearance, so the keys ARE axioms_used().
                counts = decision.proof.axiom_counts()
                attrs["axioms"] = list(counts)
                attrs["axiom_counts"] = counts
            derivation_span.end(**attrs)
        return decision

    def _errored_decision(
        self, ticket: Ticket, exc: BaseException
    ) -> Errored:
        """Build the fail-closed decision for a faulted evaluation."""
        if ticket.trace is not None:
            ticket.trace.record_error(exc)
        return Errored(
            granted=False,
            reason=(
                f"errored: evaluation raised "
                f"{type(exc).__name__}: {exc}"
            ),
            operation=ticket.request.operation,
            object_name=ticket.request.object_name,
            checked_at=ticket.now,
            error_type=type(exc).__name__,
        )

    def _resolve_ticket(
        self, ticket: Ticket, decision: AuthorizationDecision
    ) -> None:
        """Wake the submitter: Event.set, latency, audit, trace finish."""
        if ticket.queue_span is not None:
            ticket.queue_span.end()
        ticket.resolve(decision)
        if (
            not isinstance(decision, Overloaded)
            and ticket.latency_s is not None
        ):
            self._latency_hist.observe(ticket.latency_s)
        root = ticket.trace
        if self.audit_log is not None:
            audit_span = None
            if root is not None:
                audit_span = root.child("audit_append")
            audit_entry = self.audit_log.append(
                decision, trace_id=ticket.trace_id
            )
            if audit_span is not None:
                audit_span.end(sequence=audit_entry.sequence)
        self.tracer.finish(root)

    def _account_batch(self, resolved: List[tuple]) -> None:
        """One admission-lock sweep accounting a batch of resolutions.

        Counters and the outstanding count for every
        ``(ticket, decision)`` pair run under a single lock
        acquisition — the batched half of completion.
        """
        if not resolved:
            return
        with self._admission_lock:
            for ticket, decision in resolved:
                if isinstance(decision, Errored):
                    self.errored.inc()
                elif isinstance(decision, Overloaded):
                    self.overloaded.inc()
                    if isinstance(decision, CircuitOpen):
                        self.circuit_open_sheds.inc()
                else:
                    self.evaluated.inc()
                    if decision.granted:
                        self.granted.inc()
                    else:
                        self.denied.inc()
                self._outstanding -= 1
            if self._outstanding == 0:
                self._drained.notify_all()

    def _complete(self, ticket: Ticket, decision: AuthorizationDecision) -> None:
        """Resolve and account one *admitted* ticket, exactly once.

        Shared by fault isolation, load shedding, circuit-breaker
        failover and close()-time stranded resolution.  The ``finally``
        guarantees the accounting runs even if audit or trace export
        raises — outstanding can never leak.
        """
        try:
            self._resolve_ticket(ticket, decision)
        finally:
            self._account_batch([(ticket, decision)])

    def _evaluate_batch(self, batch: List[Ticket]) -> None:
        """Decide ``batch`` in order; account it in one sweep.

        Per ticket: the chaos loop-top hook (``kill_after`` counts the
        decisions since the last restart), the decision, and an
        immediate :meth:`_resolve_ticket`.  The
        admission-lock accounting for the whole batch is one
        :meth:`_account_batch` flush in the ``finally``.

        A ``BaseException`` returns the unresolved rest of the batch,
        in order, to the head of the queue.  A chaos ``WorkerKilled``
        is then a logical restart: the ticket in hand (none at the
        loop top) resolves as errored and the restart budget is
        charged; anything else propagates.
        """
        acct: List[tuple] = []
        index, in_hand = 0, None
        try:
            for index, ticket in enumerate(batch):
                if self.chaos is not None:
                    self.chaos.on_worker_loop(self._decided)
                in_hand = ticket
                try:
                    decision: AuthorizationDecision = self._decide(ticket)
                except Exception as exc:  # noqa: BLE001 - fault isolation
                    decision = self._errored_decision(ticket, exc)
                in_hand = None
                try:
                    self._resolve_ticket(ticket, decision)
                finally:
                    # Even if audit/trace export raised, the event is
                    # set — the ticket must be accounted exactly once.
                    acct.append((ticket, decision))
                self._decided += 1
        except BaseException as exc:
            rest = [
                t for t in batch[index:]
                if t is not in_hand and not t.done()
            ]
            if not isinstance(exc, WorkerKilled):
                if in_hand is not None:
                    rest.insert(0, in_hand)
                self._queue.push_front_batch(rest)
                raise
            self._queue.push_front_batch(rest)
            self._decided = 0
            self._handle_crash(exc, in_hand)
        finally:
            self._account_batch(acct)

    def _drain_queue(self, limit: Optional[int] = None) -> int:
        """Decide queued tickets on this thread, in sequence order.

        The engine of both modes.  One decider at a time
        holds the decision lock; each round takes whatever is queued
        (under the admission lock, so no push interleaves with the
        take) and decides it as one batch, until the queue is empty
        (or ``limit`` tickets were taken).  Deciding in sequence order
        gives replay checks the admission order, so a same-nonce
        predecessor is always decided first (or was a shed, which
        consumes no nonce): no ticket waits for another.
        """
        taken = 0
        with self._decision_lock:
            while limit is None or taken < limit:
                with self._admission_lock:
                    batch = self._queue.take(
                        None if limit is None else limit - taken
                    )
                if not batch:
                    break
                taken += len(batch)
                self._evaluate_batch(batch)
        return taken

    # ------------------------------------------------------------ crashes

    def _handle_crash(
        self, exc: BaseException, ticket: Optional[Ticket]
    ) -> None:
        """A chaos ``WorkerKilled``: a logical restart, or a trip.

        Resolves the in-hand ticket (if any) as errored and charges the
        restart budget.  Within the budget the restart is logical (the
        decider keeps draining); once it is spent the breaker trips
        and the queue fails over.
        """
        if ticket is not None and not ticket.done():
            # The ticket dies with the decider, but its submitter must
            # not: resolve it errored before anything else.
            self._complete(ticket, self._errored_decision(ticket, exc))
        with self._admission_lock:
            self.crashes.inc()
            if self._closed:
                return
        if self._breaker.record_crash(type(exc).__name__):
            self._trip_breaker()
            return
        with self._admission_lock:
            self.restarts.inc()

    def _trip_breaker(self) -> None:
        """Give up: fail every queued ticket over as shed.

        The breaker is already open (``record_crash`` set it), and
        admission checks it and pushes in one hold of the admission
        lock, which this drain takes too.  So no ticket lands in the
        queue after the sweep: a racing admission either pushed before
        the drain (its ticket is in ``stranded``) or saw the open
        breaker and shed without pushing.
        """
        with self._admission_lock:
            stranded = self._queue.take()
        for ticket in stranded:
            self._shed(ticket, self._circuit_open_decision(ticket, 0))

    # ------------------------------------------------------ manual pumping

    def pump(self, max_tickets: Optional[int] = None) -> int:
        """Decide queued tickets synchronously (``manual`` mode's engine)."""
        if self.mode != "manual":
            raise ServiceError(f"pump() is for manual mode, not {self.mode!r}")
        return self._drain_queue(max_tickets)

    # --------------------------------------------------------- lifecycle

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every admitted ticket has resolved.

        Manual mode pumps.  Threaded mode decides anything still queued
        and then waits for tickets in another submitter's hands.
        """
        if self.mode == "manual":
            self.pump()
            return True
        self._drain_queue()
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._admission_lock:
            while self._outstanding > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._drained.wait(remaining)
            return True

    def close(self) -> None:
        """Stop accepting work and decide whatever is still queued."""
        if self._closed:
            return
        self._closed = True
        try:
            self._drain_queue()
        finally:
            # Durability last: every decision resolved above has already
            # passed through the audit lock into the WAL.
            self.tracer.close()
            if self.wal is not None:
                self.wal.close()

    def __enter__(self) -> "AuthorizationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- stats

    def health(self) -> Dict[str, object]:
        """Liveness/readiness probe report (see :mod:`.health`)."""
        from .health import health_report

        return health_report(self)

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Namespaced service/epoch/health counters (shed is never silent)."""
        epoch = self.epochs.current
        return {
            "service": {
                "queue_depth": self.queue_depth,
                "submitted": self.submitted.value,
                "evaluated": self.evaluated.value,
                "granted": self.granted.value,
                "denied": self.denied.value,
                "overloaded": self.overloaded.value,
                "errored": self.errored.value,
                "outstanding": self._outstanding,
                "nonce_cache_size": len(self.nonce_ledger),
            },
            "epochs": {
                "current_epoch": epoch.epoch_id,
                "objects": len(epoch.acls),
                "revocations_applied": epoch.revocations_applied,
                "epochs_published": self.epochs.stats.epochs_published,
                "revocations_published": self.epochs.stats.revocations_published,
                "policy_updates_published": (
                    self.epochs.stats.policy_updates_published
                ),
                "forks_taken": self.epochs.stats.forks_taken,
            },
            "health": {
                "breaker": self._breaker.state,
                "crashes": self.crashes.value,
                "restarts": self.restarts.value,
                "circuit_open_sheds": self.circuit_open_sheds.value,
            },
        }

    def traces(self, n: Optional[int] = None) -> List[TraceSpan]:
        """Most recent finished decision traces (empty when tracing off)."""
        return self.tracer.recent(n)

    def metrics_snapshot(self) -> Dict[str, object]:
        """One merged registry snapshot: service + current protocol.

        The service registry (admission counters, latency histograms,
        epoch gauges) merges with the current epoch's protocol snapshot,
        which itself folds in its engine and belief store.
        """
        epoch = self.epochs.current
        gauges = {
            "outstanding": self._outstanding,
            "nonce_cache_size": len(self.nonce_ledger),
            "current_epoch": epoch.epoch_id,
            "epochs_published": self.epochs.stats.epochs_published,
            "revocations_published": self.epochs.stats.revocations_published,
            "policy_updates_published": (
                self.epochs.stats.policy_updates_published
            ),
            "forks_taken": self.epochs.stats.forks_taken,
            "traces_finished": self.tracer.spans_finished,
            "breaker_open": int(self._breaker.is_open),
        }
        if self.chaos is not None:
            # A chaos run must be distinguishable from a clean run in
            # the merged registry, not only via the injector object.
            chaos_stats = self.chaos.stats()
            gauges.update(
                {
                    "chaos_evaluations": chaos_stats["evaluations"],
                    "chaos_faults_raised": chaos_stats["faults_raised"],
                    "chaos_slows_injected": chaos_stats["slows_injected"],
                    "chaos_kills_fired": chaos_stats["kills_fired"],
                    "chaos_actions_fired": chaos_stats["actions_fired"],
                }
            )
        for name, value in gauges.items():
            self.metrics.gauge(name).set(value)
        with self._protocol_lock:
            protocol_snapshot = epoch.protocol.metrics_snapshot()
        return MetricsRegistry.merge([self.metrics.snapshot(), protocol_snapshot])
