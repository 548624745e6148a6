"""Process-parallel shard workers: shared-nothing evaluation over pipes.

``mode="process"`` puts each shard's evaluation in its **own process**,
sidestepping the GIL that makes threaded sharding scale backwards on
CPU-bound derivations.  The design leans on two facts the rest of the
service already established:

* **Epochs are immutable snapshots** — the natural shared-nothing unit.
  A published :class:`~repro.service.epoch.Epoch` ships to the child as
  a pickled copy of the epoch's one protocol plus the ACL table,
  exactly once per epoch; the service pickles that protocol once and
  every shard's worker sends the same bytes.  ACL-only epochs
  (``new.protocol is old.protocol``) ship as a reference to the base
  epoch's already-shipped protocol, so policy churn does not
  re-serialize belief state.
* **Replay state is global** — unlike belief state it must span shards
  *and* processes.  Each child keeps one persistent
  :class:`~repro.coalition.protocol.NonceLedger` (every shipped
  protocol is rebound to it), seeded at start from the parent's ledger
  and kept current by nonce frames: when a child grants a request, the
  parent absorbs the nonce into its authoritative ledger and enqueues
  it to every sibling shard's dispatcher, which flushes its inbox down
  the pipe *before* the next eval frame.  Combined with the dispatcher
  barrier (a ticket ships only after its same-nonce predecessor
  resolved, and the pump broadcasts before it resolves), a child always
  observes a predecessor's nonce before evaluating the successor — the
  same sequential-replay parity the caller-thread engine gets from
  deciding in global sequence order.  Admission chains same-nonce
  tickets (``Ticket.predecessor``) in this mode only.

Per shard the parent runs two threads around one duplex pipe:

* the **dispatcher** pops ticket batches from the shard queue
  (:meth:`~repro.service.admission.ShardQueue.pop_batch`), runs the
  chaos hooks parent-side, ships epoch/nonce frames as needed, then
  one ``eval`` frame per burst;
* the **result pump** receives ``done`` frames, rebuilds typed
  decisions, resolves tickets through the service's normal completion
  path (one accounting sweep per frame), and broadcasts nonce grants.

Supervision integrates via process liveness: a dead child surfaces as
a pipe EOF (or a ``BrokenPipeError`` on ship), which resolves shipped
tickets as :class:`~repro.service.admission.Errored`, re-queues the
unshipped remainder at the queue head, and routes through the same
``_handle_crash`` → :class:`~repro.service.supervisor.CircuitBreaker`
budget as a logical restart in the other modes.  Children strip proof objects from decisions
before pickling — serializing a proof tree costs about as much as
deriving it, and the parent-facing contract (granted/reason/steps) does
not need it.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..coalition.protocol import AuthorizationDecision, NonceLedger
from .admission import Errored, Ticket
from .chaos import WorkerKilled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .epoch import Epoch
    from .service import AuthorizationService

__all__ = ["ProcessShardWorker"]


def _child_main(conn, shard: int) -> None:
    """The worker child: a frame loop over (epoch, nonces, eval, stop).

    Runs with a copy-on-fork of the parent but touches none of it: all
    state it evaluates against arrives through the pipe.  One
    persistent :class:`NonceLedger` spans every shipped epoch — each
    unpickled protocol is rebound to it, or replays could slip between
    epochs.  Eval frames name epochs in pin order, so after each one
    every older epoch is dropped: memory does not grow with history.
    """
    ledger = NonceLedger()
    # epoch id -> (protocol, ACL table)
    epochs: Dict[int, tuple] = {}
    while True:
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            return
        kind = frame[0]
        if kind == "stop":
            conn.send(("stopped",))
            return
        if kind == "init":
            ledger = NonceLedger(frame[1])
            ledger.absorb(frame[2])
        elif kind == "nonces":
            ledger.absorb(frame[1])
        elif kind == "epoch":
            _, epoch_id, blob, base_epoch_id, acls = frame
            if blob is None:
                # ACL-only epoch: belief state unchanged, reuse the
                # base epoch's protocol (same sharing the parent has).
                protocol = epochs[base_epoch_id][0]
            else:
                protocol = pickle.loads(blob)
                protocol.nonces = ledger
            epochs[epoch_id] = (protocol, acls)
        elif kind == "eval":
            results = []
            for seq, now, epoch_id, request in frame[1]:
                protocol, acls = epochs[epoch_id]
                entry = acls.get(request.object_name)
                nonce_entries: List[Tuple[str, int]] = []
                try:
                    if entry is None:
                        decision = AuthorizationDecision(
                            granted=False,
                            reason=f"no such object {request.object_name!r}",
                            operation=request.operation,
                            object_name=request.object_name,
                            checked_at=now,
                        )
                    else:
                        decision = protocol.authorize(request, entry.acl, now)
                    if decision.granted:
                        # remember() uses now + 2*window; replicate so
                        # the parent/sibling ledgers match this one.
                        forget = now + 2 * ledger.freshness_window
                        nonce_entries = [
                            (nonce, forget)
                            for nonce in {p.nonce for p in request.parts}
                        ]
                    # Ship the verdict, not the proof tree: pickling a
                    # proof costs about as much as deriving it, and
                    # derivation_steps/reason survive without it.  The
                    # receipts only serve an audit of that proof.
                    decision.proof = None
                    decision.receipts = ()
                    payload = decision
                except Exception as exc:  # noqa: BLE001 - fault isolation
                    payload = ("exc", type(exc).__name__, str(exc))
                results.append((seq, payload, nonce_entries))
            conn.send(("done", results))
            for stale in [e for e in epochs if e < epoch_id]:
                del epochs[stale]


class _ChildDeath(Exception):
    """Internal: the dispatcher determined the child is (to be) dead."""

    def __init__(self, exc: BaseException, terminate: bool):
        super().__init__(str(exc))
        self.exc = exc
        self.terminate = terminate


class ProcessShardWorker:
    """One shard's worker process + its parent-side dispatcher and pump.

    Offers the worker surface the supervisor, health probes and
    ``close()`` rely on: ``started``,
    ``is_alive()``, ``stopping``, ``crashed``/``crash_exc``,
    ``epoch_id``, ``incarnation``, ``current_ticket``, ``stop()`` and
    ``join()``.  ``is_alive()`` reports the result pump, which outlives
    the child process just long enough to finish crash handling — so a
    supervisor liveness sweep can never observe a dead worker before
    the crash was recorded.
    """

    def __init__(
        self,
        service: "AuthorizationService",
        shard: int,
        epoch_id: int = 0,
        incarnation: int = 0,
    ):
        self._service = service
        self.shard = shard
        self.queue = service._queues[shard]
        self.max_batch = service.max_batch
        self.epoch_id = epoch_id
        self.incarnation = incarnation
        self.started = False
        self.crashed = False
        self.crash_exc: Optional[BaseException] = None
        self.current_ticket: Optional[Ticket] = None
        self.tickets_processed = 0
        self._stop_requested = threading.Event()
        self._crash_lock = threading.Lock()
        # Tickets shipped to the child and not yet resolved: seq -> Ticket.
        # Pop-once discipline (under the lock) makes the pump, the crash
        # path and a timed-out join mutually exclusive per ticket.
        self._inflight: Dict[int, Ticket] = {}
        self._inflight_lock = threading.Lock()
        # Nonces granted by sibling shards, awaiting the next ship.
        self._nonce_inbox: List[Tuple[str, int]] = []
        self._nonce_lock = threading.Lock()
        # (epoch id, protocol) of the last epoch shipped to the child.
        self._last_shipped: tuple = (None, None)
        suffix = f"-r{incarnation}" if incarnation else ""
        ctx = multiprocessing.get_context()
        self._conn, self._child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=_child_main,
            args=(self._child_conn, shard),
            name=f"auth-shard-{shard}{suffix}",
            daemon=True,
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name=f"auth-dispatch-{shard}{suffix}",
            daemon=True,
        )
        self._pump = threading.Thread(
            target=self._pump_loop,
            name=f"auth-pump-{shard}{suffix}",
            daemon=True,
        )

    # --------------------------------------------------------- lifecycle

    @property
    def stopping(self) -> bool:
        return self._stop_requested.is_set()

    def start(self) -> None:
        self.started = True
        self._process.start()
        # Close the parent's copy of the child end, so a dead child
        # surfaces as EOF on the pump's recv.
        self._child_conn.close()
        self._pump.start()
        self._dispatcher.start()

    def stop(self) -> None:
        """Request a clean exit; the dispatcher drains the queue first."""
        self._stop_requested.set()
        self.queue.wake()

    def is_alive(self) -> bool:
        return self._pump.is_alive()

    def join(self, timeout: Optional[float] = None) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout

        def remaining() -> Optional[float]:
            if deadline is None:
                return None
            return max(0.0, deadline - time.monotonic())

        self._dispatcher.join(remaining())
        self._pump.join(remaining())
        self._process.join(remaining())
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(1.0)
        # A timed-out close must not strand submitters whose tickets
        # were already shipped: resolve whatever the pump never saw.
        stranded = self._drain_inflight()
        for ticket in stranded:
            if ticket.done():
                continue
            exc = RuntimeError(
                f"service closed: shard {self.shard} worker process "
                f"never returned ticket seq={ticket.seq}"
            )
            self._service._complete(
                ticket, self._service._errored_decision(ticket, exc)
            )

    def _drain_inflight(self) -> List[Ticket]:
        with self._inflight_lock:
            stranded = list(self._inflight.values())
            self._inflight.clear()
            return stranded

    # ------------------------------------------------- nonce replication

    def enqueue_nonces(self, entries: List[Tuple[str, int]]) -> None:
        """Sibling-shard grants, shipped ahead of our next eval frame."""
        with self._nonce_lock:
            self._nonce_inbox.extend(entries)

    def _take_nonces(self) -> List[Tuple[str, int]]:
        with self._nonce_lock:
            entries, self._nonce_inbox = self._nonce_inbox, []
            return entries

    def _broadcast_nonces(self, entries: List[Tuple[str, int]]) -> None:
        for worker in self._service._workers:
            if worker is None or worker is self:
                continue
            push = getattr(worker, "enqueue_nonces", None)
            if push is not None:
                push(entries)

    # --------------------------------------------------------- dispatcher

    def _dispatch_loop(self) -> None:
        service = self._service
        try:
            self._conn.send(
                (
                    "init",
                    service.nonce_ledger.freshness_window,
                    # Seed the child's replay window with every nonce the
                    # service has accepted so far: a replacement process
                    # must keep denying replays of pre-crash grants.
                    service.nonce_ledger.entries(),
                )
            )
        except (BrokenPipeError, EOFError, OSError) as exc:
            self._child_died(exc)
            return
        while True:
            batch = self.queue.pop_batch(
                self.max_batch, timeout=None, stop=self._stop_requested
            )
            if self.crashed:
                # A replacement incarnation owns the queue from here.
                if batch:
                    self.queue.push_front_batch(
                        [t for t in batch if not t.done()]
                    )
                return
            if not batch:
                if self._stop_requested.is_set() and len(self.queue) == 0:
                    try:
                        self._conn.send(("stop",))
                    except (BrokenPipeError, EOFError, OSError):
                        pass
                    return
                continue
            try:
                if not self._ship_batch(batch):
                    # Aborted (service closing / sibling-detected crash):
                    # the unshipped tickets went back to the queue.  On a
                    # close, still tell the child to finish its pending
                    # evals and exit, so the pump drains cleanly.
                    if not self.crashed:
                        try:
                            self._conn.send(("stop",))
                        except (BrokenPipeError, EOFError, OSError):
                            pass
                    return
            except _ChildDeath as death:
                if death.terminate:
                    self._process.terminate()
                self._child_died(death.exc)
                return

    def _ship_batch(self, batch: List[Ticket]) -> bool:
        """Ship one drained batch; never lose a ticket.

        Returns False when shipping was aborted (shutdown or a crash
        detected elsewhere) after re-queueing the unshipped tickets.
        Raises :class:`_ChildDeath` when the child is dead (pipe error)
        or must die (chaos kill), again after re-queueing everything
        that was not already shipped or resolved.
        """
        service = self._service
        chaos = service.chaos
        # Chaos counts *completed* tickets (kill_after semantics must
        # match the caller-thread engine, where evaluation is synchronous
        # with the drain loop).  Dispatch normally outruns completion,
        # so under chaos we serialize: ship one ticket, wait for its
        # resolution, then run the next loop-top hook.  The chaos-free
        # hot path stays fully pipelined.
        serialize = chaos is not None
        ready: List[tuple] = []
        ready_tickets: List[Ticket] = []

        def flush() -> None:
            if not ready:
                return
            entries = self._take_nonces()
            if entries:
                self._conn.send(("nonces", entries))
            with self._inflight_lock:
                for t in ready_tickets:
                    self._inflight[t.seq] = t
            frame = ("eval", list(ready))
            ready.clear()
            ready_tickets.clear()
            self._conn.send(frame)

        def requeue_rest() -> None:
            leftover = ready_tickets + batch
            undone = [t for t in leftover if not t.done()]
            if undone:
                self.queue.push_front_batch(undone)

        try:
            while batch:
                ticket = batch[0]
                if chaos is not None:
                    # Loop-top kill, parent-side: no ticket in hand, the
                    # whole remainder re-queues for the replacement.
                    chaos.on_worker_loop(self.shard, self.tickets_processed)
                predecessor = ticket.predecessor
                if predecessor is not None and not predecessor.done():
                    # The predecessor may sit earlier in `ready` (same
                    # shard): ship it before blocking on it.
                    flush()
                    service.barrier_waits.inc()
                    while not predecessor.wait(0.05):
                        if self.crashed or (
                            self._stop_requested.is_set() and service._closed
                        ):
                            requeue_rest()
                            return False
                if chaos is not None:
                    self.current_ticket = ticket
                    try:
                        # May sleep, raise InjectedFault (isolated to
                        # this ticket) or WorkerKilled (kill_in_flight).
                        chaos.before_evaluate(ticket)
                    except Exception as exc:  # noqa: BLE001 - isolation
                        batch.pop(0)
                        self.current_ticket = None
                        service._complete(
                            ticket, service._errored_decision(ticket, exc)
                        )
                        # The caller-thread engine counts faulted tickets too.
                        self.tickets_processed += 1
                        continue
                    self.current_ticket = None
                batch.pop(0)
                ready.append(
                    (ticket.seq, ticket.now, ticket.epoch.epoch_id,
                     ticket.request)
                )
                ready_tickets.append(ticket)
                self._ship_epoch(ticket.epoch)
                if serialize:
                    flush()
                    while not ticket.wait(0.05):
                        if self.crashed or (
                            self._stop_requested.is_set() and service._closed
                        ):
                            requeue_rest()
                            return False
            flush()
            return True
        except WorkerKilled as exc:
            # In-flight kill: the ticket in hand dies with the worker.
            in_hand = self.current_ticket
            if in_hand is not None:
                self.current_ticket = None
                if in_hand in batch:
                    batch.remove(in_hand)
                if not in_hand.done():
                    service._complete(
                        in_hand, service._errored_decision(in_hand, exc)
                    )
            requeue_rest()
            raise _ChildDeath(exc, terminate=True) from None
        except (BrokenPipeError, EOFError, OSError) as exc:
            requeue_rest()
            raise _ChildDeath(exc, terminate=False) from None

    def _ship_epoch(self, epoch: "Epoch") -> None:
        """Send ``epoch`` to the child, at most once per epoch.

        Admission pins epochs in order and pushes under one lock, and
        the queue is FIFO, so one incarnation meets its epochs in order:
        only the last one shipped can recur, or share its protocol with
        an ACL-only successor (shipped as a back-reference).
        """
        last_id, last_protocol = self._last_shipped
        if epoch.epoch_id == last_id:
            return
        if epoch.protocol is last_protocol:
            frame = ("epoch", epoch.epoch_id, None, last_id, epoch.acls)
        else:
            blob = self._service._pickled_protocol(epoch.protocol)
            frame = ("epoch", epoch.epoch_id, blob, -1, epoch.acls)
        self._last_shipped = (epoch.epoch_id, epoch.protocol)
        self._conn.send(frame)

    # -------------------------------------------------------- result pump

    def _pump_loop(self) -> None:
        service = self._service
        while True:
            try:
                frame = self._conn.recv()
            except (EOFError, OSError):
                if self._stop_requested.is_set() or service._closed:
                    return
                code = self._process.exitcode
                self._child_died(
                    RuntimeError(
                        f"shard {self.shard} worker process died "
                        f"(exitcode {code})"
                    )
                )
                return
            kind = frame[0]
            if kind == "stopped":
                return
            if kind != "done":  # pragma: no cover - defensive
                continue
            acct: List[tuple] = []
            try:
                for seq, payload, nonce_entries in frame[1]:
                    with self._inflight_lock:
                        ticket = self._inflight.pop(seq, None)
                    if ticket is None:
                        continue
                    decision = self._rebuild_decision(ticket, payload)
                    if nonce_entries:
                        # Absorb + broadcast BEFORE resolving: a
                        # same-nonce successor's dispatcher ships only
                        # after this resolve, and its flush must find
                        # the nonce already in its inbox.
                        service.nonce_ledger.absorb(nonce_entries)
                        self._broadcast_nonces(nonce_entries)
                    # Count before resolving: a dispatcher serialized
                    # under chaos reads this right after done() flips,
                    # and the loop-top hook must see the new count.
                    self.tickets_processed += 1
                    try:
                        service._resolve_ticket(ticket, decision)
                    finally:
                        acct.append((ticket, decision))
            finally:
                service._account_batch(acct)

    def _rebuild_decision(
        self, ticket: Ticket, payload
    ) -> AuthorizationDecision:
        if isinstance(payload, AuthorizationDecision):
            return payload
        # ("exc", type_name, message): per-ticket fault isolation,
        # rebuilt parent-side to match _errored_decision's contract.
        _, error_type, message = payload
        return Errored(
            granted=False,
            reason=f"errored: evaluation raised {error_type}: {message}",
            operation=ticket.request.operation,
            object_name=ticket.request.object_name,
            checked_at=ticket.now,
            shard=self.shard,
            error_type=error_type,
        )

    # -------------------------------------------------------- crash path

    def _child_died(self, exc: BaseException) -> None:
        """Exactly-once crash handling for a dead worker process.

        Shipped-but-unresolved tickets resolve as Errored (their state
        died with the child); the unshipped queue remainder stays (or
        was pushed back) for the replacement incarnation.  Then the
        normal crash path runs: budget, supervisor restart or breaker
        trip.
        """
        with self._crash_lock:
            if self.crashed:
                return
            self.crashed = True
            self.crash_exc = exc
        service = self._service
        for ticket in self._drain_inflight():
            if not ticket.done():
                service._complete(
                    ticket, service._errored_decision(ticket, exc)
                )
        # Wake a dispatcher blocked on the queue so it observes
        # `crashed` and hands the queue to the replacement.
        self.queue.wake()
        service._handle_crash(self.shard, exc, None)
