"""Shard routing and worker threads.

Requests shard by **resource key** (object name, falling back to the
certified group for object-less requests): all traffic for one object
lands on one worker, so per-object evaluation order matches admission
order while independent objects evaluate concurrently.  The hash is
CRC32, not Python's salted ``hash()``, so placement is stable across
processes and runs — benchmarks and the parity fuzzer rely on that.

A :class:`ShardWorker` is one daemon thread draining one bounded queue.
Everything it does is also correct fully serialized (the ``manual``
service mode drives the same evaluation path without threads).  Idle
workers block on the queue's condition variable — there is no poll
cadence; ``stop()`` wakes a blocked worker through the queue.  A
worker that exits its loop with an exception (including a chaos
:class:`~repro.service.chaos.WorkerKilled`) records the crash and
reports it through ``on_crash`` so the supervision layer
(:mod:`repro.service.supervisor`) can restart or fail the shard over —
never a silent thread death.
"""

from __future__ import annotations

import threading
import zlib
from typing import Callable, List, Optional

from ..coalition.requests import JointAccessRequest
from .admission import ShardQueue, Ticket
from .chaos import FaultInjector

__all__ = ["shard_key", "shard_for", "ShardWorker", "DEFAULT_MAX_BATCH"]

# How many tickets a worker takes per condvar wakeup.  Large enough to
# amortize the lock/condvar round-trip that used to be paid per ticket,
# small enough that a crash mid-batch re-queues a short remainder.
DEFAULT_MAX_BATCH = 32


def shard_key(request: JointAccessRequest) -> str:
    """The routing key: the resource, else the certified group."""
    return request.object_name or request.attribute_certificate.group


def shard_for(request: JointAccessRequest, num_shards: int) -> int:
    """Stable shard placement for ``request`` in ``[0, num_shards)``."""
    key = shard_key(request)
    return zlib.crc32(key.encode("utf-8")) % num_shards


class ShardWorker(threading.Thread):
    """Drains one shard queue, evaluating tickets in admission order."""

    def __init__(
        self,
        shard: int,
        queue: ShardQueue,
        evaluate: Callable[[Ticket], None],
        chaos: Optional[FaultInjector] = None,
        on_crash: Optional[Callable[["ShardWorker", BaseException], None]] = None,
        epoch_id: int = 0,
        incarnation: int = 0,
        evaluate_batch: Optional[
            Callable[[List[Ticket], "ShardWorker"], None]
        ] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
    ):
        suffix = f"-r{incarnation}" if incarnation else ""
        super().__init__(name=f"auth-shard-{shard}{suffix}", daemon=True)
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.shard = shard
        self.queue = queue
        self._evaluate = evaluate
        self._evaluate_batch = evaluate_batch
        self.max_batch = max_batch
        self._chaos = chaos
        self._on_crash = on_crash
        # The epoch this worker was pinned to when it (re)started;
        # individual tickets still pin their own admission-time epoch.
        self.epoch_id = epoch_id
        self.incarnation = incarnation
        # NB: not named _stop — that would shadow Thread._stop(), which
        # Thread.join() calls internally.
        self._stop_requested = threading.Event()
        self.started = False
        self.tickets_processed = 0
        self.current_ticket: Optional[Ticket] = None
        # The batch this worker drained but has not finished evaluating.
        # On a crash, tickets here that are neither resolved nor in hand
        # are returned to the queue head (admission order preserved).
        self.pending_batch: Optional[List[Ticket]] = None
        self.crashed = False
        self.crash_exc: Optional[BaseException] = None

    @property
    def stopping(self) -> bool:
        """True once a clean shutdown was requested via :meth:`stop`."""
        return self._stop_requested.is_set()

    def start(self) -> None:
        self.started = True
        super().start()

    def stop(self) -> None:
        """Request a clean exit; wakes the worker if it is idle-blocked."""
        self._stop_requested.set()
        self.queue.wake()

    def run(self) -> None:
        try:
            self._drain_loop()
        except BaseException as exc:  # noqa: BLE001 - crash is the contract
            # Crash path: record what killed us, return the untouched
            # remainder of a mid-batch drain to the queue *head* (so a
            # replacement worker sees admission order), then hand the
            # in-hand ticket (if any) plus the restart decision to the
            # service.  The in-hand ticket is deliberately NOT
            # re-queued — the crash handler resolves it as errored.
            self.crashed = True
            self.crash_exc = exc
            pending = self.pending_batch
            if pending:
                requeue = [
                    t
                    for t in pending
                    if t is not self.current_ticket and not t.done()
                ]
                if requeue:
                    self.queue.push_front_batch(requeue)
            self.pending_batch = None
            if self._on_crash is not None:
                self._on_crash(self, exc)

    def _drain_loop(self) -> None:
        while True:
            # Blocks on the queue condition until work or a stop() wake;
            # one wakeup drains a whole burst (the per-ticket condvar
            # round-trip is what made sharding scale backwards).
            batch = self.queue.pop_batch(
                self.max_batch, timeout=None, stop=self._stop_requested
            )
            if not batch:
                if self._stop_requested.is_set() and len(self.queue) == 0:
                    return
                continue
            self.pending_batch = batch
            if self._evaluate_batch is not None:
                # Batched completion: per-ticket Event.set (intra-batch
                # nonce chains must not deadlock) with one accounting
                # sweep at the end.  Consumes `batch` in place so the
                # crash path sees exactly the unresolved suffix.
                self._evaluate_batch(batch, self)
            else:
                while batch:
                    if self._chaos is not None:
                        # May raise WorkerKilled between tickets (none
                        # in hand; unprocessed tickets are re-queued by
                        # the crash path, so kill_after counts tickets
                        # exactly as it did with per-ticket draining).
                        self._chaos.on_worker_loop(
                            self.shard, self.tickets_processed
                        )
                    # current_ticket is cleared only on success: if
                    # _evaluate escapes (WorkerKilled, internal bug),
                    # the crash handler reads it to resolve the in-hand
                    # ticket as errored.
                    self.current_ticket = batch[0]
                    self._evaluate(batch[0])
                    batch.pop(0)
                    self.current_ticket = None
                    self.tickets_processed += 1
            self.pending_batch = None
