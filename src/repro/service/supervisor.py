"""Worker supervision: restart budgets, backoff, and circuit breaking.

The serving layer's availability story (the paper's m-of-n arguments,
Shoup-style robustness) assumes the enforcement point itself survives
internal faults.  This module supplies that: each shard has a
:class:`CircuitBreaker` tracking its crash history, and process-mode
services run one :class:`WorkerSupervisor` that replaces crashed
worker processes (:class:`~repro.service.procworker.ProcessShardWorker`).
Threaded and manual services decide on the caller's thread; a crash
there (a chaos ``WorkerKilled``) is a logical restart that charges the
same breaker without replacing anything.

Worker lifecycle (DESIGN.md §11 has the full state machine)::

    STARTING -> RUNNING -(crash)-> CRASHED -> BACKOFF -> RESTARTING -+
                   ^                                                 |
                   +-------------------------------------------------+
    RUNNING -(stop)-> STOPPED          CRASHED -(budget spent)-> FAILED

Crash ``k`` (1-based) is allowed a restart while ``k <= max_restarts``,
after an exponential backoff of ``min(cap, base * 2**(k-1))`` seconds.
Crash ``max_restarts + 1`` trips the breaker **open**: the shard is
FAILED, its queued tickets are failed over as typed ``CircuitOpen``
shed decisions, and admission sheds new requests for that shard
immediately — unaffected shards keep serving byte-identical results.
Restarted workers are re-pinned to the epoch current at restart time
(``ProcessShardWorker.epoch_id``), which health probes report.

The supervisor is event-driven (crash reports arrive via
``schedule_restart``) with a periodic liveness sweep as a backstop for
a worker that somehow died without reporting.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .service import AuthorizationService

__all__ = ["CircuitBreaker", "RestartEvent", "WorkerSupervisor"]


@dataclass(frozen=True)
class RestartEvent:
    """One supervisor-performed worker replacement, for observability."""

    shard: int
    incarnation: int  # 1 for the first replacement, 2 for the second, ...
    backoff_s: float
    epoch_id: int  # the epoch the replacement worker was pinned to
    error_type: str  # exception class name of the crash that caused it


class CircuitBreaker:
    """Per-shard crash budget: closed (serving) or open (shedding).

    ``record_crash`` returns the backoff to wait before the next
    restart, or ``None`` when the budget is spent and the breaker has
    tripped open.  Once open it stays open — give-up is terminal for a
    shard; the service sheds its traffic with typed decisions instead
    of crash-looping.
    """

    def __init__(
        self,
        max_restarts: int = 3,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
    ):
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self.max_restarts = max_restarts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._lock = threading.Lock()
        self.crashes = 0
        self.restarts = 0  # restarts granted (logical in manual mode)
        self.last_error = ""
        self._open = False

    @property
    def is_open(self) -> bool:
        return self._open

    @property
    def state(self) -> str:
        return "open" if self._open else "closed"

    def record_crash(self, error_type: str) -> Optional[float]:
        """Account one crash; return the restart backoff or ``None``.

        ``None`` means the budget is spent: the breaker is now open and
        the caller must fail the shard over rather than restart it.
        """
        with self._lock:
            self.crashes += 1
            self.last_error = error_type
            if self.crashes > self.max_restarts:
                self._open = True
                return None
            self.restarts += 1
            return min(
                self.backoff_cap_s,
                self.backoff_base_s * (2 ** (self.crashes - 1)),
            )


class WorkerSupervisor:
    """Replaces crashed shard workers, within each shard's budget.

    Crash reports arrive through :meth:`schedule_restart` (called from
    the dying worker's thread via the service's crash handler); the
    monitor thread performs the actual replacement once the backoff
    deadline passes.  A periodic :meth:`check` sweep additionally
    routes any unreported worker death through the same crash path.
    """

    def __init__(
        self,
        service: "AuthorizationService",
        monitor_interval_s: float = 0.25,
    ):
        self._service = service
        self.monitor_interval_s = monitor_interval_s
        self._cond = threading.Condition()
        # shard -> (monotonic restart deadline, crash error type, backoff)
        self._pending: Dict[int, Tuple[float, str, float]] = {}
        self._stopped = False
        self.events: List[RestartEvent] = []
        self._thread = threading.Thread(
            target=self._monitor,
            name=f"auth-supervisor-{service.name}",
            daemon=True,
        )

    # --------------------------------------------------------- lifecycle

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Stop restarting and join the monitor (idempotent)."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    # ----------------------------------------------------------- intake

    def schedule_restart(
        self, shard: int, backoff_s: float, error_type: str
    ) -> None:
        """Queue a replacement worker for ``shard`` after ``backoff_s``."""
        with self._cond:
            self._pending[shard] = (
                time.monotonic() + max(0.0, backoff_s),
                error_type,
                backoff_s,
            )
            self._cond.notify_all()

    def restart_pending(self, shard: int) -> bool:
        with self._cond:
            return shard in self._pending

    # ------------------------------------------------------- monitoring

    def check(self) -> List[int]:
        """Liveness sweep: shards whose current worker is dead.

        Any worker found dead without having reported a crash (should
        be impossible — ``run()`` reports every exit — but supervision
        code does not get to assume that) is routed through the normal
        crash path so it still gets a budgeted restart or a trip.
        """
        dead = []
        for shard in range(self._service.num_shards):
            worker = self._service._workers[shard]
            if worker is None or not worker.started or worker.is_alive():
                continue
            if worker.stopping:  # clean shutdown, not a crash
                continue
            dead.append(shard)
            if worker.crashed or self.restart_pending(shard):
                continue
            if self._service._breakers[shard].is_open:
                continue
            self._service._handle_crash(
                shard,
                RuntimeError(f"shard {shard} worker died without reporting"),
                None,
            )
        return dead

    def _monitor(self) -> None:
        while True:
            due = []
            with self._cond:
                if self._stopped:
                    return
                now = time.monotonic()
                for shard, entry in list(self._pending.items()):
                    if entry[0] <= now:
                        due.append((shard, entry[1], entry[2]))
                        del self._pending[shard]
                if not due:
                    timeout = self.monitor_interval_s
                    if self._pending:
                        soonest = min(
                            entry[0] for entry in self._pending.values()
                        )
                        timeout = min(timeout, max(0.001, soonest - now))
                    self._cond.wait(timeout)
            if due:
                for shard, error_type, backoff_s in due:
                    self._restart(shard, error_type, backoff_s)
            else:
                self.check()

    def _restart(self, shard: int, error_type: str, backoff_s: float) -> None:
        worker = self._service._restart_worker(shard)
        if worker is None:  # closed, or the breaker tripped meanwhile
            return
        # Record before starting: a replacement that crashes at once can
        # trip the breaker and let drain() return, and by then its
        # restart must already be on record.
        self.events.append(
            RestartEvent(
                shard=shard,
                incarnation=worker.incarnation,
                backoff_s=backoff_s,
                epoch_id=worker.epoch_id,
                error_type=error_type,
            )
        )
        worker.start()
