"""Deterministic, seedable fault injection for the serving layer.

The availability claims of the breaker layer (DESIGN.md §11) are
only as good as the faults they were tested against, so this module
provides a :class:`FaultInjector` the service consults on its hot
path: once per evaluation (:meth:`FaultInjector.before_evaluate`) and
once per worker-loop iteration (:meth:`FaultInjector.on_worker_loop`).
Every fault kind is reproducible:

* **raise-on-nth** — raise :class:`InjectedFault` inside evaluation on
  every ``raise_every``-th evaluation (global, admission-pinned count)
  and/or with a seeded per-evaluation probability ``raise_prob``.
  Exercises per-ticket fault isolation: the ticket must resolve as a
  typed ``Errored`` decision and the worker must keep draining.
* **slow-evaluate** — sleep ``slow_s`` inside every ``slow_every``-th
  evaluation.  Exercises queue backpressure and latency tails.
* **worker-kill** — raise :class:`WorkerKilled` so the shard's decider
  crashes outright: a logical restart charged to the shard's circuit
  breaker.  ``WorkerKilled`` derives from ``BaseException`` *on
  purpose*: per-ticket isolation catches ``Exception``, so a kill
  cannot be absorbed as a mere errored ticket — it must travel the
  crash path.  ``kill_in_flight``
  kills mid-evaluation (a ticket in hand); otherwise the worker dies
  at the loop top after ``kill_after`` processed tickets.
* **scripted actions** — :meth:`FaultInjector.at` runs an arbitrary
  callback on the n-th evaluation (e.g. publish an epoch mid-flight to
  prove admission-time pinning holds under churn).

Counting faults (``raise_every``, ``at``) are deterministic given the
evaluation order; the service decides in admission order, so runs
replay exactly.  Probabilistic faults (``raise_prob``) draw from one
``random.Random(seed)`` stream, so they replay too.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List

__all__ = ["InjectedFault", "WorkerKilled", "ChaosConfig", "FaultInjector"]


class InjectedFault(RuntimeError):
    """The exception chaos raises *inside* evaluation (isolatable)."""


class WorkerKilled(BaseException):
    """Crashes a shard's worker outright (see the module docstring).

    Deliberately **not** an ``Exception`` subclass: per-ticket fault
    isolation (``except Exception``) must not be able to swallow a
    worker kill, exactly as it cannot swallow ``KeyboardInterrupt``.
    """


@dataclass(frozen=True)
class ChaosConfig:
    """Declarative fault plan (all fields inert at their defaults)."""

    raise_every: int = 0  # InjectedFault on every nth evaluation (0 = off)
    raise_prob: float = 0.0  # seeded per-evaluation fault probability
    slow_every: int = 0  # sleep inside every nth evaluation (0 = off)
    slow_s: float = 0.0  # how long slow-evaluate sleeps
    kill_shard: int = -1  # shard whose worker dies (-1 = no kills)
    kill_after: int = 0  # loop-top kill once the worker processed >= this many
    kill_in_flight: bool = False  # kill mid-evaluation instead (ticket in hand)
    kill_times: int = 1  # total kills to deliver (restarted workers re-die)
    seed: int = 0  # seeds the raise_prob stream


class FaultInjector:
    """Thread-safe, counting fault injector driven by :class:`ChaosConfig`.

    One injector instance is shared by every shard of one service; the
    evaluation counter it keeps is global so "every 50th ticket" means
    the 50th ticket *service-wide*, not per shard.  ``sleep`` is
    injectable for tests that want slow-evaluate without wall time.
    """

    def __init__(
        self,
        config: ChaosConfig = ChaosConfig(),
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.config = config
        self._sleep = sleep
        self._rng = random.Random(config.seed)
        self._lock = threading.Lock()
        self._evaluations = 0
        self._actions: Dict[int, List[Callable[[object], None]]] = {}
        self.faults_raised = 0
        self.slows_injected = 0
        self.kills_fired = 0
        self.actions_fired = 0

    # ------------------------------------------------------ configuration

    def at(self, ordinal: int, action: Callable[[object], None]) -> None:
        """Run ``action(ticket)`` just before the ``ordinal``-th evaluation.

        Ordinals are 1-based and count evaluations service-wide.  Used
        by chaos tests for scripted mid-flight events such as an epoch
        swap while earlier tickets are still queued.
        """
        if ordinal < 1:
            raise ValueError("evaluation ordinals are 1-based")
        with self._lock:
            self._actions.setdefault(ordinal, []).append(action)

    # ------------------------------------------------------------- hooks

    def before_evaluate(self, ticket: object) -> None:
        """Called by the service once per evaluation, ticket in hand.

        May sleep (slow-evaluate), raise :class:`InjectedFault`
        (isolated to this ticket), or raise :class:`WorkerKilled`
        (``kill_in_flight``: the whole worker dies with the ticket).
        """
        config = self.config
        with self._lock:
            self._evaluations += 1
            n = self._evaluations
            actions = self._actions.pop(n, ())
            if actions:
                self.actions_fired += len(actions)
            kill = (
                config.kill_shard >= 0
                and config.kill_in_flight
                and getattr(ticket, "shard", -1) == config.kill_shard
                and self.kills_fired < config.kill_times
            )
            if kill:
                self.kills_fired += 1
            raise_fault = bool(config.raise_every) and n % config.raise_every == 0
            if not raise_fault and config.raise_prob > 0:
                raise_fault = self._rng.random() < config.raise_prob
            if raise_fault and not kill:
                self.faults_raised += 1
            slow = bool(config.slow_every) and n % config.slow_every == 0
            if slow:
                self.slows_injected += 1
        for action in actions:
            action(ticket)
        if kill:
            raise WorkerKilled(
                f"chaos: worker killed in flight at evaluation {n}"
            )
        if slow:
            self._sleep(config.slow_s)
        if raise_fault:
            raise InjectedFault(f"chaos: injected fault at evaluation {n}")

    def on_worker_loop(self, shard: int, tickets_processed: int) -> None:
        """Called before each ticket a shard's worker takes up.

        Raises :class:`WorkerKilled` when this shard is scheduled to
        die at the loop top (no ticket in hand, queue left intact for
        the restarted worker to drain).
        """
        config = self.config
        if config.kill_shard != shard or config.kill_in_flight:
            return
        with self._lock:
            if (
                self.kills_fired < config.kill_times
                and tickets_processed >= config.kill_after
            ):
                self.kills_fired += 1
                raise WorkerKilled(
                    f"chaos: shard {shard} worker killed after "
                    f"{tickets_processed} tickets"
                )

    # ------------------------------------------------------------- stats

    @property
    def evaluations(self) -> int:
        return self._evaluations

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "evaluations": self._evaluations,
                "faults_raised": self.faults_raised,
                "slows_injected": self.slows_injected,
                "kills_fired": self.kills_fired,
                "actions_fired": self.actions_fired,
            }
