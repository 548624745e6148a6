"""Deterministic, seedable fault injection for the serving layer.

The availability claims of the breaker layer (DESIGN.md §11) are
only as good as the faults they were tested against, so this module
provides a :class:`FaultInjector` the service consults on its hot
path: once per evaluation (:meth:`FaultInjector.before_evaluate`) and
once per decider-loop iteration (:meth:`FaultInjector.on_worker_loop`).
Every fault kind is reproducible:

* **raise-on-nth** — raise :class:`InjectedFault` inside evaluation on
  every ``raise_every``-th evaluation (global, admission-pinned count)
  and/or with a seeded per-evaluation probability ``raise_prob``.
  Exercises per-ticket fault isolation: the ticket must resolve as a
  typed ``Errored`` decision and the decider must keep draining.
* **slow-evaluate** — sleep ``slow_s`` inside every ``slow_every``-th
  evaluation.  Exercises queue backpressure and latency tails.
* **kill** — raise :class:`WorkerKilled` so the decider crashes
  outright: a logical restart charged to the service's circuit
  breaker.  ``WorkerKilled`` derives from ``BaseException`` *on
  purpose*: per-ticket isolation catches ``Exception``, so a kill
  cannot be absorbed as a mere errored ticket — it must travel the
  crash path.  ``kill_times`` kills are delivered (0 = none);
  ``kill_in_flight`` kills mid-evaluation (a ticket in hand);
  otherwise the decider dies at the loop top once it decided
  ``kill_after`` tickets since its last restart.
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
    """Crashes the decider outright (see the module docstring).

    Deliberately **not** an ``Exception`` subclass: per-ticket fault
    isolation (``except Exception``) must not be able to swallow a
    kill, exactly as it cannot swallow ``KeyboardInterrupt``.
    """


@dataclass(frozen=True)
class ChaosConfig:
    """Declarative fault plan (all fields inert at their defaults)."""

    raise_every: int = 0  # InjectedFault on every nth evaluation (0 = off)
    raise_prob: float = 0.0  # seeded per-evaluation fault probability
    slow_every: int = 0  # sleep inside every nth evaluation (0 = off)
    slow_s: float = 0.0  # how long slow-evaluate sleeps
    kill_times: int = 0  # total kills to deliver (0 = off; restarts re-die)
    kill_after: int = 0  # loop-top kill once the decider decided >= this many
    kill_in_flight: bool = False  # kill mid-evaluation instead (ticket in hand)
    seed: int = 0  # seeds the raise_prob stream


class FaultInjector:
    """Thread-safe, counting fault injector driven by :class:`ChaosConfig`.

    One injector instance serves one service; its evaluation counter
    means "every 50th ticket" is the service's 50th evaluation.
    ``sleep`` is injectable for tests that want slow-evaluate without
    wall time.
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

        Ordinals are 1-based and count the service's evaluations.  Used
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
        (``kill_in_flight``: the decider dies with the ticket).
        """
        config = self.config
        with self._lock:
            self._evaluations += 1
            n = self._evaluations
            actions = self._actions.pop(n, ())
            if actions:
                self.actions_fired += len(actions)
            kill = (
                config.kill_in_flight
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
                f"chaos: decider killed in flight at evaluation {n}"
            )
        if slow:
            self._sleep(config.slow_s)
        if raise_fault:
            raise InjectedFault(f"chaos: injected fault at evaluation {n}")

    def on_worker_loop(self, tickets_processed: int) -> None:
        """Called before each ticket the decider takes up.

        Raises :class:`WorkerKilled` when the decider is scheduled to
        die at the loop top (no ticket in hand, queue left intact for
        the restarted decider to drain).
        """
        config = self.config
        if config.kill_in_flight or not config.kill_times:
            return
        with self._lock:
            if (
                self.kills_fired < config.kill_times
                and tickets_processed >= config.kill_after
            ):
                self.kills_fired += 1
                raise WorkerKilled(
                    f"chaos: decider killed after "
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
