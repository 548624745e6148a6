"""Restart budgets, circuit breaking, nothing stranded.

Covers the DESIGN.md §11 lifecycle end to end: a decider that keeps
crashing burns its bounded restart budget, the breaker then trips
open, queued work fails over as typed ``CircuitOpen`` sheds, and
admission sheds new traffic for every object.  The service decides on
the caller's thread, so a chaos ``WorkerKilled`` is a logical restart
charged to the service's budget.
"""

import time

from repro.coalition import build_joint_request
from repro.service import (
    ChaosConfig,
    CircuitBreaker,
    CircuitOpen,
    Errored,
    FaultInjector,
)


def _read(users, cert, obj, now, nonce):
    return build_joint_request(
        users[0], [], "read", obj, cert, now=now, nonce=nonce
    )


# Kills every evaluation, across restarts: each logical restart dies
# on its next ticket.
def _always_kill():
    return FaultInjector(ChaosConfig(kill_in_flight=True, kill_times=100))


class TestCircuitBreaker:
    def test_restarts_within_budget_then_opens(self):
        breaker = CircuitBreaker(max_restarts=3)
        assert breaker.state == "closed"
        assert [breaker.record_crash(f"E{i}") for i in (1, 2, 3)] == [
            False, False, False
        ]
        assert not breaker.is_open and breaker.restarts == 3
        assert breaker.record_crash("E4") is True
        assert breaker.is_open and breaker.state == "open"
        assert breaker.crashes == 4 and breaker.restarts == 3
        assert breaker.last_error == "E4"

    def test_zero_budget_opens_on_first_crash(self):
        breaker = CircuitBreaker(max_restarts=0)
        assert breaker.record_crash("E") is True
        assert breaker.is_open


class TestThreadedRestartBudget:
    def test_budget_restarts_then_trip_and_failover(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(
            mode="threaded",
            queue_depth=32,
            chaos=_always_kill(),
            max_restarts=2,
        )
        users, cert = ctx["users"], ctx["read_cert"]
        doomed = [
            service.submit(_read(users, cert, "ObjectO", 5, f"tb-o-{i}"), now=5)
            for i in range(8)
        ]
        healthy = [
            service.submit(_read(users, cert, "ObjectP", 5, f"tb-p-{i}"), now=5)
            for i in range(6)
        ]
        # Decided on the submitting thread: nothing is left pending.
        assert all(t.done() for t in doomed + healthy)
        assert service.drain(timeout=20), "drain must terminate"

        # 3 crashes (the first + 2 logical restarts), each taking its
        # in-hand ticket down as Errored; admission shed the rest as
        # CircuitOpen once the breaker tripped.
        results = [t.result(0) for t in doomed]
        errored = [r for r in results if isinstance(r, Errored)]
        shed = [r for r in results if isinstance(r, CircuitOpen)]
        assert len(errored) == 3
        assert all(r.error_type == "WorkerKilled" for r in errored)
        assert len(shed) == 5
        assert all(r.shed and r.restarts == 2 for r in shed)

        health = service.stats()["health"]
        assert health["crashes"] == 3
        assert health["restarts"] == 2, "restarts are bounded"
        assert health["breaker"] == "open"
        assert health["circuit_open_sheds"] == 5 + len(healthy)
        assert service._breaker.is_open

        # One breaker: another object's traffic sheds too.
        assert all(isinstance(t.result(0), CircuitOpen) for t in healthy)

    def test_admission_sheds_for_open_breaker(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(
            mode="threaded",
            chaos=_always_kill(),
            max_restarts=0,
        )
        users, cert = ctx["users"], ctx["read_cert"]
        service.submit(_read(users, cert, "ObjectO", 5, "as-0"), now=5)
        assert service.drain(timeout=10)
        assert service._breaker.is_open
        ticket = service.submit(_read(users, cert, "ObjectO", 5, "as-1"), now=5)
        assert ticket.done(), "open-breaker shed resolves at admission"
        decision = ticket.result(0)
        assert isinstance(decision, CircuitOpen)
        assert "circuit open" in decision.reason
        # One breaker: another object sheds at admission too.
        assert isinstance(
            service.authorize(_read(users, cert, "ObjectP", 5, "as-2"), now=5),
            CircuitOpen,
        )


class TestManualRestartBudget:
    def test_logical_restarts_burn_the_same_budget(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(
            mode="manual",
            queue_depth=16,
            chaos=_always_kill(),
            max_restarts=2,
        )
        users, cert = ctx["users"], ctx["read_cert"]
        doomed = [
            service.submit(_read(users, cert, "ObjectO", 5, f"mb-{i}"), now=5)
            for i in range(8)
        ]
        other = service.submit(_read(users, cert, "ObjectP", 5, "mb-p"), now=5)
        service.pump()
        results = [t.result(0) for t in doomed]
        assert sum(isinstance(r, Errored) for r in results) == 3
        assert sum(isinstance(r, CircuitOpen) for r in results) == 5
        health = service.stats()["health"]
        assert health["crashes"] == 3
        assert health["restarts"] == 2
        assert health["breaker"] == "open"
        # Queued behind the doomed tickets, it failed over with them.
        assert isinstance(other.result(0), CircuitOpen)
        # Post-trip admission sheds without pumping.
        late = service.submit(_read(users, cert, "ObjectO", 5, "mb-l"), now=5)
        assert isinstance(late.result(0), CircuitOpen)


class TestUnsupervisedDetection:
    """A kill strands nothing: a threaded service has no worker to lose.

    The kill is a logical restart, so ``drain`` returns, ``close``
    resolves every ticket, and an idle close is immediate.
    """

    def _killing_service(self, make_service, **chaos):
        return make_service(
            mode="threaded",
            chaos=FaultInjector(ChaosConfig(**chaos)),
        )

    def test_drain_returns_after_unsupervised_kill(self, service_coalition):
        ctx, make_service = service_coalition
        # A loop-top kill once the decider decided one ticket: nothing is
        # in hand, so the killed ticket is decided after the restart.
        service = self._killing_service(
            make_service, kill_after=1, kill_times=1
        )
        users, cert = ctx["users"], ctx["read_cert"]
        tickets = [
            service.submit(_read(users, cert, "ObjectO", 5, f"ud-{i}"), now=5)
            for i in range(4)
        ]
        assert all(t.done() for t in tickets)
        start = time.perf_counter()
        assert service.drain(timeout=30)
        assert time.perf_counter() - start < 5
        assert all(t.result(0).granted for t in tickets)
        health = service.stats()["health"]
        assert health["crashes"] == 1
        assert health["restarts"] == 1
        probe = service.health()
        assert probe["live"] and probe["breaker"] == "closed"

    def test_close_leaves_no_ticket_waiting(self, service_coalition):
        ctx, make_service = service_coalition
        # An in-flight kill takes its ticket down as Errored.
        service = self._killing_service(
            make_service, kill_in_flight=True, kill_times=1
        )
        users, cert = ctx["users"], ctx["read_cert"]
        tickets = [
            service.submit(_read(users, cert, "ObjectO", 5, f"uc-{i}"), now=5)
            for i in range(4)
        ]
        service.close()
        assert all(t.done() for t in tickets), "close leaves nobody waiting"
        killed = tickets[0].result(0)
        assert isinstance(killed, Errored)
        assert killed.error_type == "WorkerKilled"
        assert all(t.result(0).granted for t in tickets[1:])
        stats = service.stats()["service"]
        assert (
            stats["evaluated"] + stats["errored"] + stats["overloaded"]
            == stats["submitted"]
            == 4
        )

    def test_idle_close_is_fast(self, service_coalition):
        _, make_service = service_coalition
        service = make_service(mode="threaded")
        start = time.perf_counter()
        service.close()
        assert time.perf_counter() - start < 2
        assert not service.health()["live"]
