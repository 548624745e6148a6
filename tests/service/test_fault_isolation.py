"""Per-ticket fault isolation: one poisoned request never stops the decider.

Regression suite for the silent decider-thread death bug: before the
supervision layer, an exception escaping evaluation killed the
deciding thread, stranding every queued ticket and hanging ``drain()``
until its timeout.  Now the exception resolves *that* ticket as a
typed ``Errored`` decision (fail closed, exception class recorded,
trace annotated, counters bumped) and the service keeps deciding.
"""

from repro.coalition import build_joint_request
from repro.service import Errored


def _read(users, cert, obj, now, nonce):
    return build_joint_request(
        users[0], [], "read", obj, cert, now=now, nonce=nonce
    )


def _poison_object(service, obj, times=1, exc_type=RuntimeError):
    """Make the next ``times`` evaluations for object ``obj`` raise."""
    protocol = service.epochs.current.protocol
    original = protocol.authorize
    state = {"left": times, "calls": 0}

    def poisoned(request, acl, now):
        if request.object_name != obj:
            return original(request, acl, now)
        state["calls"] += 1
        if state["left"] > 0:
            state["left"] -= 1
            raise exc_type("poisoned evaluation")
        return original(request, acl, now)

    protocol.authorize = poisoned
    return state


class TestFaultIsolation:
    def test_evaluation_exception_does_not_strand_queued_tickets(
        self, service_coalition
    ):
        """The seed-failing regression: a poisoned first ticket used to
        kill the worker, leaving the three behind it queued forever and
        drain() burning its full timeout.  Threaded submits now return
        decided tickets, and the fault counts as no crash."""
        ctx, make_service = service_coalition
        service = make_service(mode="threaded", queue_depth=16)
        users, cert = ctx["users"], ctx["read_cert"]
        _poison_object(service, "ObjectO", times=1)
        tickets = [
            service.submit(_read(users, cert, "ObjectO", 5, f"fi-{i}"), now=5)
            for i in range(4)
        ]
        assert all(t.done() for t in tickets), "no ticket is stranded"
        assert service.drain(timeout=10), "the service must keep deciding"
        poisoned = tickets[0].result(0)
        assert isinstance(poisoned, Errored)
        assert not poisoned.granted, "errored decisions fail closed"
        assert poisoned.error_type == "RuntimeError"
        assert poisoned.object_name == "ObjectO"
        assert "poisoned evaluation" in poisoned.reason
        assert all(t.result(0).granted for t in tickets[1:])
        health = service.stats()["health"]
        assert health["crashes"] == 0
        assert health["breaker"] == "closed"

    def test_errored_counted_in_stats_and_metrics(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual")
        users, cert = ctx["users"], ctx["read_cert"]
        _poison_object(service, "ObjectO", times=2, exc_type=KeyError)
        for i in range(5):
            service.submit(_read(users, cert, "ObjectO", 5, f"fm-{i}"), now=5)
        service.pump()
        stats = service.stats()["service"]
        assert stats["errored"] == 2
        assert stats["evaluated"] == 3
        assert stats["submitted"] == 5
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["service.errored"] == 2

    def test_errored_ticket_trace_records_exception(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual", tracing=True)
        users, cert = ctx["users"], ctx["read_cert"]
        _poison_object(service, "ObjectO", times=1, exc_type=ValueError)
        ticket = service.submit(_read(users, cert, "ObjectO", 5, "ft-0"), now=5)
        service.pump()
        trace = service.tracer.find_trace(ticket.trace_id)
        assert trace is not None
        assert trace.attrs.get("errored") is True
        error_span = trace.find("error")
        assert error_span is not None
        assert error_span.attrs["error_type"] == "ValueError"
        assert "poisoned evaluation" in str(error_span.attrs["message"])

    def test_isolated_fault_releases_nonce_chain(self, service_coalition):
        """An errored ticket still unblocks its same-nonce successor —
        the barrier waits on resolution, not on a grant."""
        ctx, make_service = service_coalition
        service = make_service(mode="threaded")
        users, cert = ctx["users"], ctx["read_cert"]
        _poison_object(service, "ObjectO", times=1)
        first = service.submit(_read(users, cert, "ObjectO", 5, "fn-0"), now=5)
        second = service.submit(_read(users, cert, "ObjectP", 5, "fn-0"), now=5)
        assert service.drain(timeout=10)
        assert isinstance(first.result(0), Errored)
        # The nonce was never recorded (evaluation died before the
        # replay check), so the successor evaluates normally.
        assert second.result(0).granted

    def test_errored_decision_lands_in_audit_log(self, service_coalition):
        from repro.coalition import AuditLog

        ctx, make_service = service_coalition
        audit = AuditLog(key_bits=256)
        service = make_service(mode="manual", audit_log=audit)
        users, cert = ctx["users"], ctx["read_cert"]
        _poison_object(service, "ObjectO", times=1)
        service.submit(_read(users, cert, "ObjectO", 5, "fa-0"), now=5)
        service.pump()
        audit.verify(expected_length=len(audit))
        entry = audit.entries()[-1]
        assert not entry.granted
        assert "errored" in entry.reason
