"""Decision traces through the service: span shapes, audit correlation."""

import pytest

from repro.coalition import AuditLog, AuditVerificationError, build_joint_request


def _read(users, cert, obj, now, nonce):
    return build_joint_request(
        users[0], [], "read", obj, cert, now=now, nonce=nonce
    )


SERVED_SPANS = ["admission", "queue_wait", "epoch_pin", "derivation"]


# num_shards is still an accepted keyword; any value gives one queue and
# the same traces.
@pytest.fixture(params=[1, 4], ids=["shards-1", "shards-4"])
def traced_service(request, service_coalition):
    ctx, make_service = service_coalition
    service = make_service(
        mode="manual",
        num_shards=request.param,
        tracing=True,
        audit_log=AuditLog(key_bits=256),
    )
    return ctx, service


class TestSpanShapes:
    def test_grant_trace_has_full_span_path(self, traced_service):
        ctx, service = traced_service
        users, cert = ctx["users"], ctx["read_cert"]
        ticket = service.submit(_read(users, cert, "ObjectO", 5, "tr-0"), now=5)
        service.pump()
        assert ticket.result().granted
        trace = service.tracer.find_trace(ticket.trace_id)
        assert trace is not None
        assert trace.child_names() == SERVED_SPANS + ["audit_append"]
        derivation = trace.find("derivation")
        assert derivation.attrs["granted"] is True
        assert derivation.attrs["proof_steps"] > 0
        assert "A38" in derivation.attrs["axioms"]  # the says_t grant axiom
        assert derivation.attrs["axiom_counts"]["A38"] >= 1
        assert all(s.duration_s is not None for s in trace.walk())

    def test_deny_trace_records_reason(self, traced_service):
        ctx, service = traced_service
        users, cert = ctx["users"], ctx["read_cert"]
        # Read cert does not authorize writes: denied, not granted.
        request = build_joint_request(
            users[0], [], "write", "ObjectO", cert, now=5, nonce="tr-d0"
        )
        ticket = service.submit(request, now=5)
        service.pump()
        assert not ticket.result().granted
        trace = service.tracer.find_trace(ticket.trace_id)
        assert trace.child_names() == SERVED_SPANS + ["audit_append"]
        derivation = trace.find("derivation")
        assert derivation.attrs["granted"] is False
        assert derivation.attrs["reason"]

    def test_overloaded_trace_is_admission_then_shed(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(
            mode="manual", queue_depth=1,
            tracing=True, audit_log=AuditLog(key_bits=256),
        )
        users, cert = ctx["users"], ctx["read_cert"]
        service.submit(_read(users, cert, "ObjectO", 5, "tr-s0"), now=5)
        shed = service.submit(_read(users, cert, "ObjectO", 5, "tr-s1"), now=5)
        assert shed.done()
        trace = service.tracer.find_trace(shed.trace_id)
        assert trace.child_names() == ["admission", "shed", "audit_append"]
        assert trace.find("admission").attrs["outcome"] == "shed"
        assert "overloaded" in trace.find("shed").attrs["reason"]
        service.pump()

    def test_revoked_trace_shows_denial_after_epoch(self, traced_service):
        ctx, service = traced_service
        users, cert = ctx["users"], ctx["read_cert"]
        coalition = ctx["coalition"]
        revocation = coalition.authority.revoke_certificate(cert, now=6)
        service.publish_revocation(revocation, now=6)
        ticket = service.submit(_read(users, cert, "ObjectO", 7, "tr-r0"), now=7)
        service.pump()
        decision = ticket.result()
        assert not decision.granted
        trace = service.tracer.find_trace(ticket.trace_id)
        derivation = trace.find("derivation")
        assert derivation.attrs["granted"] is False
        assert "revoked" in derivation.attrs["reason"]
        # The epoch pinned at admission is the post-revocation epoch.
        epoch_pin = trace.find("epoch_pin")
        assert epoch_pin.attrs["epoch_id"] == trace.find("admission").attrs["epoch_id"]

    def test_trace_ids_are_deterministic_per_sequence(self, traced_service):
        ctx, service = traced_service
        users, cert = ctx["users"], ctx["read_cert"]
        t0 = service.submit(_read(users, cert, "ObjectO", 5, "tr-i0"), now=5)
        t1 = service.submit(_read(users, cert, "ObjectP", 5, "tr-i1"), now=5)
        assert t0.trace_id == "ServiceP-00000000"
        assert t1.trace_id == "ServiceP-00000001"
        service.pump()


class TestTracingOff:
    def test_no_spans_and_empty_trace_id(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual")
        users, cert = ctx["users"], ctx["read_cert"]
        ticket = service.submit(_read(users, cert, "ObjectO", 5, "off-0"), now=5)
        service.pump()
        assert ticket.result().granted
        assert ticket.trace is None
        assert ticket.trace_id == ""
        assert service.tracer.recent() == []
        assert service.traces() == []


class TestAuditCorrelation:
    def test_audit_chain_verifies_with_trace_ids(self, traced_service):
        ctx, service = traced_service
        users, cert = ctx["users"], ctx["read_cert"]
        tickets = [
            service.submit(_read(users, cert, "ObjectO", 5, f"au-{i}"), now=5)
            for i in range(3)
        ]
        service.pump()
        audit = service.audit_log
        entries = audit.entries()
        assert len(entries) == 3
        audit.verify(expected_length=3)
        by_trace = {e.trace_id: e for e in entries}
        for ticket in tickets:
            entry = by_trace[ticket.trace_id]
            assert entry.granted == ticket.result().granted

    def test_shed_decisions_are_audited_with_trace_id(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(
            mode="manual", queue_depth=1,
            tracing=True, audit_log=AuditLog(key_bits=256),
        )
        users, cert = ctx["users"], ctx["read_cert"]
        service.submit(_read(users, cert, "ObjectO", 5, "as-0"), now=5)
        shed = service.submit(_read(users, cert, "ObjectO", 5, "as-1"), now=5)
        service.pump()
        entries = service.audit_log.entries()
        shed_entries = [e for e in entries if "overloaded" in e.reason]
        assert len(shed_entries) == 1
        assert shed_entries[0].trace_id == shed.trace_id
        service.audit_log.verify(expected_length=len(entries))

    def test_tampered_trace_id_breaks_the_chain(self, traced_service):
        ctx, service = traced_service
        users, cert = ctx["users"], ctx["read_cert"]
        service.submit(_read(users, cert, "ObjectO", 5, "tp-0"), now=5)
        service.pump()
        audit = service.audit_log
        entry = audit.entries()[0]
        import dataclasses
        forged = dataclasses.replace(entry, trace_id="ServiceP-99999999")
        with pytest.raises(AuditVerificationError):
            AuditLog.verify_chain([forged], audit.public_key)

    def test_audit_without_tracing_still_chains(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(
            mode="manual", audit_log=AuditLog(key_bits=256)
        )
        users, cert = ctx["users"], ctx["read_cert"]
        service.submit(_read(users, cert, "ObjectO", 5, "nt-0"), now=5)
        service.pump()
        entries = service.audit_log.entries()
        assert len(entries) == 1
        assert entries[0].trace_id == ""
        service.audit_log.verify(expected_length=1)


class TestThreadedTracing:
    def test_threaded_mode_traces_and_chains(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(
            mode="threaded",
            tracing=True, audit_log=AuditLog(key_bits=256),
        )
        users, cert = ctx["users"], ctx["read_cert"]
        tickets = [
            service.submit(_read(users, cert, obj, 5, f"th-{i}"), now=5)
            for i, obj in enumerate(["ObjectO", "ObjectP"] * 4)
        ]
        assert service.drain(timeout=30)
        assert service.tracer.spans_finished == len(tickets)
        for ticket in tickets:
            trace = service.tracer.find_trace(ticket.trace_id)
            assert trace is not None
            assert trace.find("derivation") is not None
        service.audit_log.verify(expected_length=len(tickets))
