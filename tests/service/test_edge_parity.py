"""Edge semantics: byte parity with in-process submission, shed mapping.

The acceptance property of the network front door: a seeded request
stream evaluated through the socket yields decisions **byte-identical**
to in-process ``submit`` against a service verifying the same
certificates — the edge parses, routes and sheds, but never changes a
decision.  Both services attach to ONE coalition (the
``service_coalition`` fixture supports several attached servers), so
certificate serials and key material are literally shared and any
byte difference would be the edge's fault.

Also pinned here: the typed shed translations (``Overloaded`` →
503 ``retry`` with the short backoff hint, ``CircuitOpen`` → 503
``retry`` with the long hint, ``Errored`` → 500 ``error``) and the
healthz/readyz probe payloads against a tripped-breaker service.
"""

import pytest

from repro.coalition import build_joint_request
from repro.service import ChaosConfig, FaultInjector
from repro.service.edge import (
    RETRY_AFTER_CIRCUIT_OPEN_S,
    RETRY_AFTER_OVERLOADED_S,
    serve_in_thread,
)
from repro.service.fixture import CoalitionFixture
from repro.service.wire import (
    EdgeClient,
    decision_to_dict,
    decision_wire_bytes,
    encode_frame,
    request_to_dict,
)


def _seeded_stream(ctx, seed, count, objects=("ObjectO", "ObjectP")):
    """The fixture's deterministic read/write mix over this coalition."""
    fixture = CoalitionFixture(
        service=None,  # no revocations: the stream never touches it
        coalition=ctx["coalition"],
        users=ctx["users"],
        object_names=list(objects),
        read_cert=ctx["read_cert"],
        write_cert=ctx["write_cert"],
    )
    return [request for _, request in fixture.stream(count, seed=seed)]


class TestByteParity:
    @pytest.mark.parametrize("window", [1, 4])
    def test_socket_decisions_byte_identical_to_inproc(
        self, service_coalition, window
    ):
        """``window`` requests are pipelined per round trip, so the edge
        admits up to that many frames of a tick as one batch."""
        ctx, make_service = service_coalition
        inproc = make_service(mode="threaded", queue_depth=256)
        socket_svc = make_service(mode="threaded", queue_depth=256)
        stream = _seeded_stream(ctx, seed=7, count=30)

        local = [
            decision_wire_bytes(
                decision_to_dict(inproc.submit(req, now=i + 1).result(30))
            )
            for i, req in enumerate(stream)
        ]

        handle = serve_in_thread(socket_svc)
        try:
            with EdgeClient("127.0.0.1", handle.port) as client:
                responses = {}
                for start in range(0, len(stream), window):
                    chunk = range(start, min(start + window, len(stream)))
                    client.send_raw(b"".join(
                        encode_frame({
                            "kind": "authorize",
                            "id": i,
                            "now": i + 1,
                            "request": request_to_dict(stream[i]),
                        })
                        for i in chunk
                    ))
                    for _ in chunk:
                        response = client.recv_response()
                        responses[response["id"]] = response["decision"]
                remote = [
                    decision_wire_bytes(responses[i]) for i in range(len(stream))
                ]
        finally:
            handle.shutdown()

        assert local == remote  # byte-for-byte, all 30 decisions
        # Sanity: the stream exercised both outcomes' encodings.
        assert any(b'"granted":true' in doc for doc in local)

    def test_parity_includes_replay_denials(self, service_coalition):
        """A replayed nonce denies identically through the socket."""
        ctx, make_service = service_coalition
        inproc = make_service(mode="threaded")
        socket_svc = make_service(mode="threaded")
        request = build_joint_request(
            ctx["users"][0], [], "read", "ObjectO",
            ctx["read_cert"], now=2, nonce="par-replay",
        )
        local = []
        for i in range(2):  # second submission replays the nonce
            local.append(
                decision_wire_bytes(
                    decision_to_dict(inproc.submit(request, now=2).result(30))
                )
            )
        handle = serve_in_thread(socket_svc)
        try:
            with EdgeClient("127.0.0.1", handle.port) as client:
                remote = [
                    decision_wire_bytes(
                        client.authorize(request, now=2, req_id=i)["decision"]
                    )
                    for i in range(2)
                ]
        finally:
            handle.shutdown()
        assert local == remote
        assert b'"granted":true' in local[0]
        assert b'"granted":false' in local[1]


class TestShedTranslation:
    def test_overloaded_maps_to_retry_with_short_hint(self, service_coalition):
        """Queue depth 1: a pipelined burst sheds its extras as 503s.

        The three frames leave in one ``send_raw`` (one loopback
        segment), so they parse in one loop tick and go down as one
        batch: one request fills the queue and is decided, the other
        two are shed at admission.
        """
        ctx, make_service = service_coalition
        service = make_service(mode="threaded", queue_depth=1)
        stream = _seeded_stream(ctx, seed=3, count=3, objects=("ObjectO",))
        handle = serve_in_thread(service)
        try:
            with EdgeClient("127.0.0.1", handle.port) as client:
                client.send_raw(b"".join(
                    encode_frame({
                        "kind": "authorize",
                        "id": i,
                        "now": i + 1,
                        "request": request_to_dict(req),
                    })
                    for i, req in enumerate(stream)
                ))
                responses = {}
                for _ in range(3):
                    response = client.recv_response()
                    responses[response["id"]] = response
                retries = [
                    r for r in responses.values() if r["kind"] == "retry"
                ]
                assert len(retries) == 2
                for response in retries:
                    assert response["status"] == 503
                    assert response["retry_after"] == RETRY_AFTER_OVERLOADED_S
                    assert response["decision"]["type"] == "overloaded"
                    assert response["decision"]["granted"] is False
                    assert response["decision"]["queue_depth"] == 1
                # The queued one resolves as a real decision.
                (final,) = [
                    r for r in responses.values() if r["kind"] != "retry"
                ]
                assert final["kind"] == "decision"
                assert final["status"] == 200
                assert sorted(responses) == [0, 1, 2]
        finally:
            handle.shutdown()

    def test_circuit_open_maps_to_retry_with_long_hint(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(
            mode="threaded",
            chaos=FaultInjector(
                ChaosConfig(kill_in_flight=True, kill_times=100)
            ),
            max_restarts=0,
        )
        handle = serve_in_thread(service)
        try:
            with EdgeClient("127.0.0.1", handle.port) as client:
                # The first request dies with the decider (a typed
                # fault — the kill took the ticket down mid-evaluation)
                # and burns the zero-restart budget, tripping the
                # breaker.
                first = build_joint_request(
                    ctx["users"][0], [], "read", "ObjectO",
                    ctx["read_cert"], now=1, nonce="co-0",
                )
                tripped = client.authorize(first, now=1, req_id=0)
                assert tripped["kind"] in ("error", "retry")
                # Now admission sheds instantly with the long hint.
                again = build_joint_request(
                    ctx["users"][0], [], "read", "ObjectO",
                    ctx["read_cert"], now=2, nonce="co-1",
                )
                response = client.authorize(again, now=2, req_id=1)
                assert response["kind"] == "retry"
                assert response["status"] == 503
                assert response["retry_after"] == RETRY_AFTER_CIRCUIT_OPEN_S
                assert response["decision"]["type"] == "circuit-open"
                # One breaker: another object's request sheds too.
                other = build_joint_request(
                    ctx["users"][0], [], "read", "ObjectP",
                    ctx["read_cert"], now=3, nonce="co-2",
                )
                shed = client.authorize(other, now=3, req_id=2)
                assert shed["kind"] == "retry"
                assert shed["decision"]["type"] == "circuit-open"
                assert shed["decision"]["granted"] is False
        finally:
            handle.shutdown()

    def test_shed_and_errored_documents_carry_no_shard(self):
        from repro.service import CircuitOpen, Errored, Overloaded

        common = dict(
            granted=False, reason="r", operation="read",
            object_name="ObjectO", checked_at=1,
        )
        docs = [
            decision_to_dict(Overloaded(queue_depth=4, **common)),
            decision_to_dict(CircuitOpen(restarts=2, **common)),
            decision_to_dict(Errored(error_type="E", **common)),
        ]
        assert [doc["type"] for doc in docs] == [
            "overloaded", "circuit-open", "errored",
        ]
        assert all("shard" not in doc for doc in docs)
        assert docs[0]["queue_depth"] == 4
        assert docs[1]["restarts"] == 2
        assert docs[2]["error_type"] == "E"

    def test_errored_maps_to_500(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(
            mode="threaded",
            chaos=FaultInjector(ChaosConfig(raise_every=1)),
        )
        request = build_joint_request(
            ctx["users"][0], [], "read", "ObjectO",
            ctx["read_cert"], now=1, nonce="err-0",
        )
        handle = serve_in_thread(service)
        try:
            with EdgeClient("127.0.0.1", handle.port) as client:
                response = client.authorize(request, now=1, req_id=0)
                assert response["kind"] == "error"
                assert response["status"] == 500
                assert response["error_type"] == "InjectedFault"
                assert response["decision"]["type"] == "errored"
                assert response["decision"]["granted"] is False
        finally:
            handle.shutdown()


class TestHealthProbes:
    def test_probes_against_tripped_breaker_service(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(
            mode="threaded",
            chaos=FaultInjector(
                ChaosConfig(kill_in_flight=True, kill_times=100)
            ),
            max_restarts=0,
        )
        handle = serve_in_thread(service)
        try:
            with EdgeClient("127.0.0.1", handle.port) as client:
                # Green before the trip.
                assert client.healthz()["status"] == 200
                ready = client.readyz()
                assert ready["status"] == 200
                assert ready["report"]["breaker"] == "closed"
                # Trip the breaker.
                request = build_joint_request(
                    ctx["users"][0], [], "read", "ObjectO",
                    ctx["read_cert"], now=1, nonce="hp-0",
                )
                client.authorize(request, now=1, req_id=0)
                service.drain(timeout=10)

                health = client.healthz()
                # Open breaker = still live (it answers, with sheds)...
                assert health["status"] == 200
                assert health["report"]["live"] is True
                # ...but not ready, and the report says why.
                ready = client.readyz()
                assert ready["status"] == 503
                assert ready["report"]["ready"] is False
                assert ready["report"]["breaker"] == "open"
                assert ready["report"]["crashes"] == 1
                assert ready["report"]["restarts"] == 0
                assert ready["report"]["queue_depth"] == 0
        finally:
            handle.shutdown()

    def test_probe_ids_are_echoed(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="threaded")
        handle = serve_in_thread(service)
        try:
            with EdgeClient("127.0.0.1", handle.port) as client:
                assert client.probe("healthz", req_id=41)["id"] == 41
                assert client.probe("readyz", req_id=42)["id"] == 42
        finally:
            handle.shutdown()
