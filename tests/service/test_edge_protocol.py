"""Edge wire-protocol conformance: framing fuzz, typed errors, survival.

Two layers of coverage:

* codec-level — every way a frame can be malformed (truncated at every
  byte offset, oversized, garbage, wrong magic/version, non-JSON or
  non-object body) raises a typed :class:`ProtocolError` with a stable
  code, never a bare parser exception;
* live-server — the same malformations fed to a running
  :class:`EdgeServer` over a real socket produce 400-style
  ``protocol-error`` response frames (fatal framing errors additionally
  close that connection) and the server keeps serving other
  connections afterwards — a garbage frame must never crash a handler.
"""

import asyncio
import copy
import json
import socket
import struct
import sys
import threading
import time

import pytest

from repro.coalition import build_joint_request
from repro.service import wire
from repro.service import ServiceError
from repro.service.edge import EdgeServer, serve_in_thread
from repro.service.wire import (
    DEFAULT_MAX_FRAME,
    HEADER_SIZE,
    PROTOCOL_VERSION,
    EdgeClient,
    ProtocolError,
    decode_body,
    decode_frame,
    decode_header,
    encode_frame,
    request_from_dict,
    request_to_dict,
)


def _read(users, cert, obj, now, nonce):
    return build_joint_request(
        users[0], [], "read", obj, cert, now=now, nonce=nonce
    )


class TestFraming:
    def test_round_trip(self):
        doc = {"kind": "authorize", "id": 7, "nested": {"a": [1, 2]}}
        frame = encode_frame(doc)
        assert decode_frame(frame) == doc

    def test_header_is_versioned(self):
        frame = bytearray(encode_frame({"k": "v"}))
        frame[2] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError) as exc:
            decode_frame(bytes(frame))
        assert exc.value.code == "bad-version"
        assert exc.value.fatal

    def test_bad_magic(self):
        frame = b"XX" + encode_frame({"k": "v"})[2:]
        with pytest.raises(ProtocolError) as exc:
            decode_frame(frame)
        assert exc.value.code == "bad-magic"

    def test_oversized_rejected_from_header_alone(self):
        header = struct.pack("!2sBxI", b"CE", PROTOCOL_VERSION, DEFAULT_MAX_FRAME + 1)
        with pytest.raises(ProtocolError) as exc:
            decode_header(header)
        assert exc.value.code == "frame-too-large"

    def test_encode_refuses_oversized_body(self):
        with pytest.raises(ProtocolError) as exc:
            encode_frame({"pad": "x" * DEFAULT_MAX_FRAME})
        assert exc.value.code == "frame-too-large"

    def test_truncation_at_every_offset_is_typed(self):
        """Any strict prefix of a valid frame decodes to a typed error."""
        frame = encode_frame({"kind": "healthz", "id": 3})
        for cut in range(len(frame)):
            with pytest.raises(ProtocolError) as exc:
                decode_frame(frame[:cut])
            assert exc.value.code == "truncated", cut
            assert exc.value.fatal

    def test_garbage_bodies_are_typed(self):
        assert pytest.raises(ProtocolError, decode_body, b"\xff\xfe").value.code == "bad-json"
        assert pytest.raises(ProtocolError, decode_body, b"not json").value.code == "bad-json"
        assert pytest.raises(ProtocolError, decode_body, b"[1, 2]").value.code == "bad-frame"
        assert pytest.raises(ProtocolError, decode_body, b'"str"').value.code == "bad-frame"

    def test_random_garbage_never_raises_untyped(self):
        import random

        rng = random.Random(1234)
        for _ in range(200):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
            try:
                decode_frame(blob)
            except ProtocolError:
                pass  # the only acceptable exception type

    def test_fatal_taxonomy(self):
        for code in ProtocolError.FRAMING_CODES:
            assert ProtocolError(code, "x").fatal
        assert not ProtocolError("bad-request", "x").fatal
        assert not ProtocolError("unknown-kind", "x").fatal


class TestRequestCodec:
    def test_round_trip_preserves_every_field(self, service_coalition):
        ctx, _ = service_coalition
        request = build_joint_request(
            ctx["users"][0], [ctx["users"][1]], "write", "ObjectO",
            ctx["write_cert"], now=5, nonce="codec-1",
        )
        rebuilt = request_from_dict(request_to_dict(request))
        assert rebuilt == request

    def test_document_survives_json_round_trip(self, service_coalition):
        ctx, _ = service_coalition
        request = _read(ctx["users"], ctx["read_cert"], "ObjectP", 3, "codec-2")
        doc = json.loads(json.dumps(request_to_dict(request)))
        assert request_from_dict(doc) == request

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("op"),
            lambda d: d.pop("parts"),
            lambda d: d.update(parts=[]),
            lambda d: d.update(parts=[{"user": 1}]),
            lambda d: d.update(op=42),
            lambda d: d.update(degraded="yes"),
            lambda d: d.update(attribute_certificate={"kind": "bogus"}),
            lambda d: d.update(
                attribute_certificate=d["identity_certificates"][0]
            ),
            lambda d: d["parts"][0].update(signature="not-hex"),
            lambda d: d.update(identity_certificates="nope"),
        ],
    )
    def test_malformed_documents_are_bad_request(
        self, service_coalition, mutate
    ):
        ctx, _ = service_coalition
        request = _read(ctx["users"], ctx["read_cert"], "ObjectO", 2, "codec-3")
        doc = request_to_dict(request)
        mutate(doc)
        with pytest.raises(ProtocolError) as exc:
            request_from_dict(doc)
        assert exc.value.code == "bad-request"
        assert not exc.value.fatal

    def test_non_object_is_bad_request(self):
        with pytest.raises(ProtocolError) as exc:
            request_from_dict("nope")
        assert exc.value.code == "bad-request"


class TestCertificateFieldTypes:
    """A wrongly typed certificate field is a bad request, not an evaluation.

    The read certificate is stamped at time 0 with threshold 1, so a
    ``False`` timestamp or a ``True`` threshold compares equal to it:
    decoded loosely, the forgery would share the genuine certificate's
    interned object and its memoized bytes.
    """

    @pytest.mark.parametrize(
        "field, value",
        [
            ("timestamp", 0.0),
            ("threshold", 1.0),
            ("timestamp", False),
            ("threshold", True),
        ],
    )
    def test_attribute_certificate_field(self, service_coalition, field, value):
        ctx, _ = service_coalition
        doc = request_to_dict(
            _read(ctx["users"], ctx["read_cert"], "ObjectO", 2, "types-1")
        )
        request_from_dict(copy.deepcopy(doc))  # the genuine one, interned
        doc["attribute_certificate"][field] = value
        with pytest.raises(ProtocolError) as exc:
            request_from_dict(doc)
        assert exc.value.code == "bad-request"

    def test_identity_certificate_field(self, service_coalition):
        ctx, _ = service_coalition
        doc = request_to_dict(
            _read(ctx["users"], ctx["read_cert"], "ObjectO", 2, "types-2")
        )
        doc["identity_certificates"][0]["timestamp"] = False
        with pytest.raises(ProtocolError) as exc:
            request_from_dict(doc)
        assert exc.value.code == "bad-request"


class TestCertificateInterning:
    def test_two_decodes_share_certificate_objects(self, service_coalition):
        ctx, _ = service_coalition
        request = build_joint_request(
            ctx["users"][0], [ctx["users"][1]], "write", "ObjectO",
            ctx["write_cert"], now=5, nonce="intern-1",
        )
        doc = json.loads(json.dumps(request_to_dict(request)))
        first = request_from_dict(copy.deepcopy(doc))
        second = request_from_dict(doc)
        assert first.attribute_certificate is second.attribute_certificate
        for a, b in zip(
            first.identity_certificates, second.identity_certificates
        ):
            assert a is b
        # The parts are per request, never shared.
        assert first.parts[0] is not second.parts[0]

    def test_different_signature_is_a_different_object(self, service_coalition):
        ctx, _ = service_coalition
        doc = request_to_dict(
            _read(ctx["users"], ctx["read_cert"], "ObjectO", 2, "intern-2")
        )
        genuine = request_from_dict(copy.deepcopy(doc)).attribute_certificate
        doc["attribute_certificate"]["signature"] = hex(genuine.signature ^ 1)
        forged = request_from_dict(doc).attribute_certificate
        assert forged is not genuine and forged != genuine
        assert forged.payload_bytes() == genuine.payload_bytes()

    def test_table_is_bounded(self, service_coalition):
        ctx, _ = service_coalition
        doc = request_to_dict(
            _read(ctx["users"], ctx["read_cert"], "ObjectO", 2, "intern-3")
        )
        for i in range(wire.INTERN_CAPACITY + 10):
            doc["attribute_certificate"]["signature"] = hex(i + 1)
            request_from_dict(doc)
            assert len(wire._interned) <= wire.INTERN_CAPACITY


    def test_concurrent_interning_shares_one_object(self):
        """Threads interning equal new values at once all get one object.

        Hashing the stand-in certificate sleeps, so every thread is
        inside the table lookup at once: without the table's lock each
        would miss and insert its own copy.
        """

        class SlowKey:
            def __init__(self, value):
                self.value = value

            def __eq__(self, other):
                return isinstance(other, SlowKey) and other.value == self.value

            def __hash__(self):
                time.sleep(0.0002)
                return hash(self.value)

        threads, count = 8, 20
        seen = [[None] * count for _ in range(threads)]
        start = threading.Barrier(threads)

        def intern_all(t):
            start.wait(timeout=10)
            for i in range(count):
                seen[t][i] = wire._intern(SlowKey(("race", i)))

        workers = [
            threading.Thread(target=intern_all, args=(t,))
            for t in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for i in range(count):
            assert all(seen[t][i] is seen[0][i] for t in range(threads))


class TestWarmInternTable:
    """A document matches an interned certificate only type for type.

    ``request_from_dict`` finds a repeated certificate document by its
    signature and compares it with the interned one instead of decoding
    it; plain ``==`` would let ``1.0`` or ``True`` stand for ``1``.
    """

    @pytest.fixture()
    def warm(self, service_coalition):
        ctx, _ = service_coalition
        request = build_joint_request(
            ctx["users"][0], [ctx["users"][1]], "write", "ObjectO",
            ctx["write_cert"], now=5, nonce="warm-1",
        )
        doc = json.loads(json.dumps(request_to_dict(request)))
        genuine = request_from_dict(copy.deepcopy(doc))
        return doc, genuine

    @pytest.mark.parametrize(
        "where, path, value",
        [
            ("attribute", ("threshold",), 2.0),
            ("attribute", ("timestamp",), False),
            ("attribute", ("validity", "begin"), False),
            ("attribute", ("validity", "end"), float(10**9)),
            ("identity", ("subject_key_exponent",), 65537.0),
            ("identity", ("timestamp",), False),
            ("identity", ("validity", "begin"), 0.0),
        ],
    )
    def test_loose_type_is_still_a_bad_request(self, warm, where, path, value):
        doc, genuine = warm
        cert_doc = (
            doc["attribute_certificate"]
            if where == "attribute"
            else doc["identity_certificates"][0]
        )
        *parents, leaf = path
        target = cert_doc
        for key in parents:
            target = target[key]
        assert target[leaf] == value  # equal by ==, wrong by type
        target[leaf] = value
        with pytest.raises(ProtocolError) as exc:
            request_from_dict(doc)
        assert exc.value.code == "bad-request"

    def test_nested_difference_is_not_the_interned_object(self, warm):
        doc, genuine = warm
        changed = copy.deepcopy(doc)
        changed["attribute_certificate"]["validity"]["end"] -= 1
        changed["attribute_certificate"]["subjects"][0][1] = "not-the-key"
        decoded = request_from_dict(changed).attribute_certificate
        assert decoded is not genuine.attribute_certificate
        assert decoded.validity.end == genuine.attribute_certificate.validity.end - 1
        assert decoded.subjects[0][1] == "not-the-key"
        identity = copy.deepcopy(doc)
        identity["identity_certificates"][1]["validity"]["end"] += 1
        got = request_from_dict(identity).identity_certificates
        assert got[0] is genuine.identity_certificates[0]
        assert got[1] is not genuine.identity_certificates[1]
        # The genuine document still finds the interned object.
        again = request_from_dict(copy.deepcopy(doc))
        assert again.attribute_certificate is genuine.attribute_certificate

    def test_tables_stay_within_capacity(self, warm):
        doc, _genuine = warm
        for i in range(wire.INTERN_CAPACITY + 10):
            doc["attribute_certificate"]["signature"] = hex(i + 1)
            request_from_dict(doc)
            assert len(wire._interned) <= wire.INTERN_CAPACITY
            assert len(wire._documents) <= wire.INTERN_CAPACITY


def _authorize_frame(request, now, req_id):
    return encode_frame(
        {
            "kind": "authorize",
            "id": req_id,
            "now": now,
            "request": request_to_dict(request),
        }
    )


def _on_loop(handle, fn):
    """Run ``fn`` on the edge's event loop thread; return its result."""

    async def call():
        return fn()

    return asyncio.run_coroutine_threadsafe(call(), handle._loop).result(10)


def _server_side(handle, client):
    """The edge's protocol object for ``client``'s connection."""
    local = client._sock.getsockname()
    (conn,) = [
        conn
        for conn in handle.edge._connections
        if conn.transport.get_extra_info("peername") == local
    ]
    return conn


@pytest.fixture()
def live_edge(service_coalition):
    """A threaded service behind a real listening edge."""
    ctx, make_service = service_coalition
    service = make_service(mode="threaded", queue_depth=64)
    handle = serve_in_thread(service)
    yield ctx, service, handle
    handle.shutdown()


class TestLiveServer:
    def test_garbage_stream_gets_typed_error_and_close(self, live_edge):
        ctx, service, handle = live_edge
        with EdgeClient("127.0.0.1", handle.port) as client:
            client.send_raw(b"\x00" * HEADER_SIZE)
            response = client.recv_frame()
            assert response["kind"] == "protocol-error"
            assert response["status"] == 400
            assert response["code"] == "bad-magic"
            assert response["fatal"] is True
            # Fatal framing error: the server hangs up on this socket.
            with pytest.raises((ConnectionError, ProtocolError)):
                client.recv_frame()
        # ...but keeps serving new connections.
        with EdgeClient("127.0.0.1", handle.port) as client:
            assert client.healthz()["status"] == 200

    def test_oversized_announcement_rejected_before_body(self, live_edge):
        ctx, service, handle = live_edge
        with EdgeClient("127.0.0.1", handle.port) as client:
            client.send_raw(
                struct.pack(
                    "!2sBxI", b"CE", PROTOCOL_VERSION, DEFAULT_MAX_FRAME + 1
                )
            )
            response = client.recv_frame()
            assert response["kind"] == "protocol-error"
            assert response["code"] == "frame-too-large"

    def test_non_json_body_is_fatal_but_survivable(self, live_edge):
        ctx, service, handle = live_edge
        with EdgeClient("127.0.0.1", handle.port) as client:
            body = b"{truncated json"
            client.send_raw(
                struct.pack("!2sBxI", b"CE", PROTOCOL_VERSION, len(body)) + body
            )
            assert client.recv_frame()["code"] == "bad-json"
        with EdgeClient("127.0.0.1", handle.port) as client:
            assert client.readyz()["status"] == 200

    def test_unknown_kind_keeps_connection(self, live_edge):
        ctx, service, handle = live_edge
        with EdgeClient("127.0.0.1", handle.port) as client:
            client.send_frame({"kind": "teleport", "id": 9})
            response = client.recv_frame()
            assert response["kind"] == "protocol-error"
            assert response["code"] == "unknown-kind"
            assert response["id"] == 9
            assert response["fatal"] is False
            # Same connection still serves.
            assert client.healthz()["status"] == 200

    def test_malformed_request_document_keeps_connection(self, live_edge):
        ctx, service, handle = live_edge
        with EdgeClient("127.0.0.1", handle.port) as client:
            client.send_frame(
                {"kind": "authorize", "id": 4, "now": 1, "request": {"op": 1}}
            )
            response = client.recv_frame()
            assert response["kind"] == "protocol-error"
            assert response["code"] == "bad-request"
            assert response["id"] == 4
            # A real request on the same connection evaluates normally.
            request = _read(ctx["users"], ctx["read_cert"], "ObjectO", 7, "lv-1")
            ok = client.authorize(request, now=7, req_id=5)
            assert ok["kind"] == "decision" and ok["id"] == 5
            assert ok["decision"]["granted"] is True

    def test_float_certificate_field_is_bad_request(self, live_edge):
        """Not an ``errored`` decision: the document never reaches a shard."""
        ctx, service, handle = live_edge
        request = _read(ctx["users"], ctx["read_cert"], "ObjectO", 7, "lv-f")
        doc = request_to_dict(request)
        doc["attribute_certificate"]["threshold"] = 1.0
        with EdgeClient("127.0.0.1", handle.port) as client:
            client.send_frame(
                {"kind": "authorize", "id": 2, "now": 7, "request": doc}
            )
            response = client.recv_frame()
            assert response["kind"] == "protocol-error"
            assert response["code"] == "bad-request"
        assert service.stats()["service"]["errored"] == 0

    def test_missing_now_is_bad_request(self, live_edge):
        ctx, service, handle = live_edge
        request = _read(ctx["users"], ctx["read_cert"], "ObjectO", 7, "lv-2")
        with EdgeClient("127.0.0.1", handle.port) as client:
            client.send_frame(
                {
                    "kind": "authorize",
                    "id": 1,
                    "request": request_to_dict(request),
                }
            )
            assert client.recv_frame()["code"] == "bad-request"

    def test_fuzz_storm_then_service_still_healthy(self, live_edge):
        """A barrage of malformed connections leaves the edge serving."""
        import random

        ctx, service, handle = live_edge
        rng = random.Random(99)
        for _ in range(25):
            with EdgeClient("127.0.0.1", handle.port) as client:
                blob = bytes(
                    rng.randrange(256) for _ in range(rng.randrange(1, 40))
                )
                client.send_raw(blob)
                client.close()
        with EdgeClient("127.0.0.1", handle.port) as client:
            assert client.healthz()["status"] == 200
            request = _read(ctx["users"], ctx["read_cert"], "ObjectP", 9, "lv-3")
            assert client.authorize(request, now=9)["decision"]["granted"]

    def test_connection_churn_answers_every_request_once(self, live_edge):
        """Clients that reconnect every k requests lose no response.

        Three closed-loop clients share 40 requests and each opens a
        fresh connection after every 5 it sends.  Every request id must
        come back exactly once, as a decision, on the connection that
        sent it.
        """
        import threading

        ctx, service, handle = live_edge
        total, churn_every = 40, 5
        requests = [
            _read(
                ctx["users"], ctx["read_cert"], ("ObjectO", "ObjectP")[i % 2],
                i + 1, f"churn-{i}",
            )
            for i in range(total)
        ]
        responses = {i: [] for i in range(total)}
        indices = iter(range(total))
        lock = threading.Lock()
        errors = []

        def client_loop():
            client = EdgeClient("127.0.0.1", handle.port)
            sent = 0
            try:
                while True:
                    with lock:
                        i = next(indices, None)
                    if i is None:
                        return
                    if sent == churn_every:
                        client.close()
                        client = EdgeClient("127.0.0.1", handle.port)
                        sent = 0
                    responses[i].append(
                        client.authorize(requests[i], now=i + 1, req_id=i)
                    )
                    sent += 1
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=client_loop) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert not any(thread.is_alive() for thread in threads)
        for i, got in responses.items():
            assert len(got) == 1, f"request {i}: {len(got)} responses"
            assert got[0]["kind"] == "decision" and got[0]["id"] == i
            assert got[0]["decision"]["granted"]
        # No connection carried more than ``churn_every`` requests.
        assert handle.stats()["connections_total"] >= total // churn_every
        assert service.stats()["service"]["submitted"] == total

    def test_frames_split_into_single_bytes(self, live_edge):
        """Two frames trickling in one byte per segment: one answer each."""
        ctx, service, handle = live_edge
        data = b"".join(
            _authorize_frame(
                _read(ctx["users"], ctx["read_cert"], "ObjectO", i + 1,
                      f"byte-{i}"),
                i + 1,
                10 + i,
            )
            for i in range(2)
        )
        with EdgeClient("127.0.0.1", handle.port) as client:
            for k in range(len(data)):
                client.send_raw(data[k:k + 1])
            responses = [client.recv_frame() for _ in range(2)]
            assert sorted(r["id"] for r in responses) == [10, 11]
            for response in responses:
                assert response["kind"] == "decision"
                assert response["decision"]["granted"] is True
            # Nothing else was queued for this connection.
            assert client.probe("healthz", req_id=12)["id"] == 12
        assert service.stats()["service"]["submitted"] == 2

    def test_mixed_frames_in_one_segment(self, live_edge):
        """Authorize, probe and unknown kind in one write: three answers."""
        ctx, service, handle = live_edge
        request = _read(ctx["users"], ctx["read_cert"], "ObjectP", 4, "mix-1")
        with EdgeClient("127.0.0.1", handle.port) as client:
            client.send_raw(
                _authorize_frame(request, 4, 1)
                + encode_frame({"kind": "healthz", "id": 2})
                + encode_frame({"kind": "teleport", "id": 3})
            )
            responses = {}
            for _ in range(3):
                response = client.recv_frame()
                responses[response["id"]] = response
            assert sorted(responses) == [1, 2, 3]
            assert responses[1]["kind"] == "decision"
            assert responses[1]["decision"]["granted"] is True
            assert responses[2]["kind"] == "health"
            assert responses[2]["status"] == 200
            assert responses[3]["kind"] == "protocol-error"
            assert responses[3]["code"] == "unknown-kind"
            assert responses[3]["fatal"] is False
            # The connection keeps serving.
            assert client.healthz()["status"] == 200

    @pytest.mark.parametrize("cut", [3, HEADER_SIZE + 3])
    def test_half_frame_then_half_close_is_truncated(self, live_edge, cut):
        ctx, service, handle = live_edge
        frame = encode_frame({"kind": "healthz", "id": 5})
        with EdgeClient("127.0.0.1", handle.port) as client:
            client.send_raw(frame[:cut])
            client._sock.shutdown(socket.SHUT_WR)
            response = client.recv_frame()
            assert response["kind"] == "protocol-error"
            assert response["code"] == "truncated"
            assert response["fatal"] is True
            assert response["id"] == 0
            # Then the server hangs up.
            with pytest.raises(ConnectionError):
                client.recv_frame()
        with EdgeClient("127.0.0.1", handle.port) as client:
            assert client.healthz()["status"] == 200

    def test_draining_edge_refuses_authorize_on_open_connection(
        self, live_edge
    ):
        ctx, service, handle = live_edge
        with EdgeClient("127.0.0.1", handle.port) as client:
            assert client.healthz()["status"] == 200
            asyncio.run_coroutine_threadsafe(
                handle.edge.drain(), handle._loop
            ).result(10)
            request = _read(ctx["users"], ctx["read_cert"], "ObjectO", 6, "dr-1")
            response = client.authorize(request, now=6, req_id=3)
            assert response["kind"] == "protocol-error"
            assert response["code"] == "bad-request"
            assert response["reason"] == "edge is draining"
            assert response["id"] == 3
            assert response["fatal"] is False
            # The connection still answers probes.
            assert client.healthz()["status"] == 200
        assert service.stats()["service"]["submitted"] == 0

    def test_same_tick_replay_is_denied(self, live_edge):
        """Two identical authorize frames in one segment go down as one
        batch; the second copy is denied as a replay."""
        ctx, service, handle = live_edge
        request = _read(ctx["users"], ctx["read_cert"], "ObjectO", 5, "st-0")
        frames = b"".join(
            encode_frame({
                "kind": "authorize",
                "id": i,
                "now": 5,
                "request": request_to_dict(request),
            })
            for i in range(2)
        )
        with EdgeClient("127.0.0.1", handle.port) as client:
            client.send_raw(frames)
            responses = {}
            for _ in range(2):
                response = client.recv_frame()
                responses[response["id"]] = response
        assert responses[0]["decision"]["granted"] is True
        assert responses[1]["kind"] == "decision"
        assert responses[1]["decision"]["granted"] is False
        assert responses[1]["decision"]["reason"] == (
            "replayed request (nonce already accepted)"
        )
        assert handle.stats()["batches"] == 1

    def test_closed_service_answers_authorize_with_503(self, live_edge):
        """After ``service.close()`` the edge still answers: each pending
        authorize frame gets a typed 503 ``error`` frame, and the same
        connection keeps answering probes."""
        ctx, service, handle = live_edge
        service.close()
        request = _read(ctx["users"], ctx["read_cert"], "ObjectO", 5, "cl-0")
        with EdgeClient("127.0.0.1", handle.port, timeout=10) as client:
            response = client.authorize(request, now=5, req_id=4)
            assert response == {
                "kind": "error",
                "id": 4,
                "status": 503,
                "error_type": "ServiceError",
                "reason": "service is closed",
            }
            health = client.healthz()
            assert health["kind"] == "health"
            assert health["status"] == 503
            assert health["report"]["live"] is False

    def test_paused_connection_is_answered_after_resume(self, live_edge):
        """``pause_writing`` stops reading that connection, and only it.

        The hook is driven directly: a client that does not read fills
        loopback's kernel buffers long before the edge's write buffer
        reaches its high-water mark.
        """
        ctx, service, handle = live_edge
        requests = [
            _read(ctx["users"], ctx["read_cert"], "ObjectO", i + 1, f"bp-{i}")
            for i in range(3)
        ]
        with EdgeClient("127.0.0.1", handle.port) as paused, EdgeClient(
            "127.0.0.1", handle.port
        ) as other:
            assert paused.healthz()["status"] == 200  # connection is up
            conn = _on_loop(handle, lambda: _server_side(handle, paused))
            _on_loop(handle, conn.pause_writing)
            for i, request in enumerate(requests):
                paused.send_authorize(request, now=i + 1, req_id=i)
            paused._sock.settimeout(0.5)
            with pytest.raises(socket.timeout):
                paused.recv_frame()
            paused._sock.settimeout(30)
            # Another connection is still served.
            request = _read(ctx["users"], ctx["read_cert"], "ObjectP", 9, "bp-x")
            assert other.authorize(request, now=9, req_id=9)["id"] == 9
            _on_loop(handle, conn.resume_writing)
            responses = [paused.recv_frame() for _ in range(3)]
            assert sorted(r["id"] for r in responses) == [0, 1, 2]
            assert all(r["decision"]["granted"] for r in responses)
            # Each id was answered exactly once.
            assert paused.probe("healthz", req_id=7)["id"] == 7

    def test_edge_refuses_manual_mode(self, service_coalition):
        ctx, make_service = service_coalition
        with pytest.raises(ServiceError):
            EdgeServer(make_service(mode="manual"))
