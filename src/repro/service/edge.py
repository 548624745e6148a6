"""The asyncio network front door for the authorization service.

:class:`EdgeServer` is a TCP acceptor speaking the length-prefixed
JSON protocol of :mod:`repro.service.wire`.  Its entire job is the
three verbs a front end owns — **parse**, **route**, **shed**:

* parse: frames → documents → :class:`JointAccessRequest`s, with every
  malformation answered by a typed 400-style frame (fatal framing
  errors additionally close the connection, because the byte stream is
  desynchronized);
* route/submit: requests go down through
  :meth:`AuthorizationService.submit_batch` — the authorize frames one
  connection delivers in one event-loop tick are admitted as **one
  batch**, the amortization the service's batched admission path
  (DESIGN.md §12) was built for;
* shed: typed :class:`Overloaded`/:class:`CircuitOpen` decisions
  become 503-style ``retry`` frames carrying ``retry_after`` hints,
  :class:`Errored` becomes a 500-style ``error`` frame, and a batch
  the service refuses because it is closed becomes 503-style ``error``
  frames.

The edge never verifies a signature, never reads an ACL, never touches
an epoch: all authorization semantics stay behind
:class:`~repro.service.service.AuthorizationService` (DESIGN.md §14).
That strict layering is what makes the byte-parity acceptance test
possible — a decision travelling through the socket must be the same
decision in-process submission produces, because the edge had no
opportunity to change it.

Concurrency shape: everything runs on the event loop thread, one
:class:`_Connection` protocol per socket.  ``data_received`` splits
every complete frame off the connection's buffer and queues one
``call_soon`` flush.  The flush admits that connection's authorize
frames of the tick in one ``submit_batch``; the edge serves a threaded
service, which decides the batch inside that call.  The flush then
writes the connection's replies — decisions, probes and protocol
errors, in arrival order, correlated by the request ``id`` — with one
``transport.write``.  A connection whose write buffer passes its
high-water mark stops reading until it drains.

Shutdown is drain-first (``SIGTERM`` in the CLI): stop accepting, let
the pending batches flush, then close every connection.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from .health import health_report
from .service import AuthorizationService, ServiceError
from .wire import (
    DEFAULT_MAX_FRAME,
    HEADER_SIZE,
    ProtocolError,
    decision_to_dict,
    decode_body,
    decode_header,
    encode_frame,
    request_from_dict,
)

__all__ = [
    "EdgeServer",
    "EdgeHandle",
    "serve_in_thread",
    "RETRY_AFTER_OVERLOADED_S",
    "RETRY_AFTER_CIRCUIT_OPEN_S",
]

# Backoff hints shipped in 503-style ``retry`` frames.  An overloaded
# queue clears in milliseconds once the burst passes; an open breaker
# stays open until an operator intervenes, so its hint is much longer.
RETRY_AFTER_OVERLOADED_S = 0.05
RETRY_AFTER_CIRCUIT_OPEN_S = 1.0


class _Connection(asyncio.Protocol):
    """One socket: its unparsed bytes, and this tick's frames and replies."""

    __slots__ = (
        "edge", "transport", "buffer", "pending", "replies", "closing",
        "scheduled",
    )

    def __init__(self, edge: "EdgeServer"):
        self.edge = edge
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = bytearray()
        # This tick's authorize frames: (request, now, id, reply slot).
        self.pending: List[Tuple[Any, int, int, int]] = []
        # Encoded replies in arrival order; an authorize frame holds an
        # empty slot until the flush decides it.
        self.replies: List[bytes] = []
        self.closing = False  # a fatal error or EOF: close after writing
        self.scheduled = False  # a flush is queued on the loop

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.edge._connections.add(self)
        self.edge._connections_total.inc()

    def connection_lost(self, exc) -> None:
        self.edge._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        if self.closing:
            return
        edge = self.edge
        buffer = self.buffer
        buffer += data
        start = 0
        try:
            while len(buffer) - start >= HEADER_SIZE:
                body = start + HEADER_SIZE
                end = body + decode_header(buffer[start:body], edge.max_frame)
                if len(buffer) < end:
                    break
                frame = decode_body(buffer[body:end])
                start = end
                edge._frames_in.inc()
                edge._dispatch(self, frame)
        except ProtocolError as exc:
            self.fail(exc)
        del buffer[:start]
        self.schedule()

    def eof_received(self) -> bool:
        if not self.closing:
            buffer = self.buffer
            if buffer:
                if len(buffer) < HEADER_SIZE:
                    where = f"mid-header ({len(buffer)}/{HEADER_SIZE} bytes)"
                else:  # data_received already checked this header
                    length = decode_header(buffer[:HEADER_SIZE], self.edge.max_frame)
                    where = f"mid-body ({len(buffer) - HEADER_SIZE}/{length} bytes)"
                self.fail(
                    ProtocolError("truncated", f"connection closed {where}")
                )
            self.closing = True
            self.schedule()
        return True  # the flush closes the transport after the replies

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def fail(self, exc: ProtocolError) -> None:
        """Answer a framing error; the stream is lost, so hang up after."""
        self.edge._reply_error(self, 0, exc)
        self.closing = True

    def schedule(self) -> None:
        """Queue this connection's flush for the next loop turn.

        The loop first reads every other connection readable in this
        turn.  Batches stay per connection, so each client is answered
        as soon as its own batch is decided: one batch across
        connections turns a pipelining client's whole window into one
        batch, and client and server then idle in turn (DESIGN.md §14).
        """
        if not self.scheduled and (self.replies or self.closing):
            self.scheduled = True
            self.edge._loop.call_soon(self.flush)

    def flush(self) -> None:
        """Decide this tick's authorize frames as one batch; write once."""
        self.scheduled = False
        if self.pending:
            self.edge._decide(self)
        transport = self.transport
        if self.replies:
            if not transport.is_closing():
                transport.write(b"".join(self.replies))
                self.edge._responses_out.inc(len(self.replies))
            self.replies = []
        if self.closing:
            transport.close()


class EdgeServer:
    """One asyncio acceptor in front of one threaded :class:`AuthorizationService`.

    Start with :meth:`start` (from a running loop) and stop with
    :meth:`drain` + :meth:`stop`; sync callers use
    :func:`serve_in_thread`, which runs the loop on a daemon thread and
    returns an :class:`EdgeHandle`.  A manual-mode service decides only
    when its caller pumps, so the edge refuses it with
    :class:`ServiceError`.
    """

    def __init__(
        self,
        service: AuthorizationService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame: int = DEFAULT_MAX_FRAME,
    ):
        if service.mode != "threaded":
            raise ServiceError(
                f"the edge serves a threaded service, not mode={service.mode!r}"
            )
        self.service = service
        self.host = host
        self.port = port  # 0 until start() binds; then the real port
        self.max_frame = max_frame
        self.metrics = MetricsRegistry("edge")
        self._connections_total = self.metrics.counter("connections_total")
        self._frames_in = self.metrics.counter("frames_in")
        self._responses_out = self.metrics.counter("responses_out")
        self._protocol_errors = self.metrics.counter("protocol_errors")
        self._batches = self.metrics.counter("batches")
        self._batched_requests = self.metrics.counter("batched_requests")
        self._retry_responses = self.metrics.counter("retry_responses")
        self._error_responses = self.metrics.counter("error_responses")
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._connections: "set[_Connection]" = set()
        self._accepting = True

    # lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting (must run inside an event loop)."""
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain(self) -> None:
        """Stop accepting; wait for the pending batches to flush.

        Existing connections are not reset — a drained edge answers
        everything it already admitted and refuses new authorize frames
        as ``bad-request``, it just takes no new sockets.  The service
        decides each batch inside a flush that is already scheduled, so
        the wait is one loop turn.
        """
        self._accepting = False
        if self._server is not None:
            self._server.close()
        while any(conn.pending for conn in self._connections):
            await asyncio.sleep(0)

    async def stop(self) -> None:
        """Stop the acceptor and close every connection (drain first)."""
        self._accepting = False
        if self._server is not None:
            self._server.close()
            self._server = None
        for conn in list(self._connections):
            conn.transport.close()

    def stats(self) -> Dict[str, int]:
        snap = {
            name.split(".", 1)[1]: value
            for name, value in self.metrics.snapshot()["counters"].items()
        }
        snap["open_connections"] = len(self._connections)
        snap["in_flight"] = sum(
            len(conn.pending) for conn in self._connections
        )
        return snap

    # frames -----------------------------------------------------------

    def _dispatch(self, conn: _Connection, frame: Dict[str, Any]) -> None:
        """Route one parsed frame; typed errors become reply frames."""
        req_id = frame.get("id")
        if not isinstance(req_id, int) or isinstance(req_id, bool):
            req_id = 0
        kind = frame.get("kind")
        try:
            if kind == "authorize":
                now = frame.get("now")
                if not isinstance(now, int) or isinstance(now, bool):
                    raise ProtocolError(
                        "bad-request", "frame field 'now' must be an int"
                    )
                request = request_from_dict(frame.get("request"))
                if not self._accepting:
                    raise ProtocolError("bad-request", "edge is draining")
                conn.pending.append((request, now, req_id, len(conn.replies)))
                conn.replies.append(b"")
            elif kind in ("healthz", "readyz", "health"):
                conn.replies.append(
                    encode_frame(self._health_frame(kind, req_id), self.max_frame)
                )
            else:
                raise ProtocolError(
                    "unknown-kind", f"unknown frame kind {kind!r}"
                )
        except ProtocolError as exc:
            self._reply_error(conn, req_id, exc)

    def _reply_error(
        self, conn: _Connection, req_id: int, exc: ProtocolError
    ) -> None:
        self._protocol_errors.inc()
        conn.replies.append(
            encode_frame(
                {
                    "kind": "protocol-error",
                    "id": req_id,
                    "status": 400,
                    "code": exc.code,
                    "reason": str(exc),
                    "fatal": exc.fatal,
                },
                self.max_frame,
            )
        )

    def _decide(self, conn: _Connection) -> None:
        """Admit one connection's tick of authorize frames as one batch.

        The threaded service decides the batch inside ``submit_batch``,
        so every returned ticket is resolved.  A closed service refuses
        the batch with :class:`ServiceError`; each frame of it is then
        answered with a 503-style ``error`` frame, and the connection
        keeps serving probes.
        """
        pending, conn.pending = conn.pending, []
        self._batches.inc()
        self._batched_requests.inc(len(pending))
        try:
            tickets = self.service.submit_batch(
                [(request, now) for request, now, _, _ in pending]
            )
        except ServiceError as exc:
            self._error_responses.inc(len(pending))
            for _, _, req_id, slot in pending:
                conn.replies[slot] = encode_frame(
                    {
                        "kind": "error",
                        "id": req_id,
                        "status": 503,
                        "error_type": type(exc).__name__,
                        "reason": str(exc),
                    },
                    self.max_frame,
                )
            return
        for ticket, (_, _, req_id, slot) in zip(tickets, pending):
            conn.replies[slot] = encode_frame(
                self._decision_frame(req_id, ticket.result(0)), self.max_frame
            )

    # response frames --------------------------------------------------

    def _decision_frame(self, req_id: int, decision) -> Dict[str, Any]:
        doc = decision_to_dict(decision)
        if doc["type"] == "circuit-open":
            self._retry_responses.inc()
            return {
                "kind": "retry",
                "id": req_id,
                "status": 503,
                "retry_after": RETRY_AFTER_CIRCUIT_OPEN_S,
                "decision": doc,
            }
        if doc["type"] == "overloaded":
            self._retry_responses.inc()
            return {
                "kind": "retry",
                "id": req_id,
                "status": 503,
                "retry_after": RETRY_AFTER_OVERLOADED_S,
                "decision": doc,
            }
        if doc["type"] == "errored":
            self._error_responses.inc()
            return {
                "kind": "error",
                "id": req_id,
                "status": 500,
                "error_type": doc["error_type"],
                "decision": doc,
            }
        return {"kind": "decision", "id": req_id, "status": 200, "decision": doc}

    def _health_frame(self, which: str, req_id: int) -> Dict[str, Any]:
        """/healthz (liveness), /readyz (readiness) and health payloads.

        Each carries the one flat :func:`health_report`; the probe's
        status is 503 when its verdict (``live`` or ``ready``) is false.
        """
        report = health_report(self.service)
        status = 200
        if which == "healthz" and not report["live"]:
            status = 503
        elif which == "readyz" and not report["ready"]:
            status = 503
        return {
            "kind": "health",
            "id": req_id,
            "probe": which,
            "status": status,
            "report": report,
        }


class EdgeHandle:
    """A running edge on a background thread (sync-world handle).

    ``host``/``port`` are live once :func:`serve_in_thread` returns.
    :meth:`shutdown` drains gracefully (stop accepting → pending batch
    flushed → connections closed → loop stopped) — the SIGTERM path of
    the ``serve`` CLI calls exactly this.
    """

    def __init__(self, edge: EdgeServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.edge = edge
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.edge.host

    @property
    def port(self) -> int:
        return self.edge.port

    def stats(self) -> Dict[str, int]:
        return self.edge.stats()

    def shutdown(self, timeout: float = 30.0) -> None:
        """Graceful drain + loop stop.

        ``timeout`` bounds each wait for the loop thread (the drain,
        then the stop).
        """
        if not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(
            self.edge.drain(), self._loop
        ).result(timeout)
        asyncio.run_coroutine_threadsafe(
            self.edge.stop(), self._loop
        ).result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "EdgeHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def serve_in_thread(
    service: AuthorizationService,
    host: str = "127.0.0.1",
    port: int = 0,
    max_frame: int = DEFAULT_MAX_FRAME,
) -> EdgeHandle:
    """Start an edge on a daemon thread; returns once the port is bound.

    Scenarios, benchmarks and the conformance tests use this: the
    test/driver thread stays synchronous while the edge's event loop
    runs beside it, exactly like the ``serve`` CLI process but
    in-process.  ``service`` must be threaded (:class:`EdgeServer`
    raises :class:`ServiceError` otherwise).
    """
    edge = EdgeServer(service, host=host, port=port, max_frame=max_frame)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(edge.start())
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="edge-loop", daemon=True)
    thread.start()
    if not started.wait(timeout=10.0):
        raise RuntimeError("edge event loop failed to start")
    return EdgeHandle(edge, loop, thread)
