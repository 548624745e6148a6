"""The asyncio network front door for the authorization service.

:class:`EdgeServer` is a TCP acceptor speaking the length-prefixed
JSON protocol of :mod:`repro.service.wire`.  Its entire job is the
three verbs a front end owns — **parse**, **route**, **shed**:

* parse: frames → documents → :class:`JointAccessRequest`s, with every
  malformation answered by a typed 400-style frame (fatal framing
  errors additionally close the connection, because the byte stream is
  desynchronized);
* route/submit: requests go down through
  :meth:`AuthorizationService.submit_batch` — concurrent arrivals from
  *different* connections that land in the same event-loop tick are
  admitted as **one batch**, which is exactly the amortization the
  service's batched admission path (DESIGN.md §12) was built for;
* shed: typed :class:`Overloaded`/:class:`CircuitOpen` decisions
  become 503-style ``retry`` frames carrying ``retry_after`` hints,
  :class:`Errored` becomes a 500-style ``error`` frame.

The edge never verifies a signature, never reads an ACL, never touches
an epoch: all authorization semantics stay behind
:class:`~repro.service.service.AuthorizationService` (DESIGN.md §14).
That strict layering is what makes the byte-parity acceptance test
possible — a decision travelling through the socket must be the same
decision in-process submission produces, because the edge had no
opportunity to change it.

Concurrency shape: the event loop owns parsing, deciding and writing.
A threaded service decides each tick's batch inside ``submit_batch``,
on the loop thread, so the edge resolves every future directly.  A
manual-mode service (tests drive one to hold tickets queued) decides
only when its caller pumps; a daemon thread waits for each such ticket
and hands the decision back through ``loop.call_soon_threadsafe``.
Each connection pipelines: responses go out in completion order,
correlated by the request ``id`` the client sent.  The responses of
one connection that resolve in the same loop tick leave as one
``write`` and one ``drain``, serialized by a per-connection write
lock.

Shutdown is drain-first (``SIGTERM`` in the CLI): stop accepting,
let in-flight tickets resolve, flush their responses, then close.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from .health import health_report, liveness, readiness, shard_health
from .service import AuthorizationService
from .wire import (
    DEFAULT_MAX_FRAME,
    ProtocolError,
    decision_to_dict,
    encode_frame,
    read_frame_async,
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


class _Outbox:
    """One connection's encoded responses awaiting their write."""

    __slots__ = ("frames", "lock")

    def __init__(self):
        self.frames: List[bytes] = []
        self.lock = asyncio.Lock()


class EdgeServer:
    """One asyncio acceptor in front of one :class:`AuthorizationService`.

    Start with :meth:`start` (from a running loop) and stop with
    :meth:`drain` + :meth:`stop`; sync callers use
    :func:`serve_in_thread`, which runs the loop on a daemon thread and
    returns an :class:`EdgeHandle`.
    """

    def __init__(
        self,
        service: AuthorizationService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame: int = DEFAULT_MAX_FRAME,
    ):
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
        # Per-tick admission batch: handlers append (request, now,
        # future) here and schedule one _flush via call_soon; every
        # arrival that parses during the same loop tick goes down in a
        # single submit_batch call.
        self._pending: List[Tuple[Any, int, "asyncio.Future"]] = []
        self._flush_scheduled = False
        self._open_connections = 0
        self._in_flight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._accepting = True

    # lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting (must run inside an event loop)."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting; wait for in-flight requests to flush.

        Returns False when in-flight work did not quiesce within
        ``timeout`` (the caller decides whether to hard-close anyway).
        Existing connections are not reset — a drained edge answers
        everything it already admitted, it just takes no new sockets.
        """
        self._accepting = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    async def stop(self) -> None:
        """Hard-stop the acceptor (drain first for a graceful exit)."""
        self._accepting = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def stats(self) -> Dict[str, int]:
        snap = {
            name.split(".", 1)[1]: value
            for name, value in self.metrics.snapshot()["counters"].items()
        }
        snap["open_connections"] = self._open_connections
        snap["in_flight"] = self._in_flight
        return snap

    # connection handling ----------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections_total.inc()
        self._open_connections += 1
        outbox = _Outbox()
        response_tasks: "set[asyncio.Task]" = set()
        try:
            while True:
                try:
                    frame = await read_frame_async(reader, self.max_frame)
                except ProtocolError as exc:
                    await self._send_protocol_error(writer, outbox, 0, exc)
                    if exc.fatal:
                        break
                    continue
                if frame is None:  # clean EOF between frames
                    break
                self._frames_in.inc()
                task = asyncio.ensure_future(
                    self._handle_frame(frame, writer, outbox)
                )
                response_tasks.add(task)
                task.add_done_callback(response_tasks.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if response_tasks:
                await asyncio.gather(*response_tasks, return_exceptions=True)
            self._open_connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _handle_frame(
        self,
        frame: Dict[str, Any],
        writer: asyncio.StreamWriter,
        outbox: "_Outbox",
    ) -> None:
        """Dispatch one parsed frame; never raises (typed errors out)."""
        req_id = frame.get("id")
        if not isinstance(req_id, int) or isinstance(req_id, bool):
            req_id = 0
        kind = frame.get("kind")
        try:
            if kind == "authorize":
                await self._handle_authorize(frame, req_id, writer, outbox)
            elif kind in ("healthz", "readyz", "health"):
                await self._send(
                    writer, outbox, self._health_frame(kind, req_id)
                )
            else:
                raise ProtocolError(
                    "unknown-kind", f"unknown frame kind {kind!r}"
                )
        except ProtocolError as exc:
            await self._send_protocol_error(writer, outbox, req_id, exc)
        except (ConnectionError, OSError):  # peer went away mid-response
            pass

    async def _handle_authorize(
        self,
        frame: Dict[str, Any],
        req_id: int,
        writer: asyncio.StreamWriter,
        outbox: "_Outbox",
    ) -> None:
        now = frame.get("now")
        if not isinstance(now, int) or isinstance(now, bool):
            raise ProtocolError("bad-request", "frame field 'now' must be an int")
        request = request_from_dict(frame.get("request"))
        if not self._accepting:
            raise ProtocolError("bad-request", "edge is draining")
        decision = await self._submit(request, now)
        await self._send(
            writer, outbox, self._decision_frame(req_id, decision)
        )

    # batched admission ------------------------------------------------

    def _submit(self, request: Any, now: int) -> "asyncio.Future":
        """Queue one request for this tick's batch; future → decision."""
        assert self._loop is not None
        future = self._loop.create_future()
        self._pending.append((request, now, future))
        self._in_flight += 1
        self._idle.clear()
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)
        return future

    def _flush(self) -> None:
        """Admit and decide everything that arrived this tick in one batch.

        A threaded service decides the batch on this (the loop) thread
        and returns resolved tickets; a manual-mode service returns the
        admitted ones pending until its caller pumps.
        """
        self._flush_scheduled = False
        pending, self._pending = self._pending, []
        if not pending:
            return
        self._batches.inc()
        self._batched_requests.inc(len(pending))
        tickets = self.service.submit_batch(
            [(request, now) for request, now, _ in pending]
        )
        for ticket, (_, _, future) in zip(tickets, pending):
            if ticket.done():
                self._resolve_future(future, ticket.result(0))
            else:
                threading.Thread(
                    target=self._await_pump, args=(ticket, future),
                    daemon=True,
                ).start()

    def _await_pump(self, ticket, future: "asyncio.Future") -> None:
        """Wait for a manual-mode pump, then resolve on the loop."""
        decision = ticket.result()
        try:
            self._loop.call_soon_threadsafe(
                self._resolve_future, future, decision
            )
        except RuntimeError:  # the loop closed while the ticket waited
            pass

    def _resolve_future(self, future: "asyncio.Future", decision) -> None:
        self._in_flight -= 1
        if self._in_flight == 0 and not self._pending:
            self._idle.set()
        if not future.done():  # connection may have been cancelled
            future.set_result(decision)

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
        """/healthz (liveness) and /readyz (readiness) payloads.

        A non-ready readiness probe carries the per-shard detail an
        operator needs to see *which* shards degraded and why.
        """
        if which == "healthz":
            live = liveness(self.service)
            return {
                "kind": "health",
                "id": req_id,
                "probe": "healthz",
                "status": 200 if live["live"] else 503,
                "report": live,
            }
        if which == "readyz":
            ready = readiness(self.service)
            doc: Dict[str, Any] = {
                "kind": "health",
                "id": req_id,
                "probe": "readyz",
                "status": 200 if ready["ready"] else 503,
                "report": ready,
            }
            if not ready["ready"]:
                doc["shards"] = [
                    dict(
                        shard=s.shard,
                        ready=s.ready,
                        breaker=s.breaker,
                        worker_alive=s.worker_alive,
                        queue_depth=s.queue_depth,
                        queue_limit=s.queue_limit,
                        crashes=s.crashes,
                        restarts=s.restarts,
                    )
                    for s in shard_health(self.service)
                ]
            return doc
        return {
            "kind": "health",
            "id": req_id,
            "probe": "health",
            "status": 200,
            "report": health_report(self.service),
        }

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        outbox: "_Outbox",
        doc: Dict[str, Any],
    ) -> None:
        """Queue one response; the tick's first sender writes them all.

        Every response a connection resolves in one loop tick joins one
        ``write`` and one ``drain``: the sender that finds the outbox
        empty yields once, so the rest of the tick's responses can
        join, then writes whatever is pending under the connection's
        write lock.
        """
        frames = outbox.frames
        frames.append(encode_frame(doc, self.max_frame))
        if len(frames) > 1:
            return  # an earlier sender of this tick writes it
        await asyncio.sleep(0)
        async with outbox.lock:
            data = b"".join(frames)
            count = len(frames)
            frames.clear()
            writer.write(data)
            await writer.drain()
        self._responses_out.inc(count)

    async def _send_protocol_error(
        self,
        writer: asyncio.StreamWriter,
        outbox: "_Outbox",
        req_id: int,
        exc: ProtocolError,
    ) -> None:
        self._protocol_errors.inc()
        try:
            await self._send(
                writer,
                outbox,
                {
                    "kind": "protocol-error",
                    "id": req_id,
                    "status": 400,
                    "code": exc.code,
                    "reason": str(exc),
                    "fatal": exc.fatal,
                },
            )
        except (ConnectionError, OSError):  # pragma: no cover
            pass


class EdgeHandle:
    """A running edge on a background thread (sync-world handle).

    ``host``/``port`` are live once :func:`serve_in_thread` returns.
    :meth:`shutdown` drains gracefully (stop accepting → in-flight
    flushed → loop stopped) — the SIGTERM path of the ``serve`` CLI
    calls exactly this.
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

    def shutdown(self, timeout: float = 30.0) -> bool:
        """Graceful drain + loop stop; returns False on drain timeout."""
        if not self._thread.is_alive():
            return True
        drained = asyncio.run_coroutine_threadsafe(
            self.edge.drain(timeout), self._loop
        ).result(timeout + 5.0)
        asyncio.run_coroutine_threadsafe(
            self.edge.stop(), self._loop
        ).result(5.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        return drained

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
    in-process.
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
            # Cancel stragglers so the loop closes without warnings.
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            loop.close()

    thread = threading.Thread(target=_run, name="edge-loop", daemon=True)
    thread.start()
    if not started.wait(timeout=10.0):
        raise RuntimeError("edge event loop failed to start")
    return EdgeHandle(edge, loop, thread)
