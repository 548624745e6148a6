"""Single-threaded load client for the edge: one process, one thread.

Requests are signed and framed before timing starts (requestor-side
work, not server load).  The client spreads them round-robin over at
most two TCP connections and reads responses with a selector, so one
thread keeps a window of requests outstanding (closed loop) or sends on
a schedule (open loop).  Every response is checked against the plan.
"""

from __future__ import annotations

import selectors
import socket
import time
from typing import Callable, Dict, List, Tuple

from repro.service.wire import (
    HEADER_SIZE, decode_body, decode_header, encode_frame, request_to_dict,
)

from plan import Op, check

DRAIN_TIMEOUT_S = 30.0


class PoolExhausted(RuntimeError):
    """The open loop needed more pre-signed requests than were prepared."""


def frames_for(ops: List[Op], signer) -> List[bytes]:
    """Sign and frame every op (a replay re-sends its original request)."""
    return [
        encode_frame({
            "kind": "authorize",
            "id": op.index,
            "now": op.index + 1,
            "request": request_to_dict(signer.request(op)),
        })
        for op in ops
    ]


class EdgeLoad:
    """Drives pre-framed requests through the edge and checks the answers."""

    def __init__(self, port: int, ops: List[Op], frames: List[bytes], connections: int):
        self.ops = ops
        self.frames = frames
        self.answered = bytearray(len(frames))
        self.outstanding: Dict[int, float] = {}  # request id -> start time
        self.next = 0
        self.attempted = 0
        self.failed = 0
        self.first_failure = ""
        self.on_answer: Callable[[int], object] = lambda attempted: None
        # Set when the closed loop ran out of prepared requests; it then
        # stops sending and drains.
        self.exhausted = False
        self.selector = selectors.DefaultSelector()
        self.socks = []
        for _ in range(connections):
            sock = socket.create_connection(("127.0.0.1", port), timeout=DRAIN_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
            self.selector.register(sock, selectors.EVENT_READ, bytearray())

    def close(self) -> None:
        self.selector.close()
        for sock in self.socks:
            sock.close()

    # ------------------------------------------------------------ I/O

    def extend(self, ops: List[Op], frames: List[bytes]) -> None:
        self.ops.extend(ops)
        self.frames.extend(frames)
        self.answered.extend(bytes(len(frames)))
        self.exhausted = False

    def _sendable(self) -> bool:
        if self.next >= len(self.frames):
            self.exhausted = True
            return False
        original = self.ops[self.next].replay_of
        return original < 0 or bool(self.answered[original])

    def _send(self, start: float) -> None:
        i = self.next
        self.outstanding[i] = start
        self.socks[i % len(self.socks)].sendall(self.frames[i])
        self.next += 1

    def _poll(self, timeout: float) -> List[Tuple[float, float, bool]]:
        """Answers that arrived: ``(start, arrival, correct)`` each."""
        done = []
        for key, _ in self.selector.select(timeout):
            chunk = key.fileobj.recv(1 << 16)
            if not chunk:
                raise ConnectionError("edge closed the connection")
            arrival = time.perf_counter()
            buf = key.data
            buf += chunk
            while len(buf) >= HEADER_SIZE:
                length = decode_header(bytes(buf[:HEADER_SIZE]))
                if len(buf) < HEADER_SIZE + length:
                    break
                doc = decode_body(bytes(buf[HEADER_SIZE:HEADER_SIZE + length]))
                del buf[:HEADER_SIZE + length]
                done.append(self._settle(doc, arrival))
        return done

    def _settle(self, doc: Dict[str, object], arrival: float) -> Tuple[float, float, bool]:
        i = doc["id"]
        start = self.outstanding.pop(i)
        self.answered[i] = 1
        self.attempted += 1
        self.on_answer(self.attempted)
        decision = doc.get("decision") if doc.get("kind") == "decision" else None
        ok = decision is not None and check(self.ops[i], decision["granted"], decision["reason"])
        if not ok:
            self.failed += 1
            if not self.first_failure:
                self.first_failure = f"request {i} expected {self.ops[i].expect!r}, got {doc!r}"
        return start, arrival, ok

    def _wait(self, timeout: float) -> List[Tuple[float, float, bool]]:
        done = self._poll(timeout)
        if not done and self.outstanding and timeout >= DRAIN_TIMEOUT_S:
            raise TimeoutError(f"{len(self.outstanding)} requests unanswered")
        return done

    # ---------------------------------------------------------- loops

    def closed(self, seconds: float, window: int, slices: int = 1) -> List[List[float]]:
        """Keep ``window`` requests outstanding for ``seconds``.

        Returns, for each of ``slices`` equal parts of the time, the
        round-trip latencies of the correct answers that arrived in it;
        requests still outstanding at the end are drained and checked
        too.  Stops early, setting :attr:`exhausted`, when the prepared
        requests run out.
        """
        start = time.perf_counter()
        deadline = start + seconds
        latencies: List[List[float]] = [[] for _ in range(slices)]
        while True:
            now = time.perf_counter()
            if now < deadline and not self.exhausted:
                while len(self.outstanding) < window and self._sendable():
                    self._send(now)
                timeout = deadline - now
            elif not self.outstanding:
                return latencies
            else:
                timeout = DRAIN_TIMEOUT_S
            for sent, arrival, ok in self._wait(timeout):
                if ok and arrival < deadline:
                    latencies[int((arrival - start) / seconds * slices)].append(arrival - sent)

    def paced(self, seconds: float, rate: float, slices: int = 1) -> Dict[str, list]:
        """Send ``seconds * rate`` requests on a fixed schedule.

        Latency is timed from when each request was due, so a stall in
        the client or server is charged to every request it delays;
        ``lag`` is how late each send was against its due time.
        ``ok_slices`` holds the latencies of the correct answers, split
        into ``slices`` equal parts of the schedule by due time.
        """
        start = time.perf_counter()
        count = int(seconds * rate)
        sent = 0
        out: Dict[str, list] = {
            "latency": [], "ok_latency": [], "lag": [],
            "ok_slices": [[] for _ in range(slices)],
        }
        while sent < count or self.outstanding:
            now = time.perf_counter()
            timeout = DRAIN_TIMEOUT_S
            if sent < count:
                due = start + sent / rate
                if due > now:
                    timeout = due - now
                elif self._sendable():
                    self._send(due)
                    out["lag"].append(now - due)
                    sent += 1
                    continue
                elif self.exhausted:
                    raise PoolExhausted(f"all {len(self.frames)} prepared requests were sent")
                else:  # a replay waits for its original's answer
                    timeout = 0.001
            for due, arrival, ok in self._wait(timeout):
                out["latency"].append(arrival - due)
                if ok:
                    out["ok_latency"].append(arrival - due)
                    part = round((due - start) * rate) * slices // count
                    out["ok_slices"][part].append(arrival - due)
        return out
