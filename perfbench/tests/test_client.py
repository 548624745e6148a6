"""The load client against a scripted stand-in for the edge."""

import json
import socket
import threading
import time

import pytest

from client import EdgeLoad
from plan import REPLAY, Op
from repro.service.wire import HEADER_SIZE, decode_body, decode_header, encode_frame


class FakeEdge:
    """Grants every authorize frame on one connection, in arrival order."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _recv(self, conn, n):
        data = b""
        while len(data) < n:
            chunk = conn.recv(n - len(data))
            if not chunk:
                return None
            data += chunk
        return data

    def _serve(self):
        conn, _ = self.listener.accept()
        with conn:
            while True:
                header = self._recv(conn, HEADER_SIZE)
                if header is None:
                    return
                frame = decode_body(self._recv(conn, decode_header(header)))
                conn.sendall(encode_frame({
                    "kind": "decision", "id": frame["id"], "status": 200,
                    "decision": {"granted": True, "reason": "access approved"},
                }))

    def close(self):
        self.listener.close()
        self.thread.join(timeout=5)


@pytest.fixture
def edge():
    server = FakeEdge()
    yield server
    server.close()


def _frames(n):
    return [encode_frame({"kind": "authorize", "id": i, "now": i + 1, "request": {}})
            for i in range(n)]


def test_open_loop_latency_counts_from_the_due_time(edge):
    ops = [Op(i, "read", 0) for i in range(20)]
    load = EdgeLoad(edge.port, ops, _frames(20), connections=1)
    send = load._send
    stalled = []

    def stalling_send(start):
        if not stalled:  # the generator stalls before its first send
            stalled.append(True)
            time.sleep(0.1)
        send(start)

    load._send = stalling_send
    try:
        out = load.paced(seconds=0.2, rate=100.0, slices=2)
    finally:
        load.close()
    assert load.attempted == 20 and load.failed == 0
    assert len(out["lag"]) == 20
    # Request 5 was due 50 ms in but could only go out after the 100 ms
    # stall: the lag shows it, and its latency includes the wait.
    # One connection, answered in order: latency[i] is request i's.
    assert out["lag"][5] >= 0.04
    assert out["latency"][5] >= 0.04
    assert out["latency"][0] >= 0.09
    # Due after the stall and sent on time: well below the stalled first.
    assert out["latency"][-1] < out["latency"][0] - 0.05
    # Split by due time, not by arrival: the stalled first half stays first.
    assert [len(part) for part in out["ok_slices"]] == [10, 10]
    assert out["ok_slices"][0][0] == out["latency"][0]


def test_closed_loop_keeps_the_window_and_counts_correct_answers(edge):
    ops = [Op(i, "write", 1) for i in range(20000)]
    load = EdgeLoad(edge.port, ops, _frames(20000), connections=1)
    try:
        latencies = load.closed(seconds=0.1, window=4, slices=2)
    finally:
        load.close()
    correct = sum(map(len, latencies))
    assert correct > 0 and load.failed == 0
    assert all(0 < s < 0.1 for part in latencies for s in part)
    assert load.attempted == load.next and not load.outstanding


def test_closed_loop_stops_and_flags_a_pool_that_runs_dry(edge):
    ops = [Op(i, "read", 0) for i in range(10)]
    load = EdgeLoad(edge.port, ops, _frames(10), connections=1)
    try:
        t0 = time.perf_counter()
        correct = sum(map(len, load.closed(seconds=5.0, window=4)))
        elapsed = time.perf_counter() - t0
    finally:
        load.close()
    assert load.exhausted and correct == load.attempted == 10
    assert elapsed < 2.0  # it drained and returned instead of waiting out the time
    load.extend([Op(10, "read", 0)], _frames(11)[10:])
    assert not load.exhausted


def test_a_wrong_expectation_fails_the_gate(edge):
    import run

    ops = [Op(i, "read", 0) for i in range(6)]
    ops[3] = Op(3, "read", 0, replay_of=0, expect=REPLAY)  # the stand-in grants it
    load = EdgeLoad(edge.port, ops, _frames(6), connections=1)
    try:
        load.paced(seconds=0.06, rate=100.0)
    finally:
        load.close()
    assert (load.attempted, load.failed) == (6, 1)
    assert "request 3" in load.first_failure
    out = run.Outcome()
    out.tally(load.attempted, load.failed, load.first_failure)
    result = json.loads(out.line())
    assert result["correct"] is False and result["failed"] == 1
