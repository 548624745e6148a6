"""Spans from outside: per-thread stacks, self time, install and restore."""

import threading
import time

from tracer import TARGETS, Tracer


def test_self_time_excludes_child_spans_on_each_thread():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()

    outer = tracer.wrap("outer", body)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
    assert not any(thread.is_alive() for thread in threads)
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 2 and summary["inner"]["calls"] == 2
    assert summary["inner"]["under:outer"] == summary["inner"]["total_s"]
    outer_self = summary["outer"]["self_s"]
    assert abs(outer_self - (summary["outer"]["total_s"] - summary["inner"]["total_s"])) < 1e-9
    assert 0.015 < outer_self < 0.1  # two 10 ms bodies, not the 20 ms children


def test_suppressed_calls_leave_no_span():
    tracer = Tracer()
    work = tracer.wrap("work", lambda: None)
    with tracer.suppressed():
        work()
    work()
    assert tracer.summary()["work"]["calls"] == 1


def test_install_wraps_every_target_and_uninstall_restores_it():
    from repro.coalition.protocol import AuthorizationProtocol
    from repro.service import edge, wire

    original_authorize = AuthorizationProtocol.__dict__["authorize"]
    original_encode = wire.encode_frame
    tracer = Tracer()
    tracer.install()
    try:
        assert AuthorizationProtocol.__dict__["authorize"] is not original_authorize
        assert edge.encode_frame is wire.encode_frame is not original_encode
        assert {name for name, _, _ in TARGETS} <= set(tracer.names)
    finally:
        tracer.uninstall()
    assert AuthorizationProtocol.__dict__["authorize"] is original_authorize
    assert edge.encode_frame is original_encode and wire.encode_frame is original_encode
