"""TraceSpan trees and the Tracer: zero-cost-off, buffering, JSONL export."""

import json

from repro.obs.trace import Tracer, TraceSpan, render_span


class TestDisabledTracer:
    def test_begin_returns_none(self):
        tracer = Tracer(enabled=False)
        assert tracer.begin("request", trace_id="t-0") is None

    def test_finish_none_is_a_noop(self):
        tracer = Tracer(enabled=False)
        tracer.finish(None)
        assert tracer.spans_finished == 0
        assert tracer.recent() == []


class TestSpanTree:
    def test_children_and_find(self):
        root = TraceSpan("request", trace_id="t-1", seq=7)
        root.child("admission", epoch_id=0).end(outcome="queued")
        queue = root.child("queue_wait")
        queue.end()
        root.child("derivation").end(granted=True)
        assert root.child_names() == ["admission", "queue_wait", "derivation"]
        assert root.find("derivation").attrs["granted"] is True
        assert root.find("missing") is None
        assert [s.name for s in root.walk()] == [
            "request", "admission", "queue_wait", "derivation"
        ]

    def test_children_inherit_trace_id(self):
        root = TraceSpan("request", trace_id="t-2")
        assert root.child("admission").trace_id == "t-2"

    def test_end_is_idempotent_and_timed(self):
        span = TraceSpan("x")
        assert span.duration_s is None
        span.end(a=1)
        first = span.ended_at
        span.end(b=2)
        assert span.ended_at == first
        assert span.attrs == {"a": 1, "b": 2}
        assert span.duration_s >= 0

    def test_to_dict_round_trips_through_json(self):
        root = TraceSpan("request", trace_id="t-3", op="read")
        root.child("admission").end()
        root.end()
        data = json.loads(json.dumps(root.to_dict()))
        assert data["trace_id"] == "t-3"
        assert data["attrs"] == {"op": "read"}
        assert data["children"][0]["name"] == "admission"


class TestEnabledTracer:
    def test_buffer_retains_recent_and_finds_by_id(self):
        tracer = Tracer(enabled=True, buffer_size=2)
        for i in range(3):
            span = tracer.begin("request", trace_id=f"t-{i}")
            tracer.finish(span)
        assert [s.trace_id for s in tracer.recent()] == ["t-1", "t-2"]
        assert tracer.find_trace("t-0") is None  # evicted
        assert tracer.find_trace("t-2").trace_id == "t-2"
        assert tracer.spans_started == 3
        assert tracer.spans_finished == 3

    def test_jsonl_export_one_trace_per_line(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        tracer = Tracer(enabled=True, export_path=str(path))
        for i in range(2):
            span = tracer.begin("request", trace_id=f"t-{i}")
            span.child("admission").end()
            tracer.finish(span)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert [p["trace_id"] for p in parsed] == ["t-0", "t-1"]
        assert parsed[0]["children"][0]["name"] == "admission"


class TestRender:
    def test_render_includes_timings_and_attrs(self):
        root = TraceSpan("request", trace_id="t-9", op="read")
        root.child("derivation").end(granted=True)
        root.end()
        text = render_span(root)
        assert "request" in text and "derivation" in text
        assert "op=read" in text and "granted=True" in text
        assert "ms" in text


class TestExportHandle:
    def test_persistent_handle_reused_across_finishes(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        tracer = Tracer(enabled=True, export_path=str(path))
        tracer.finish(tracer.begin("request", trace_id="t-0"))
        handle = tracer._export_fh
        assert handle is not None
        tracer.finish(tracer.begin("request", trace_id="t-1"))
        assert tracer._export_fh is handle  # opened once, not per span
        tracer.close()
        assert tracer._export_fh is None
        tracer.close()  # idempotent
        lines = path.read_text().strip().splitlines()
        assert [json.loads(l)["trace_id"] for l in lines] == ["t-0", "t-1"]

    def test_concurrent_export_keeps_lines_whole(self, tmp_path):
        import threading

        path = tmp_path / "traces.jsonl"
        tracer = Tracer(enabled=True, export_path=str(path), buffer_size=512)

        def worker(worker_id):
            for i in range(50):
                span = tracer.begin(
                    "request", trace_id=f"w{worker_id}-{i}", payload="x" * 200
                )
                span.child("derivation").end()
                tracer.finish(span)

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tracer.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 200
        ids = {json.loads(line)["trace_id"] for line in lines}
        assert len(ids) == 200  # every line parses, none interleaved
        assert tracer.spans_started == 200
        assert tracer.spans_finished == 200

    def test_counters_exact_under_concurrent_begin(self):
        import threading

        tracer = Tracer(enabled=True)

        def worker():
            for _ in range(200):
                tracer.begin("request", trace_id="t")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracer.spans_started == 1600
