"""The percentile rule and the per-layer table."""

import json
import os

import pytest

from layers import UNITS, per_layer
from stats import TooFewSamples, histogram_quantile, percentile, samples_beyond

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_a_tail_needs_ten_samples_beyond_it():
    assert samples_beyond(200, 0.95) == 10
    assert percentile(list(range(200)), 0.95) == 189
    with pytest.raises(TooFewSamples):
        percentile(list(range(199)), 0.95)
    assert samples_beyond(1000, 0.99) == 10
    percentile([0.0] * 1000, 0.99)
    with pytest.raises(TooFewSamples):
        percentile([0.0] * 999, 0.99)


def test_median_is_nearest_rank_and_order_free():
    assert percentile([5, 1, 3, 2, 4] * 5, 0.5) == 3
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 50)


def test_histogram_quantile_reads_bucket_bounds():
    hist = {"bounds": [0.001, 0.01, 0.1], "counts": [50, 45, 5, 0]}
    assert histogram_quantile(hist, 0.5) == 0.001
    assert histogram_quantile(hist, 0.99) == 0.1
    assert histogram_quantile({"bounds": [1.0], "counts": [0, 0]}, 0.5) == 0.0


def _report(**spans):
    phase = dict(evaluated=100, submitted=100, overloaded=0, decisions=100,
                 cache_hits=300, cache_misses=0, index_probes=400, beliefs=850,
                 edge_batches=25, edge_requests=100, wal_syncs=0, cpu_s=1.0,
                 wall_s=1.0, queue_wait={"bounds": [0.001, 0.01], "counts": [90, 10, 0]})
    return {
        "phases": {"untraced": phase, "traced": dict(phase)},
        "spans": spans,
        "gc": {"untraced": {"gen2_count": 1, "gen2_max_ms": 80.0, "pause_total_ms": 90.0}},
        "form_s": 0.03,
    }


def test_per_layer_reports_every_metric_and_zero_for_idle_layers():
    report = _report(**{
        "protocol.authorize": {"calls": 100, "total_s": 0.06, "self_s": 0.015},
        "crypto.verify": {"calls": 400, "total_s": 0.008, "self_s": 0.008},
    })
    metrics = per_layer(report, overhead_ratio=0.9)
    assert list(metrics) == list(UNITS)
    assert metrics["protocol.authorize_us"] == (600.0, "us")
    assert metrics["protocol.authorize_self_us"][0] == pytest.approx(150.0)
    assert metrics["crypto.verify_calls_per_req"][0] == 4.0
    assert metrics["edge.batch_size_mean"][0] == 4.0
    assert metrics["core.beliefs_per_req"][0] == 8.5
    assert metrics["protocol.cert_cache_hit_ratio"][0] == 1.0
    assert metrics["core.index_probes_per_req"][0] == 4.0
    for idle in ("epoch.fork_ms", "audit.append_us", "wal.sync_ms", "wal.syncs_per_1k_req"):
        assert metrics[idle][0] == 0.0


def test_benchmark_json_names_the_layer_metrics_this_code_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS


def test_benchmark_json_names_the_end_to_end_metrics_every_workload_reports():
    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_process_cpu_of_this_process_matches_its_own_clock():
    from stats import cpu_seconds, process_cpu_s

    sum(i * i for i in range(200000))
    assert process_cpu_s(os.getpid()) == pytest.approx(cpu_seconds(), abs=0.05)
