"""Per-layer metrics of a traced run, from spans and counter deltas.

A traced run alternates untraced and traced slices.  Span-derived
metrics come from the traced slices; counter-derived metrics that
depend on timing (edge batching, queue wait, sheds, collector pauses)
come from the untraced slices, which behave like an untraced run.
Per-request figures divide by the requests decided in the same slices.
"""

from __future__ import annotations

from typing import Dict, Tuple

from stats import histogram_quantile

# name -> unit, in the order BENCHMARK.json lists them.
UNITS: Dict[str, str] = {
    "wire.decode_us": "us",
    "wire.encode_us": "us",
    "edge.batch_size_mean": "count",
    "service.submit_us": "us",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p99_ms": "ms",
    "service.shed_ratio": "ratio",
    "protocol.authorize_us": "us",
    "protocol.authorize_self_us": "us",
    "protocol.cert_cache_hit_ratio": "ratio",
    "protocol.apply_revocation_us": "us",
    "protocol.sequential_rps": "1/s",
    "pki.validate_us_per_req": "us",
    "pki.canonical_bytes_per_req": "count",
    "crypto.verify_calls_per_req": "count",
    "crypto.verify_us_per_req": "us",
    "crypto.sign_us_per_req": "us",
    "core.admit_utterance_us": "us",
    "core.admit_certificate_us": "us",
    "core.derive_group_says_us": "us",
    "core.membership_revoked_us": "us",
    "core.index_probes_per_req": "count",
    "core.beliefs_per_req": "count",
    "epoch.fork_ms": "ms",
    "epoch.lock_wait_ms": "ms",
    "audit.append_us": "us",
    "wal.append_us": "us",
    "wal.sync_ms": "ms",
    "wal.syncs_per_1k_req": "count",
    "setup.form_s": "s",
    "gc.gen2_count": "count",
    "gc.gen2_max_ms": "ms",
    "gc.pause_total_ms": "ms",
    "client.gen_lag_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(report: Dict[str, object], overhead_ratio: float,
              gen_lag_p99_ms: float = 0.0,
              sequential_rps: float = 0.0) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced run, as ``name -> (value, unit)``."""
    spans: Dict[str, Dict[str, float]] = report["spans"]
    untraced = report["phases"]["untraced"]
    traced = report["phases"]["traced"]
    gc_untraced = report["gc"]["untraced"]
    n = traced["evaluated"]

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def per_req_us(*names: str) -> float:
        return _ratio(sum(total(name) for name in names), n) * 1e6

    def per_call_us(name: str) -> float:
        return _ratio(total(name), calls(name)) * 1e6

    publishes = calls("epoch.publish")
    lock_wait = total("epoch.publish") - total("epoch.fork") - total("protocol.apply_revocation")
    wait_hist = untraced["queue_wait"]
    values = {
        "wire.decode_us": per_req_us("wire.decode_body", "wire.request_from_dict"),
        "wire.encode_us": per_req_us("wire.decision_to_dict", "wire.encode_frame"),
        "edge.batch_size_mean": _ratio(untraced["edge_requests"], untraced["edge_batches"]),
        "service.submit_us": per_req_us("service.submit_batch"),
        "service.queue_wait_p50_ms": histogram_quantile(wait_hist, 0.50) * 1e3,
        "service.queue_wait_p99_ms": histogram_quantile(wait_hist, 0.99) * 1e3,
        "service.shed_ratio": _ratio(untraced["overloaded"], untraced["submitted"]),
        "protocol.authorize_us": per_call_us("protocol.authorize"),
        "protocol.authorize_self_us": _ratio(
            spans.get("protocol.authorize", {}).get("self_s", 0.0), calls("protocol.authorize")
        ) * 1e6,
        "protocol.cert_cache_hit_ratio": _ratio(
            traced["cache_hits"], traced["cache_hits"] + traced["cache_misses"]
        ),
        "protocol.apply_revocation_us": per_call_us("protocol.apply_revocation"),
        "protocol.sequential_rps": sequential_rps,
        "pki.validate_us_per_req": per_req_us("pki.validate_certificate"),
        "pki.canonical_bytes_per_req": _ratio(calls("pki.canonical_bytes"), n),
        "crypto.verify_calls_per_req": _ratio(calls("crypto.verify"), n),
        "crypto.verify_us_per_req": per_req_us("crypto.verify"),
        "crypto.sign_us_per_req": _ratio(
            spans.get("crypto.sign", {}).get("under:audit.append", 0.0), n
        ) * 1e6,
        "core.admit_utterance_us": per_call_us("core.admit_utterance"),
        "core.admit_certificate_us": per_call_us("core.admit_certificate"),
        "core.derive_group_says_us": per_call_us("core.derive_group_says"),
        "core.membership_revoked_us": per_call_us("core.membership_revoked"),
        "core.index_probes_per_req": _ratio(traced["index_probes"], traced["decisions"]),
        "core.beliefs_per_req": _ratio(untraced["beliefs"], untraced["evaluated"]),
        "epoch.fork_ms": _ratio(total("epoch.fork"), publishes) * 1e3,
        "epoch.lock_wait_ms": _ratio(max(0.0, lock_wait), publishes) * 1e3,
        "audit.append_us": per_call_us("audit.append"),
        "wal.append_us": per_call_us("wal.append"),
        "wal.sync_ms": _ratio(total("wal.sync"), calls("wal.sync")) * 1e3,
        "wal.syncs_per_1k_req": _ratio(untraced["wal_syncs"], untraced["evaluated"]) * 1e3,
        "setup.form_s": report["form_s"],
        "gc.gen2_count": gc_untraced["gen2_count"],
        "gc.gen2_max_ms": gc_untraced["gen2_max_ms"],
        "gc.pause_total_ms": gc_untraced["pause_total_ms"],
        "client.gen_lag_p99_ms": gen_lag_p99_ms,
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: (float(values[name]), unit) for name, unit in UNITS.items()}
