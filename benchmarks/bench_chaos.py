"""E16 — serving latency and correctness under injected faults.

The chaos run submits the fixture's request stream
(``repro.service.fixture``) to a threaded service with a fault plan
attached: an ``InjectedFault`` every 50th evaluation plus one forced
decider kill.  The acceptance bar is the DESIGN.md §11
no-stranding invariant — every submitted ticket resolves to a typed
decision, the errored count in the metrics snapshot matches the
injector's ledger, and the latency tail is recorded next to the
chaos-free control so the overhead of surviving faults stays visible
in ``BENCH_service.json``.

``SERVICE_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs; the
acceptance assertions hold in both sizes.
"""

import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict

from repro.obs.metrics import histogram_quantile
from repro.service import AuthorizationService, ChaosConfig, FaultInjector
from repro.service.admission import Errored, Overloaded
from repro.service.fixture import attach_coalition
from repro.service.scenarios import percentile

SMOKE = os.environ.get("SERVICE_BENCH_SMOKE") == "1"
TOTAL_REQUESTS = 60 if SMOKE else 300
SEED = 23

# No revocations: a fixed epoch keeps every decision in the current
# epoch's registry, so snapshot counters can be compared exactly
# against the injector's ledger.
CHAOS = ChaosConfig(
    raise_every=50,  # ~2% of evaluations fault
    kill_times=1,
    kill_after=5,  # one loop-top kill once the decider has decided 5
)


@dataclass
class ChaosRow:
    """One run's ``service_report`` row (has ``as_dict``)."""

    config: Dict[str, object] = field(default_factory=dict)
    wall_s: float = 0.0
    submitted: int = 0
    evaluated: int = 0
    granted: int = 0
    errored: int = 0
    overloaded: int = 0
    crashes: int = 0
    restarts: int = 0
    stranded: int = 0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    max_ms: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


def _fixture(chaos):
    service = AuthorizationService(
        queue_depth=1024,
        freshness_window=10**9,
        chaos=chaos,
    )
    return attach_coalition(service, num_objects=8, key_bits=256)


def _run(fixture, chaos):
    """Submit the stream, drain, and summarize every ticket."""
    service = fixture.service
    start = time.perf_counter()
    tickets = [
        service.submit(request, now)
        for now, request in fixture.stream(TOTAL_REQUESTS, seed=SEED)
    ]
    assert service.drain(timeout=60.0), "service wedged"
    wall = time.perf_counter() - start
    done = [t for t in tickets if t.done()]
    served = [t for t in done if not isinstance(t.result(0), Overloaded)]
    latencies = sorted(t.latency_s for t in served if t.latency_s is not None)
    stats = service.stats()
    return ChaosRow(
        config={"seed": SEED, "requests": TOTAL_REQUESTS, "chaos": asdict(chaos)},
        wall_s=wall,
        submitted=stats["service"]["submitted"],
        evaluated=stats["service"]["evaluated"],
        granted=stats["service"]["granted"],
        errored=sum(isinstance(t.result(0), Errored) for t in served),
        overloaded=len(done) - len(served),
        crashes=stats["health"]["crashes"],
        restarts=stats["health"]["restarts"],
        stranded=len(tickets) - len(done),
        p50_ms=percentile(latencies, 0.50) * 1000,
        p95_ms=percentile(latencies, 0.95) * 1000,
        p99_ms=percentile(latencies, 0.99) * 1000,
        max_ms=(latencies[-1] * 1000) if latencies else 0.0,
    )


def test_chaos_run_strands_nothing(service_report):
    """Faults every 50th evaluation + one decider kill: full accounting."""
    injector = FaultInjector(CHAOS)
    fixture = _fixture(injector)
    try:
        report = _run(fixture, CHAOS)
        service_report("chaos", report)

        assert report.stranded == 0, "every ticket must resolve"
        chaos_stats = injector.stats()
        assert report.errored == chaos_stats["faults_raised"] > 0
        assert report.crashes == chaos_stats["kills_fired"] == 1
        assert report.restarts == 1, "one logical restart"
        # Every arrival accounted for, by type.
        assert (
            report.evaluated + report.errored + report.overloaded
            == report.submitted
        )
        assert report.granted > 0, "the service keeps serving through faults"
        assert report.p50_ms <= report.p95_ms <= report.p99_ms <= report.max_ms

        snapshot = fixture.service.metrics_snapshot()
        counters = snapshot["counters"]
        assert counters["service.errored"] == report.errored
        assert counters["service.crashes"] == 1
        assert counters["service.restarts"] == 1
        # The histogram agrees with the nearest-rank p95 of the run's
        # own ticket latencies to within one bucket (nearest-rank over
        # bucket upper bounds).
        hist_p95_s = histogram_quantile(
            snapshot["histograms"]["service.request_latency_s"], 0.95
        )
        assert hist_p95_s * 1000 >= report.p95_ms
    finally:
        fixture.service.close()


def test_chaos_off_control_is_clean(service_report):
    """The identical stream with injection disabled: zero errored."""
    fixture = _fixture(None)
    try:
        assert fixture.service.chaos is None, "no injector in the control"
        report = _run(fixture, ChaosConfig())
        service_report("chaos-off", report)

        assert report.stranded == 0
        assert report.errored == 0
        assert report.crashes == 0 and report.restarts == 0
        assert report.evaluated == report.submitted
        assert report.overloaded == 0
    finally:
        fixture.service.close()
