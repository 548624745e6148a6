"""E20 — coalition-life scenarios under standing invariants.

Runs every registered scenario (DESIGN.md §15) through the threaded
service and records one named row per scenario in
``BENCH_service.json``: latency percentiles, typed sheds, faults
survived, re-keys and replay outcomes.  The acceptance bar is the
scenarios' own invariant sets — accounting, no stale grant after a
revocation barrier, replays denied across restarts, oracle byte-parity
where feasible — so a perf row only lands if the run was *correct*.

One extra row drives an edge-capable scenario over a real TCP
connection (``transport="edge"``), so the full network path is
exercised by scenario traffic too.

``SERVICE_BENCH_SMOKE=1`` trims the set to the two fastest scenarios
for CI smoke runs; the invariant assertions hold in both sizes.
"""

import os

from repro.service.scenarios import SCENARIOS, ScenarioRunner

SMOKE = os.environ.get("SERVICE_BENCH_SMOKE") == "1"
SEED = 11

SMOKE_SET = ("stale-cert-adversary", "chaos-storm")


def _names():
    if SMOKE:
        return list(SMOKE_SET)
    return sorted(SCENARIOS)


def test_scenarios_record_rows(service_report):
    """Every scenario upholds its invariants and records a bench row."""
    runner = ScenarioRunner(mode="threaded", seed=SEED)
    for name in _names():
        report = runner.run(SCENARIOS[name])
        # The report's own name key lands in the row; prefix it so
        # scenario rows group together among the chaos and WAL rows.
        report.name = f"scenario-{name}"
        service_report(
            report.name,
            report,
            faults_survived=report.faults_injected + report.kills,
        )
        assert report.ok, (
            f"{name}: invariant violations: {report.violations()}"
        )
        # The row is only meaningful if the run did real work.
        assert report.requests > 0
        assert (
            report.evaluated + report.errored + report.overloaded
            == report.submitted
        )
        assert report.p50_ms <= report.p95_ms <= report.p99_ms


def test_scenario_over_edge_records_row(service_report):
    """One scenario's traffic over real TCP: same invariants, one row."""
    runner = ScenarioRunner(mode="threaded", transport="edge", seed=SEED)
    report = runner.run(SCENARIOS["stale-cert-adversary"])
    report.name = "scenario-stale-cert-adversary-edge"
    service_report(report.name, report, faults_survived=0)
    assert report.ok, f"edge run violations: {report.violations()}"
    assert report.transport == "edge"
    assert report.granted > 0 and report.denied > 0
