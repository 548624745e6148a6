"""Shared benchmark fixtures: coalition setups built once per session.

Also emits ``BENCH_derivation.json`` next to the repo root after every
benchmarked run, so successive PRs have a perf trajectory to compare
against (mean/stddev/rounds per benchmark, grouped by file).
"""

import json
import os
import pathlib

import pytest

from repro.coalition import ACLEntry, Coalition, CoalitionServer, Domain
from repro.crypto.boneh_franklin import dealer_shared_rsa
from repro.pki import ValidityPeriod

BENCH_KEY_BITS = 256

_SUMMARY_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_derivation.json"
)
_SERVICE_SUMMARY_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_service.json"
)


@pytest.fixture(scope="session")
def service_report(request):
    """Recorder for service bench rows (chaos, WAL and scenario runs).

    Reports accumulate on the session config and are written to
    ``BENCH_service.json`` at session end — independent of the
    pytest-benchmark plugin, so full-size rows survive
    ``--benchmark-disable`` runs too.  ``SERVICE_BENCH_SMOKE=1`` runs
    write nothing: their rows have smoke sizes.
    """
    reports = request.config.__dict__.setdefault(
        "_service_bench_reports", {}
    )

    def record(name, report, **extra):
        reports[name] = {"name": name, **report.as_dict(), **extra}

    return record


def _write_service_summary(config):
    reports = getattr(config, "_service_bench_reports", {})
    if not reports or os.environ.get("SERVICE_BENCH_SMOKE") == "1":
        return
    runs = [reports[name] for name in sorted(reports)]
    _SERVICE_SUMMARY_PATH.write_text(
        json.dumps({"service_runs": runs}, indent=2) + "\n"
    )


def pytest_sessionfinish(session, exitstatus):
    """Write a machine-readable summary of any collected benchmark stats.

    Skipped entirely when the benchmark plugin is absent or disabled
    (``--benchmark-disable`` smoke runs collect no stats).
    """
    _write_service_summary(session.config)
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return
    rows = []
    for bench in getattr(bench_session, "benchmarks", []):
        stats = getattr(bench, "stats", None)
        if stats is None:
            continue
        rows.append(
            {
                "name": bench.fullname,
                "group": bench.group,
                "mean_s": stats.mean,
                "stddev_s": stats.stddev,
                "min_s": stats.min,
                "max_s": stats.max,
                "rounds": stats.rounds,
            }
        )
    if not rows:
        return
    rows.sort(key=lambda row: row["name"])
    _SUMMARY_PATH.write_text(json.dumps({"benchmarks": rows}, indent=2) + "\n")


@pytest.fixture(scope="session")
def bench_coalition():
    """A formed 3-domain coalition with server, object and certificates."""
    domains = [Domain(f"D{i}", key_bits=BENCH_KEY_BITS) for i in (1, 2, 3)]
    users = [
        d.register_user(f"User_D{i}", now=0)
        for i, d in enumerate(domains, start=1)
    ]
    coalition = Coalition("bench", key_bits=BENCH_KEY_BITS)
    coalition.form(domains)
    server = CoalitionServer("ServerP", freshness_window=10**9)
    coalition.attach_server(server)
    server.create_object(
        "ObjectO",
        b"benchmark object",
        [ACLEntry.of("G_write", ["write"]), ACLEntry.of("G_read", ["read"])],
        admin_group="G_admin",
    )
    write_cert = coalition.authority.issue_threshold_certificate(
        users, 2, "G_write", 0, ValidityPeriod(0, 10**9)
    )
    read_cert = coalition.authority.issue_threshold_certificate(
        users, 1, "G_read", 0, ValidityPeriod(0, 10**9)
    )
    return {
        "coalition": coalition,
        "server": server,
        "domains": domains,
        "users": users,
        "write_cert": write_cert,
        "read_cert": read_cert,
    }


@pytest.fixture(scope="session")
def bench_shared_key():
    return dealer_shared_rsa(3, bits=BENCH_KEY_BITS)
