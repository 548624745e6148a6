"""The benchmark session writes ``BENCH_service.json`` only from full runs.

A ``SERVICE_BENCH_SMOKE=1`` run shrinks the service benches, so its
rows must not replace the committed trajectory.
"""

import importlib.util
import json
import pathlib
import types

import pytest

CONFTEST = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture()
def bench_conftest(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_conftest_under_test", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "_SERVICE_SUMMARY_PATH", tmp_path / "BENCH_service.json")
    return module


def _config():
    return types.SimpleNamespace(
        _service_bench_reports={"chaos": {"name": "chaos", "requests": 60}}
    )


def test_smoke_run_leaves_summary_untouched(bench_conftest, monkeypatch):
    monkeypatch.setenv("SERVICE_BENCH_SMOKE", "1")
    bench_conftest._write_service_summary(_config())
    assert not bench_conftest._SERVICE_SUMMARY_PATH.exists()


def test_full_run_writes_summary(bench_conftest, monkeypatch):
    monkeypatch.delenv("SERVICE_BENCH_SMOKE", raising=False)
    bench_conftest._write_service_summary(_config())
    rows = json.loads(bench_conftest._SERVICE_SUMMARY_PATH.read_text())["service_runs"]
    assert rows == [{"name": "chaos", "requests": 60}]
