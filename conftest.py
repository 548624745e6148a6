"""Repo-root pytest plugin: a hang guard that works without pytest-timeout.

CI installs ``pytest-timeout`` (see the ``[test]`` extras) and enforces
the ``timeout`` ini option natively.  Offline environments without the
plugin would otherwise warn about the unknown option and — worse —
hang forever on exactly the class of bug the option guards against (a
stranded ticket hanging ``drain()``), so when the plugin is absent
this conftest registers the option itself and enforces it with a
SIGALRM timer around each test call.  The fallback covers the common
case (blocked main thread on a POSIX platform); the real plugin, when
installed, takes precedence and this file stays inert.
"""

import importlib.util
import signal

import pytest

_HAVE_TIMEOUT_PLUGIN = importlib.util.find_spec("pytest_timeout") is not None
_CAN_ALARM = hasattr(signal, "SIGALRM")


def pytest_addoption(parser):
    if _HAVE_TIMEOUT_PLUGIN:
        return
    parser.addini(
        "timeout",
        "per-test hang guard in seconds (fallback for pytest-timeout)",
        default="0",
    )


def _timeout_for(item) -> float:
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        return float(marker.args[0])
    try:
        return float(item.config.getini("timeout") or 0)
    except (TypeError, ValueError):
        return 0.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if _HAVE_TIMEOUT_PLUGIN or not _CAN_ALARM:
        yield
        return
    seconds = _timeout_for(item)
    if seconds <= 0:
        yield
        return

    def _on_alarm(signum, frame):
        pytest.fail(
            f"hang guard: test ran past {seconds:.0f}s "
            f"(see the `timeout` ini option)",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
