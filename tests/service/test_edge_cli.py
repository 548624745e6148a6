"""The serve / edge-smoke CLI pair, cross-process, with SIGTERM drain.

This is the CI smoke in miniature: a real ``serve`` process exports a
client bundle, a *separate* ``edge-smoke`` process signs and sends
requests using only that bundle (it has no access to the server's
memory), and SIGTERM produces a graceful drain and exit code 0.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.mark.timeout(120)
def test_serve_smoke_sigterm_cycle(tmp_path):
    bundle = tmp_path / "bundle.json"
    port_file = tmp_path / "port.txt"
    serve = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--bits", "256", "--objects", "4",
            "--client-bundle", str(bundle),
            "--port-file", str(port_file),
        ],
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if port_file.exists() and port_file.read_text().strip():
                break
            if serve.poll() is not None:
                pytest.fail(f"serve died early:\n{serve.stdout.read()}")
            time.sleep(0.1)
        else:
            pytest.fail("serve never wrote its port file")
        port = int(port_file.read_text().strip())
        assert bundle.exists(), "serve must export the client bundle"

        smoke = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "edge-smoke",
                "--port", str(port), "--bundle", str(bundle),
                "--requests", "10",
            ],
            env=_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert smoke.returncode == 0, smoke.stdout + smoke.stderr
        assert "healthz=200 readyz=200" in smoke.stdout
        assert "10 granted, 0 other" in smoke.stdout

        serve.send_signal(signal.SIGTERM)
        out, _ = serve.communicate(timeout=60)
        assert serve.returncode == 0, out
        assert "draining edge" in out
        assert "drained: connections=1 responses=12" in out
    finally:
        if serve.poll() is None:
            serve.kill()
            serve.wait(timeout=10)
