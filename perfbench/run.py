"""Benchmark of the coalition authorization server.

    python3 perfbench/run.py --workload edge-saturate --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``edge-saturate``: closed loop over TCP, a fixed window of outstanding
  requests; a traced run adds the same stream through an in-process
  ``CoalitionServer`` as the sequential yardstick.
* ``edge-paced``: the same traffic, open loop at a fixed rate, latency
  timed from each request's due time.
* ``revoke-churn``: in-process, durable (audit log + WAL), a fixed
  stream of decision batches interleaved with revocations.

The server runs in its own process (``launcher.py``).  With
``--trace 0`` the last stdout line reports the end-to-end metrics
(``END_TO_END``, the same on every workload); with ``--trace 1`` a
traced run reports the per-layer metrics (``layers.UNITS``).  Every
decision is checked against the plan; a missing, shed, errored or wrong
answer is a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("edge-saturate", "edge-paced", "revoke-churn")
CPUS = os.cpu_count() or 1
SHARDS = CPUS  # the server runs one shard per core
CONNECTIONS = min(2, CPUS)  # the client uses at most this many connections
SATURATE_WINDOW = 8  # outstanding requests in the closed loop
PACED_RPS = 300.0  # about 40% of the rate where a paced backlog starts to grow (about 700/s)
SLO_MS = 10.0  # latency limit of slo_ok_ratio (about 5x the paced p50)
WARMUP_S = 1.0
SATURATE_WARMUP_REQUESTS = 2500  # the closed warm-up ends early if it sends them all
# The saturated phase gets this many times the requests the warm-up rate
# would need; running out is reported as a problem.
POOL_HEADROOM = 1.5
# setup_s is the median of this many launches before the measured phase
# and this many after it, so it samples the host at both ends of the run.
SETUP_LAUNCHES_BEFORE = 4
SETUP_LAUNCHES_AFTER = 5
SLICE_S = 1.0  # edge latency_p50_ms is the median of the p50s of slices this long
RSS_AFTER_PER_S = 1000  # saturate reads peak RSS after this many answers per second
TRACE_SLICES = 6  # a traced run alternates this many untraced/traced slices
REPLY_TIMEOUT_S = 120.0  # a server process that stays silent this long is hung

Metrics = Dict[str, Tuple[float, str]]

# Every workload reports each of these, in the order BENCHMARK.json
# lists them.  latency_p50_ms times the workload's own operation: a
# decision's round trip (edge-saturate), a decision from its due time
# (edge-paced), a publish_revocation call (revoke-churn).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_decision": "ms",
    "peak_rss_mb": "MB",
}


class Launcher:
    """One server process (``launcher.py``), spoken to line by line."""

    def __init__(self, mode: str, *extra: str):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py"), mode,
             "--shards", str(SHARDS), *extra],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        self.ready = self.read()

    def read(self) -> Dict[str, object]:
        # One reply line per command, so an empty buffer means no reply yet.
        if not select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)[0]:
            self.proc.kill()
            raise RuntimeError(f"server process gave no reply in {REPLY_TIMEOUT_S} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process exited with {self.proc.wait()}")
        return json.loads(line)

    def ask(self, command: str) -> Dict[str, object]:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


def launch_ready(mode: str, *extra: str) -> Tuple[Launcher, float]:
    """Start a server; returns it and the seconds until it was ready.

    An edge server is ready when it answers ``readyz`` with 200 over
    TCP; the churn fixture when it reports ready.
    """
    from repro.service.wire import EdgeClient

    launcher = Launcher(mode, *extra)
    try:
        if mode == "edge":
            with EdgeClient("127.0.0.1", launcher.ready["port"]) as probe:
                status = probe.readyz()["status"]
            if status != 200:
                raise RuntimeError(f"readyz answered {status}")
    except BaseException:
        launcher.stop()
        raise
    return launcher, time.perf_counter() - launcher.started


def setup_samples(count: int, mode: str, *extra: str) -> List[float]:
    """Seconds to ready of ``count`` server launches, each stopped once ready."""
    samples = []
    for _ in range(count):
        launcher, setup_s = launch_ready(mode, *extra)
        launcher.stop()
        samples.append(setup_s)
    return samples


# ------------------------------------------------------------- results


class Outcome:
    def __init__(self):
        self.metrics: Metrics = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.details: Dict[str, object] = {}

    def tally(self, attempted: int, failed: int, first_failure: Optional[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        if first_failure:
            self.problems.append(first_failure)

    def line(self) -> str:
        return json.dumps({
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        })


# ------------------------------------------------------------ sequential


def sequential_block(seed: int, out: Outcome) -> List[float]:
    """Rates of one block of sequential passes (see ``launcher.run_sequential``)."""
    launcher = Launcher("sequential", "--seed", str(seed))
    launcher.stop()
    result = launcher.ready
    out.tally(result["attempted"], result["failed"], result["first_failure"])
    out.details.setdefault("sequential_rates", []).extend(result["rates"])
    return result["rates"]


# ------------------------------------------------------------------ edge


class _EdgeRun:
    """A load client on a launched edge server, signing requests on demand."""

    def __init__(self, launcher: Launcher, seed: int):
        from client import EdgeLoad
        from fixture import edge_signer
        from repro.service.wire import ClientBundle

        bundle = ClientBundle.from_dict(launcher.ready["bundle"])
        self.seed = seed
        self.signer = edge_signer(bundle.users, bundle.read_cert, bundle.write_cert)
        self.load = EdgeLoad(launcher.ready["port"], [], [], CONNECTIONS)

    def sign(self, count: int) -> None:
        """Sign and frame the next ``count`` requests of the stream."""
        from client import frames_for
        from plan import edge_ops

        done = len(self.load.ops)
        more = edge_ops(self.seed, done + count)[done:]
        self.load.extend(more, frames_for(more, self.signer))

    def warm_up(self, workload: str) -> float:
        """Warm the server up; the closed loop returns its rate in answers/s."""
        if workload == "edge-paced":
            self.sign(int(WARMUP_S * PACED_RPS))
            self.load.paced(WARMUP_S, PACED_RPS)
            return PACED_RPS
        self.sign(SATURATE_WARMUP_REQUESTS)
        t0 = time.perf_counter()
        self.load.closed(WARMUP_S, SATURATE_WINDOW)
        return self.load.attempted / (time.perf_counter() - t0)

    def close(self) -> None:
        self.load.close()


def _pool(workload: str, seconds: float, warm_rate: float, at_least: int = 0) -> int:
    """Requests to sign for a measured phase of ``seconds``."""
    if workload == "edge-paced":
        return int(seconds * PACED_RPS) + 64  # the schedule sends int(seconds * PACED_RPS)
    return max(int(POOL_HEADROOM * warm_rate * seconds), at_least)


def _run_slice(load, workload: str, seconds: float) -> Dict[str, object]:
    """One slice of load: correct answers and wall time, or paced samples."""
    t0 = time.perf_counter()
    if workload == "edge-saturate":
        correct = sum(map(len, load.closed(seconds, SATURATE_WINDOW)))
        return {"correct": correct, "wall_s": time.perf_counter() - t0}
    return load.paced(seconds, PACED_RPS)


def _check_pool(load, out: Outcome) -> None:
    if load.exhausted:
        out.problems.append(
            f"the closed loop sent all {len(load.frames)} prepared requests; "
            "raise POOL_HEADROOM"
        )


def run_edge(workload: str, seed: int, seconds: float, out: Outcome) -> None:
    from stats import median, peak_rss_mb, percentile, process_cpu_s

    saturate = workload == "edge-saturate"
    # Peak RSS is read after a fixed number of answers, so a faster
    # server is not charged for the extra history it builds in a run.
    rss_after = int(seconds * RSS_AFTER_PER_S) if saturate else 0
    slices = max(1, round(seconds / SLICE_S))
    setups = setup_samples(SETUP_LAUNCHES_BEFORE - 1, "edge")
    launcher, setup_s = launch_ready("edge")
    setups.append(setup_s)
    pid = launcher.proc.pid
    edge = None
    rss: List[float] = []
    try:
        edge = _EdgeRun(launcher, seed)
        load = edge.load
        load.on_answer = lambda n: n == rss_after and rss.append(peak_rss_mb(pid))
        warm_rate = edge.warm_up(workload)
        edge.sign(_pool(workload, seconds, warm_rate, rss_after))
        answered, cpu_s = load.attempted, process_cpu_s(pid)
        if saturate:
            parts = load.closed(seconds, SATURATE_WINDOW, slices)
            _check_pool(load, out)
        else:
            samples = load.paced(seconds, PACED_RPS, slices)
            parts = samples["ok_slices"]
        cpu_s = process_cpu_s(pid) - cpu_s
        answered = load.attempted - answered
        while saturate and not rss and not load.exhausted:
            load.closed(WARMUP_S, SATURATE_WINDOW)
        if not rss:
            rss.append(peak_rss_mb(pid))
        out.tally(load.attempted, load.failed, load.first_failure)
    finally:
        if edge is not None:
            edge.close()
        launcher.stop()
    setups += setup_samples(SETUP_LAUNCHES_AFTER, "edge")
    # Medians over one-second slices: a collector pause or a slow
    # stretch of the host moves a few slices, not the figure.
    slice_p50_ms = [median(p) * 1e3 for p in parts if p]
    out.metrics.update({
        "setup_s": (median(setups), "s"),
        "latency_p50_ms": (median(slice_p50_ms), "ms"),
        "cpu_ms_per_decision": (cpu_s / answered * 1e3, "ms"),
        "peak_rss_mb": (rss[0], "MB"),
    })
    out.details.update(setup_samples=setups, warm_rate=warm_rate, server_cpu_s=cpu_s,
                       slice_p50_ms=slice_p50_ms)
    if saturate:
        slice_s = seconds / slices
        out.details["slice_rps"] = [len(p) / slice_s for p in parts]
        out.details["throughput_rps"] = median(out.details["slice_rps"])
    else:
        ok_in_slo = sum(1 for s in samples["ok_latency"] if s <= SLO_MS / 1e3)
        out.details.update(
            slo_ok_ratio=ok_in_slo / int(seconds * PACED_RPS),
            latency_p99_ms=percentile(samples["latency"], 0.99) * 1e3,
            gen_lag_p99_ms=percentile(samples["lag"], 0.99) * 1e3,
        )


def trace_edge(workload: str, seed: int, seconds: float, out: Outcome) -> None:
    from layers import per_layer
    from fixture import run_dir
    from stats import median, percentile

    launcher, _ = launch_ready("edge", "--trace")
    edge = None
    rates = {"untraced": [0, 0.0], "traced": [0, 0.0]}  # correct, seconds
    lags: List[float] = []
    try:
        edge = _EdgeRun(launcher, seed)
        load = edge.load
        edge.sign(_pool(workload, seconds, edge.warm_up(workload)))
        for k in range(TRACE_SLICES):
            phase = "untraced" if k % 2 == 0 else "traced"
            launcher.ask(f"phase {phase}")
            result = _run_slice(load, workload, seconds / TRACE_SLICES)
            if workload == "edge-saturate":
                rates[phase][0] += result["correct"]
                rates[phase][1] += result["wall_s"]
            else:
                lags.extend(result["lag"])
        _check_pool(load, out)
        launcher.ask("phase idle")
        spans = os.path.join(run_dir(ROOT), f"spans-{workload}.jsonl")
        report = launcher.ask(f"report {spans}")
        out.tally(load.attempted, load.failed, load.first_failure)
    finally:
        if edge is not None:
            edge.close()
        launcher.stop()
    phases = report["phases"]
    if workload == "edge-saturate":
        overhead = (rates["traced"][0] / rates["traced"][1]) / (
            rates["untraced"][0] / rates["untraced"][1])
        lag_p99 = 0.0
    else:
        # A paced run's rate is set by the schedule, so compare server
        # CPU per decision instead: decisions per CPU second, traced
        # over untraced.
        overhead = (phases["traced"]["evaluated"] / phases["traced"]["cpu_s"]) / (
            phases["untraced"]["evaluated"] / phases["untraced"]["cpu_s"])
        lag_p99 = percentile(lags, 0.99) * 1e3
    # The in-process yardstick, untraced, in a process of its own.
    sequential = sequential_block(seed, out) if workload == "edge-saturate" else [0.0]
    out.metrics.update(per_layer(report, overhead, lag_p99, median(sequential)))
    out.details["spans_written"] = report.get("spans_written", 0)


# ---------------------------------------------------------- revoke-churn


def run_churn(seed: int, seconds: float, trace: bool, out: Outcome) -> None:
    from fixture import run_dir
    from stats import median, peak_rss_mb, percentile

    extra = ["--seed", str(seed), "--seconds", str(seconds)]
    setups = [] if trace else setup_samples(SETUP_LAUNCHES_BEFORE - 1, "churn", *extra)
    launcher, setup_s = launch_ready("churn", *extra, *(["--trace"] if trace else []))
    setups.append(setup_s)
    try:
        spans = os.path.join(run_dir(ROOT), "spans-revoke-churn.jsonl") if trace else ""
        result = launcher.ask(f"run {spans}".strip())
        peak_mb = peak_rss_mb(launcher.proc.pid)
    finally:
        launcher.stop()
    out.tally(result["attempted"], result["failed"], result["first_failure"])
    slices = result["slices"]
    out.details.update(revocations=len(result["revoke_s"]), slices=slices,
                       prep_mb=result["prep_mb"])
    if trace:
        from layers import per_layer

        def rate(phase: str) -> float:
            return (sum(c for p, c, _ in slices if p == phase)
                    / sum(s for p, _, s in slices if p == phase))

        out.metrics.update(per_layer(result["report"], rate("traced") / rate("untraced")))
        return
    setups += setup_samples(SETUP_LAUNCHES_AFTER, "churn", *extra)
    revoke_s = result["revoke_s"]
    decisions = sum(c for _, c, _ in slices)
    out.metrics.update({
        "setup_s": (median(setups), "s"),
        "latency_p50_ms": (percentile(revoke_s, 0.50) * 1e3, "ms"),
        "cpu_ms_per_decision": (result["cpu_s"] / decisions * 1e3, "ms"),
        # The server's part: the fixture process also holds the issued
        # certificates and signed requests of the stream, whose RSS
        # growth while they were prepared is taken off.
        "peak_rss_mb": (peak_mb - result["prep_mb"], "MB"),
    })
    out.details.update(
        setup_samples=setups,
        # Over the whole fixed stream: its rate falls as history grows.
        throughput_rps=decisions / sum(s for _, _, s in slices),
        revoke_p95_ms=percentile(revoke_s, 0.95) * 1e3,
        cpu_s=result["cpu_s"],
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    out = Outcome()
    if args.workload == "revoke-churn":
        run_churn(args.seed, args.seconds, bool(args.trace), out)
    elif args.trace:
        trace_edge(args.workload, args.seed, args.seconds, out)
    else:
        run_edge(args.workload, args.seed, args.seconds, out)
    from layers import UNITS

    expected = UNITS if args.trace else END_TO_END
    reported = {name: unit for name, (_, unit) in out.metrics.items()}
    if reported != expected:
        raise RuntimeError(f"reported metrics {reported} are not the manifest's {expected}")
    out.details.update(problems=out.problems)
    print(json.dumps({"details": out.details}))
    print(out.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
