"""The benchmark's server process.

``python3 perfbench/launcher.py edge --shards N [--trace]`` forms a
coalition, starts a threaded :class:`AuthorizationService` with ``N``
shards behind the asyncio edge, prints one JSON line with the port and
the client bundle, then obeys one command per stdin line:

* ``phase untraced|traced|idle`` closes the current phase (adding its
  counter deltas to that phase's totals) and opens the next; with
  ``--trace``, ``traced`` installs the span wrappers and any other
  phase removes them;
* ``report`` prints the totals, the span summary and collector pauses;
* ``quit`` (or end of input) drains the edge and exits.

``python3 perfbench/launcher.py churn --shards N --seed S --seconds T
[--trace]`` builds the durable revoke-churn fixture, prints a ready
line and, on ``run``, drives the revoke-churn workload in-process and
prints its result; it then waits for ``quit``.

Every reply is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import sys
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from repro.coalition import AuditLog  # noqa: E402
from repro.service.admission import Errored, Overloaded  # noqa: E402
from repro.service.edge import serve_in_thread  # noqa: E402
from repro.service.wire import ClientBundle  # noqa: E402

from fixture import (  # noqa: E402
    KEY_BITS, Signer, edge_signer, form_population, issue, new_sequential_server,
    new_service, run_dir,
)
from plan import BATCH, Revoke, check, churn_events, edge_ops  # noqa: E402
from stats import GcObserver, cpu_seconds, rss_mb  # noqa: E402
from tracer import Tracer  # noqa: E402

PHASES = ("untraced", "traced")
CHURN_WARMUP_REQUESTS = 12 * BATCH
# The measured phase of revoke-churn is a fixed stream: this many
# revocations (each after BATCH decisions) per second of --seconds,
# about the rate a 2-vCPU host reaches, so that it lasts about
# --seconds.  Publish time grows with the history the server has built,
# so a fixed stream measures every run at the same points of history,
# and a faster server is not charged for the extra history it would
# build in a fixed time.
CHURN_REVOCATIONS_PER_S = 13
CHURN_USERS_PER_DOMAIN = 10  # 2 * 10**3 distinct certificates
MIN_REVOCATIONS = 200  # so that revoke_p95_ms has ten samples beyond it
SLICE_S = 1.0  # a traced revoke-churn run alternates phases in slices this long
SEQUENTIAL_REQUESTS = 1500
SEQUENTIAL_PASSES = 6  # a traced edge-saturate run reports their median


def emit(doc: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


class Phases:
    """Counter deltas of the service (and edge) summed per phase."""

    def __init__(self, service, edge=None, trace: bool = False):
        self.service = service
        self.edge = edge
        self.tracer = Tracer() if trace else None
        self.gc = GcObserver() if trace else None
        self.current: Optional[str] = None
        self._mark: Optional[Dict[str, object]] = None
        self.totals = {phase: None for phase in PHASES}

    def _snap(self) -> Dict[str, object]:
        snapshot = self.service.metrics_snapshot()
        counters, gauges = snapshot["counters"], snapshot["gauges"]
        hist = snapshot["histograms"]["service.queue_wait_s"]
        edge = self.edge.stats() if self.edge is not None else {}
        wal = self.service.wal
        return {
            "evaluated": counters["service.evaluated"],
            "submitted": counters["service.submitted"],
            "overloaded": counters["service.overloaded"],
            "decisions": counters["protocol.decisions_made"],
            "cache_hits": counters["protocol.cert_cache_hits"],
            "cache_misses": counters["protocol.cert_cache_misses"],
            "index_probes": counters["store.index_probes"],
            "beliefs": gauges.get("store.beliefs", 0),
            "queue_wait": {"bounds": hist["bounds"], "counts": hist["counts"]},
            "edge_batches": edge.get("batches", 0),
            "edge_requests": edge.get("batched_requests", 0),
            "wal_syncs": wal.stats()["syncs"] if wal is not None else 0,
            "cpu_s": cpu_seconds(),
            "wall_s": time.perf_counter(),
        }

    def switch(self, phase: Optional[str]) -> None:
        if self.current is not None:
            now, mark = self._snap(), self._mark
            delta = {}
            for key, value in now.items():
                if key == "queue_wait":
                    delta[key] = {
                        "bounds": value["bounds"],
                        "counts": [a - b for a, b in zip(value["counts"], mark[key]["counts"])],
                    }
                else:
                    delta[key] = value - mark[key]
            total = self.totals[self.current]
            if total is None:
                self.totals[self.current] = delta
            else:
                for key, value in delta.items():
                    if key == "queue_wait":
                        total[key]["counts"] = [
                            a + b for a, b in zip(total[key]["counts"], value["counts"])
                        ]
                    else:
                        total[key] += value
        if self.tracer is not None:
            if phase == "traced":
                self.tracer.install()
            else:
                self.tracer.uninstall()
        if self.gc is not None:
            self.gc.bucket = phase
        self.current = phase
        self._mark = self._snap() if phase is not None else None

    def suppressed(self):
        return self.tracer.suppressed() if self.tracer else contextlib.nullcontext()

    def report(self, form_s: float, spans_path: Optional[str]) -> Dict[str, object]:
        zero = dict.fromkeys(
            ("evaluated", "submitted", "overloaded", "decisions", "cache_hits",
             "cache_misses", "index_probes", "beliefs", "edge_batches",
             "edge_requests", "wal_syncs", "cpu_s", "wall_s"), 0)
        zero["queue_wait"] = {"bounds": [1.0], "counts": [0, 0]}
        doc: Dict[str, object] = {
            "phases": {p: self.totals[p] or dict(zero) for p in PHASES},
            "form_s": form_s,
        }
        if self.tracer is not None:
            doc["spans"] = self.tracer.summary()
            doc["gc"] = {p: self.gc.snapshot(p) for p in PHASES}
            if spans_path:
                doc["spans_written"] = self.tracer.dump(spans_path)
        return doc


# ---------------------------------------------------------------- edge


def serve_edge(args: argparse.Namespace) -> int:
    population = form_population()
    read_cert, write_cert = issue(population, 0), issue(population, 1)
    service = new_service(population, args.shards)
    handle = serve_in_thread(service)
    phases = Phases(service, handle, trace=args.trace)
    try:
        emit({
            "event": "ready",
            "port": handle.port,
            "form_s": population.form_s,
            "bundle": ClientBundle(
                users=population.users, read_cert=read_cert,
                write_cert=write_cert, object_names=[],
            ).to_dict(),
        })
        for line in sys.stdin:
            words = line.split(maxsplit=1)
            if not words or words[0] == "quit":
                break
            if words[0] == "phase":
                phase = words[1].strip()
                phases.switch(None if phase == "idle" else phase)
                emit({"ok": True})
            elif words[0] == "report":
                spans = words[1].strip() if len(words) > 1 else None
                emit(phases.report(population.form_s, spans))
    finally:
        phases.switch(None)
        handle.shutdown(timeout=10.0)
        service.close()
    return 0


# -------------------------------------------------------- revoke-churn


class ChurnRun:
    """The revoke-churn generator: decision batches and revocations.

    At most two batches are in flight: batch ``k + 2`` is submitted only
    once batch ``k`` is answered, which is what the plan's replays rely
    on.  A revocation is timed from the call of ``publish_revocation``
    to its return; every request admitted after that sees it.

    The certificates the stream presents are issued, and its requests
    signed, before each phase starts (:meth:`prepare`): both are
    requestor-side work, like the pre-signed edge requests.  The growth
    of this process's RSS while preparing is kept in :attr:`prep_mb`, so
    the server's own peak can be told apart from the prepared pool.
    """

    def __init__(self, service, population, phases: Phases, seed: int):
        self.service = service
        self.population = population
        self.phases = phases
        self.events = churn_events(seed)
        self.certs: Dict[int, object] = {}
        self.signer = Signer(users=[], certs=self.certs,
                             subjects_of=population.subjects, tag=f"c{seed}")
        self.prep_mb = 0.0
        self.inflight: deque = deque()
        self.next_index = 0
        self.attempted = 0
        self.failed = 0
        self.correct = 0  # correct decisions of measured batches
        self.issuer_cpu_s = 0.0  # CPU time the authority spent on revocations
        self.first_failure: Optional[str] = None

    def prepare(self, requests: int) -> List[object]:
        """The next events of the stream, with at least ``requests`` requests signed."""
        before = rss_mb()
        prepared: List[object] = []
        count = 0
        while count < requests:
            event = next(self.events)
            if isinstance(event, Revoke):
                prepared.append(event)
                continue
            for op in event:
                if op.cert not in self.certs:
                    self.certs[op.cert] = issue(self.population, op.cert)
            prepared.append((event, [(self.signer.request(op), op.index + 1) for op in event]))
            count += len(event)
        self.prep_mb += rss_mb() - before
        return prepared

    def settle(self) -> None:
        ops, tickets, measured = self.inflight.popleft()
        for op, ticket in zip(ops, tickets):
            self.attempted += 1
            decision = ticket.result(timeout=60.0)
            if not isinstance(decision, (Overloaded, Errored)) and check(
                op, decision.granted, decision.reason
            ):
                self.correct += measured
                continue
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = (
                    f"op {op.index} expected {op.expect!r}, got "
                    f"{type(decision).__name__} {decision.granted} {decision.reason!r}"
                )

    def drain(self) -> None:
        while self.inflight:
            self.settle()

    def step(self, event, measured: bool) -> Optional[float]:
        """Submit one prepared event; a revocation returns its publish seconds."""
        if isinstance(event, Revoke):
            cpu0 = time.thread_time()
            with self.phases.suppressed():
                revocation = self.population.coalition.authority.revoke_certificate(
                    self.certs[event.cert], now=self.next_index
                )
            self.issuer_cpu_s += time.thread_time() - cpu0
            t0 = time.perf_counter()
            self.service.publish_revocation(revocation, now=self.next_index)
            return time.perf_counter() - t0
        ops, batch = event
        while len(self.inflight) >= 2:
            self.settle()
        self.inflight.append((ops, self.service.submit_batch(batch), measured))
        self.next_index = ops[-1].index + 1
        return None

    def run(self, seconds: float, trace: bool) -> Dict[str, object]:
        for event in self.prepare(CHURN_WARMUP_REQUESTS):
            self.step(event, measured=False)
        self.drain()
        revocations = max(MIN_REVOCATIONS, round(CHURN_REVOCATIONS_PER_S * seconds))
        stream = self.prepare(revocations * BATCH)
        revoke_s: List[float] = []
        slices: List[Tuple[str, int, float]] = []  # (phase, correct, seconds)
        phase = "untraced"
        self.phases.switch(phase)
        cpu_s, self.issuer_cpu_s = cpu_seconds(), 0.0
        slice_start = time.perf_counter()
        mark = self.correct
        for event in stream:
            if time.perf_counter() - slice_start >= SLICE_S:
                self.drain()
                slices.append((phase, self.correct - mark, time.perf_counter() - slice_start))
                if trace:
                    phase = "traced" if phase == "untraced" else "untraced"
                    self.phases.switch(phase)
                slice_start, mark = time.perf_counter(), self.correct
            publish_s = self.step(event, measured=True)
            if publish_s is not None and phase == "untraced":
                revoke_s.append(publish_s)
        self.drain()
        slices.append((phase, self.correct - mark, time.perf_counter() - slice_start))
        # The server's CPU time: the authority issuing each revocation
        # is the requestor's side, like preparing the stream.
        cpu_s = cpu_seconds() - cpu_s - self.issuer_cpu_s
        self.phases.switch(None)
        return {
            "cpu_s": cpu_s,
            "attempted": self.attempted,
            "failed": self.failed,
            "first_failure": self.first_failure,
            "slices": slices,
            "revoke_s": revoke_s,
            "prep_mb": self.prep_mb,
        }


def serve_churn(args: argparse.Namespace) -> int:
    wal_dir = os.path.join(run_dir(ROOT), f"wal-{os.getpid()}")
    population = form_population(per_domain=CHURN_USERS_PER_DOMAIN)
    service = new_service(
        population, args.shards, audit_log=AuditLog(key_bits=KEY_BITS), wal_dir=wal_dir
    )
    phases = Phases(service, trace=args.trace)
    try:
        emit({"event": "ready", "form_s": population.form_s})
        for line in sys.stdin:
            words = line.split(maxsplit=1)
            if not words or words[0] == "quit":
                break
            if words[0] == "run":
                result = ChurnRun(service, population, phases, args.seed).run(
                    args.seconds, args.trace
                )
                spans = words[1].strip() if len(words) > 1 else None
                result["report"] = phases.report(population.form_s, spans)
                emit(result)
    finally:
        service.close()
        shutil.rmtree(wal_dir, ignore_errors=True)
    return 0


# ---------------------------------------------------------- sequential


def run_sequential(args: argparse.Namespace) -> int:
    """The ROADMAP yardstick: the edge stream through ``handle_request``.

    Runs the first ``SEQUENTIAL_REQUESTS`` requests of the seeded edge
    stream, one at a time, through a fresh in-process
    ``CoalitionServer`` per pass, and prints each pass's rate.  It runs
    in a process of its own so that no other heap slows its collector.
    """
    population = form_population()
    signer = edge_signer(population.users, issue(population, 0), issue(population, 1), "s")
    ops = edge_ops(args.seed, SEQUENTIAL_REQUESTS)
    requests = [signer.request(op) for op in ops]
    rates: List[float] = []
    failed, first_failure = 0, None
    for _ in range(SEQUENTIAL_PASSES):
        server = new_sequential_server(population)
        gc.collect()
        t0 = time.perf_counter()
        for op, request in zip(ops, requests):
            decision = server.handle_request(request, now=op.index + 1, write_content=b"w").decision
            if not check(op, decision.granted, decision.reason):
                failed += 1
                first_failure = first_failure or f"sequential op {op.index}: {decision.reason!r}"
        rates.append(len(ops) / (time.perf_counter() - t0))
    emit({"rates": rates, "attempted": len(ops) * SEQUENTIAL_PASSES,
          "failed": failed, "first_failure": first_failure})
    return 0


MODES = {"edge": serve_edge, "churn": serve_churn, "sequential": run_sequential}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=tuple(MODES))
    parser.add_argument("--shards", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    return MODES[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
