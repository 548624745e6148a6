"""Command-line interface: run the paper's scenarios and experiments.

Usage (after ``pip install -e .``)::

    python -m repro.cli demo                # the Figure 1/2 scenario
    python -m repro.cli keygen -n 3 --bits 128 --dealerless
    python -m repro.cli liability --domains 2 3 5 8
    python -m repro.cli availability -n 5 -m 3
    python -m repro.cli dynamics --certs 1 5 15
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.coalition import (
        ACLEntry,
        Coalition,
        CoalitionServer,
        Domain,
        build_joint_request,
    )
    from repro.core.proofs import render_proof
    from repro.pki import ValidityPeriod

    domains = [Domain(f"D{i}", key_bits=args.bits) for i in (1, 2, 3)]
    users = [
        d.register_user(f"User_D{i}", now=0)
        for i, d in enumerate(domains, start=1)
    ]
    coalition = Coalition("cli-demo", key_bits=args.bits)
    coalition.form(domains)
    server = CoalitionServer("ServerP")
    coalition.attach_server(server)
    server.create_object(
        "ObjectO", b"cli demo object",
        [ACLEntry.of("G_write", ["write"]), ACLEntry.of("G_read", ["read"])],
        admin_group="G_admin",
    )
    tac = coalition.authority.issue_threshold_certificate(
        users, 2, "G_write", 1, ValidityPeriod(1, 1000)
    )
    request = build_joint_request(
        users[0], [users[1]], "write", "ObjectO", tac, now=2
    )
    result = server.handle_request(request, now=3, write_content=b"updated")
    print(f"joint write granted: {result.granted}")
    if args.proof and result.decision.proof is not None:
        print(render_proof(result.decision.proof))
    return 0 if result.granted else 1


def _cmd_keygen(args: argparse.Namespace) -> int:
    from repro.crypto.boneh_franklin import dealer_shared_rsa, generate_shared_rsa
    from repro.crypto.joint_signature import joint_sign

    start = time.perf_counter()
    if args.dealerless:
        result = generate_shared_rsa(args.n, bits=args.bits)
    else:
        result = dealer_shared_rsa(args.n, bits=args.bits)
    elapsed = time.perf_counter() - start
    print(
        f"{'dealerless' if args.dealerless else 'dealer'} shared RSA key: "
        f"N={result.public_key.bits} bits, {args.n} shares, "
        f"{result.candidate_rounds} candidate rounds, {elapsed:.2f}s"
    )
    start = time.perf_counter()
    signature = joint_sign(b"cli probe", result.shares, result.public_key)
    sign_elapsed = time.perf_counter() - start
    ok = result.public_key.verify(b"cli probe", signature)
    print(f"joint signature: {sign_elapsed*1000:.2f} ms, verifies={ok}")
    if sign_elapsed > 0:
        print(f"keygen/sign ratio: {elapsed / sign_elapsed:.0f}x")
    return 0


def _cmd_liability(args: argparse.Namespace) -> int:
    from repro.analysis.compromise import sweep_coalition_size

    results = sweep_coalition_size(args.domains, trials=args.trials)
    print(f"{'n':>3} {'CaseI':>10} {'CaseII':>12} {'ratio':>12}")
    for r in results:
        ratio = min(r.liability_ratio, 1e15)
        print(
            f"{r.model.n_domains:>3} {r.case1_analytic:>10.4f} "
            f"{r.case2_analytic:>12.2e} {ratio:>12.0f}"
        )
    return 0


def _cmd_availability(args: argparse.Namespace) -> int:
    from repro.analysis.availability import (
        m_of_n_availability,
        n_of_n_availability,
    )

    print(f"{'q':>6} {f'{args.n}-of-{args.n}':>10} {f'{args.m}-of-{args.n}':>10}")
    for q in (0.99, 0.95, 0.9, 0.8, 0.6):
        print(
            f"{q:>6} {n_of_n_availability(args.n, q):>10.4f} "
            f"{m_of_n_availability(args.n, args.m, q):>10.4f}"
        )
    return 0


def _cmd_dynamics(args: argparse.Namespace) -> int:
    from repro.coalition import Coalition, Domain
    from repro.pki import ValidityPeriod

    print(f"{'certs':>6} {'revoked':>8} {'reissued':>9} {'total ops':>10}")
    for n_certs in args.certs:
        domains = [Domain(f"D{i}-{n_certs}", key_bits=256) for i in (1, 2, 3)]
        users = [
            d.register_user(f"u{i}", now=0)
            for i, d in enumerate(domains, start=1)
        ]
        coalition = Coalition(f"cli-dyn-{n_certs}", key_bits=256)
        coalition.form(domains)
        for k in range(n_certs):
            coalition.authority.issue_threshold_certificate(
                users, 2, f"G{k}", 0, ValidityPeriod(0, 10**6)
            )
        report = coalition.join(Domain(f"DX-{n_certs}", key_bits=256), now=1)
        print(
            f"{n_certs:>6} {report.certificates_revoked:>8} "
            f"{report.certificates_reissued:>9} {report.total_operations():>10}"
        )
    return 0


def _run_sample(fixture, requests: int, seed: int) -> list:
    """Submit the fixture's request stream; wait until every ticket resolves."""
    service = fixture.service
    tickets = [
        service.submit(request, now)
        for now, request in fixture.stream(requests, seed=seed)
    ]
    if not service.drain(timeout=60.0):
        raise RuntimeError("traffic sample did not drain; service wedged?")
    return tickets


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio network edge in front of a demo coalition.

    Attaches the fixture coalition (3 domains, read/write threshold
    certificates, ``--objects`` registered objects), starts the edge on
    ``--host``/``--port`` and serves until SIGTERM/SIGINT, then drains
    gracefully: stop accepting, flush in-flight tickets, close the
    service.  ``--client-bundle`` exports the signing material a
    separate-process client (``edge-smoke``) needs to produce requests
    this server will grant; ``--port-file`` writes the bound port for
    scripts that passed ``--port 0``.
    """
    import signal
    import threading

    from repro.service import AuthorizationService
    from repro.service.edge import serve_in_thread
    from repro.service.fixture import attach_coalition
    from repro.service.wire import ClientBundle

    fixture = attach_coalition(
        AuthorizationService(
            queue_depth=args.queue_depth, freshness_window=10**9
        ),
        num_objects=args.objects,
        key_bits=args.bits,
    )
    stop = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 - signal handler shape
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        handle = serve_in_thread(
            fixture.service, host=args.host, port=args.port
        )
        if args.client_bundle:
            ClientBundle(
                users=fixture.users,
                read_cert=fixture.read_cert,
                write_cert=fixture.write_cert,
                object_names=fixture.object_names,
            ).save(args.client_bundle)
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle_file:
                handle_file.write(str(handle.port))
        print(
            f"edge listening on {handle.host}:{handle.port}", flush=True
        )
        stop.wait()
        print("draining edge…", flush=True)
        handle.shutdown()
        stats = handle.stats()
        print(
            f"drained: connections={stats['connections_total']} "
            f"responses={stats['responses_out']} batches={stats['batches']}",
            flush=True,
        )
        return 0
    finally:
        fixture.service.close()


def _cmd_edge_smoke(args: argparse.Namespace) -> int:
    """Drive a running ``serve`` edge from a separate process.

    Loads the ``--bundle`` the server exported, checks healthz/readyz,
    then sends ``--requests`` signed authorize frames closed-loop and
    verifies every response is a typed decision frame.  Exit 0 iff the
    probes are green and every request got a granted decision.
    """
    from repro.coalition import build_joint_request
    from repro.service.wire import ClientBundle, EdgeClient

    bundle = ClientBundle.load(args.bundle)
    with EdgeClient(args.host, args.port, timeout=args.timeout) as client:
        health = client.healthz()
        ready = client.readyz()
        print(
            f"healthz={health['status']} readyz={ready['status']} "
            f"queue={health['report']['queue_depth']}/"
            f"{health['report']['queue_limit']}",
            flush=True,
        )
        if health["status"] != 200 or ready["status"] != 200:
            return 1
        granted = other = 0
        for i in range(args.requests):
            obj = bundle.object_names[i % len(bundle.object_names)]
            if i % 2 == 0:
                request = build_joint_request(
                    bundle.users[0], [], "read", obj,
                    bundle.read_cert, now=i + 1, nonce=f"smoke-r-{i}",
                )
            else:
                request = build_joint_request(
                    bundle.users[0], [bundle.users[1]], "write", obj,
                    bundle.write_cert, now=i + 1, nonce=f"smoke-w-{i}",
                )
            response = client.authorize(request, now=i + 1, req_id=i)
            if (
                response.get("kind") == "decision"
                and response["decision"]["granted"]
            ):
                granted += 1
            else:
                other += 1
    print(f"smoke: {granted} granted, {other} other", flush=True)
    return 0 if granted == args.requests else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    """Replay one joint request with tracing on and render the trace.

    Shows the full decision path — admission, queue wait, epoch pin,
    derivation (with the axiom names that fired), audit append — plus
    the proof tree, and verifies the audit chain that recorded it.
    """
    import json

    from repro.coalition import AuditLog, build_joint_request
    from repro.core.proofs import render_proof
    from repro.obs.trace import render_span
    from repro.service import AuthorizationService
    from repro.service.fixture import attach_coalition

    service = AuthorizationService(
        mode="manual",
        tracing=True,
        audit_log=AuditLog(key_bits=args.bits),
    )
    try:
        fixture = attach_coalition(service, num_objects=1, key_bits=args.bits)
        users = fixture.users
        request = build_joint_request(
            users[0], [users[1]], "write", "Obj0", fixture.write_cert, now=2
        )
        ticket = service.submit(request, now=3)
        service.pump()
        decision = ticket.result()
        trace = service.tracer.find_trace(ticket.trace_id)
        assert trace is not None
        if args.json:
            print(json.dumps(trace.to_dict(), indent=2, sort_keys=True))
            return 0 if decision.granted else 1
        print(f"decision: {'GRANTED' if decision.granted else 'DENIED'}")
        print(f"reason:   {decision.reason}")
        print(f"trace:    {ticket.trace_id}")
        print()
        print(render_span(trace))
        if decision.proof is not None:
            print()
            print("proof tree:")
            print(render_proof(decision.proof))
        audit = service.audit_log
        audit.verify(expected_length=len(audit))
        entry = audit.entries()[-1]
        print()
        print(
            f"audit: chain of {len(audit)} verified; entry "
            f"#{entry.sequence} carries trace_id={entry.trace_id}"
        )
        return 0 if decision.granted else 1
    finally:
        service.close()


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run a short traffic sample and print the merged metrics snapshot."""
    import json

    from repro.obs.metrics import validate_snapshot
    from repro.service import AuthorizationService
    from repro.service.fixture import attach_coalition

    service = AuthorizationService(
        freshness_window=10**9, tracing=args.tracing
    )
    try:
        fixture = attach_coalition(service, key_bits=args.bits)
        _run_sample(fixture, args.requests, args.seed)
        snapshot = service.metrics_snapshot()
        validate_snapshot(snapshot)
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    finally:
        service.close()


def _cmd_health(args: argparse.Namespace) -> int:
    """Run a traffic sample (optionally under chaos), print the probes.

    Exit code is the readiness verdict: 0 when the service is ready for
    new traffic, 1 otherwise — so the subcommand doubles as a scriptable
    health check.  ``--chaos-*`` flags inject deterministic faults to
    demonstrate degradation under faults (E16).
    """
    import json

    from repro.service import AuthorizationService, ChaosConfig, FaultInjector
    from repro.service.fixture import attach_coalition

    chaos = None
    if args.chaos_raise_every or args.kills:
        chaos = FaultInjector(
            ChaosConfig(
                raise_every=args.chaos_raise_every,
                kill_times=args.kills,
                kill_after=args.kill_after,
            )
        )
    service = AuthorizationService(
        queue_depth=args.queue_depth,
        freshness_window=10**9,
        chaos=chaos,
    )
    try:
        fixture = attach_coalition(service, key_bits=args.bits)
        tickets = _run_sample(fixture, args.requests, args.seed)
        stranded = sum(1 for ticket in tickets if not ticket.done())
        traffic = service.stats()["service"]
        probe = service.health()
        if args.json:
            print(json.dumps(probe, indent=2, sort_keys=True))
        else:
            print(
                f"health:  live={probe['live']} ready={probe['ready']} "
                f"breaker={probe['breaker']} crashes={probe['crashes']} "
                f"restarts={probe['restarts']} "
                f"queue={probe['queue_depth']}/{probe['queue_limit']} "
                f"staleness={probe['epoch_staleness']}"
            )
            print(
                f"traffic: evaluated={traffic['evaluated']} "
                f"errored={traffic['errored']} "
                f"overloaded={traffic['overloaded']} "
                f"stranded={stranded}"
            )
        return 0 if probe["ready"] else 1
    finally:
        service.close()


def _cmd_replay(args: argparse.Namespace) -> int:
    """Record a WAL-backed workload and/or replay one deterministically.

    ``--record`` drives a fresh manifest-described workload into
    ``--wal-dir`` (optionally tearing the tail afterwards with
    ``--truncate-tail`` to simulate a crash).  Without ``--record`` the
    directory must already hold a WAL; it is recovered (torn tail
    healed), the manifest stored in its META record regenerates the
    workload in a scratch service, and every recovered entry is
    compared byte-for-byte against its replayed twin.  Exit code 0 iff
    the chain verifies and every entry (and epoch record) matches.
    """
    import json
    import os

    from repro.storage.replay import ReplayManifest, replay_wal, run_scenario

    manifest = ReplayManifest(
        total_requests=args.requests,
        num_objects=args.objects,
        read_fraction=args.read_fraction,
        deny_fraction=args.deny_fraction,
        revoke_every=args.revoke_every,
        key_bits=args.bits,
        seed=args.seed,
    )
    if args.record:
        result = run_scenario(manifest, args.wal_dir)
        if not args.json:
            print(
                f"recorded {len(result.entries)} decisions "
                f"({result.granted} granted, {result.denied} denied, "
                f"{result.revocations_published} revocations) into "
                f"{args.wal_dir}"
            )
        if args.truncate_tail > 0:
            from repro.storage.wal import list_segments

            last = list_segments(args.wal_dir)[-1]
            size = os.path.getsize(last)
            cut = max(0, size - args.truncate_tail)
            with open(last, "ab") as handle:
                handle.truncate(cut)
            if not args.json:
                print(
                    f"tore the tail: truncated {os.path.basename(last)} "
                    f"from {size} to {cut} bytes"
                )

    report = replay_wal(args.wal_dir)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"recovered {report.recovered_entries} entries "
            f"(+{report.recovered_epoch_records} epoch records), "
            f"chain verified: {report.chain_verified}"
        )
        if report.torn:
            print(
                f"healed torn tail: {report.torn_reason} "
                f"({report.truncated_bytes} bytes dropped, "
                f"{report.quarantined_segments} segment(s) quarantined)"
            )
        print(
            f"replayed {report.replayed_entries} decisions; byte parity: "
            f"{'OK' if report.entries_matched else f'MISMATCH at entry {report.mismatch_index}'}"
            f", epoch records: "
            f"{'OK' if report.epoch_records_matched else 'MISMATCH'}"
        )
    return 0 if report.ok else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    """List or run named coalition-life scenarios (DESIGN.md §15).

    Each scenario replays a seeded program of membership churn,
    traffic mixes, adversaries and chaos against a live service and
    asserts its standing invariants at every checkpoint.  Exit 0 iff
    every requested scenario upholds every invariant — so the
    subcommand doubles as a CI gate.
    """
    import json

    from repro.service.scenarios import SCENARIOS, ScenarioRunner

    if args.list:
        print(f"{'scenario':>22} {'invariants':>3}  description")
        for name in sorted(SCENARIOS):
            spec = SCENARIOS[name]
            print(f"{name:>22} {len(spec.invariants):>3}  {spec.description}")
        return 0

    names = args.names or sorted(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        known = ", ".join(sorted(SCENARIOS))
        print(f"unknown scenario(s): {', '.join(unknown)} (known: {known})")
        return 2

    try:
        runner = ScenarioRunner(
            mode=args.mode,
            transport=args.transport,
            seed=args.seed,
            key_bits=args.bits,
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    reports = []
    for name in names:
        spec = SCENARIOS[name]
        if args.transport == "edge" and not spec.edge_ok:
            print(f"{name}: skipped (not edge-capable)")
            continue
        reports.append(runner.run(spec))

    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=2))
        return 0 if all(r.ok for r in reports) else 1

    print(
        f"{'scenario':>22} {'ok':>5} {'reqs':>5} {'grant':>6} {'deny':>5} "
        f"{'shed':>5} {'err':>4} {'rekeys':>6} {'p50ms':>7} {'p99ms':>7}"
    )
    for r in reports:
        print(
            f"{r.name:>22} {str(r.ok):>5} {r.requests:>5} {r.granted:>6} "
            f"{r.denied:>5} {r.overloaded:>5} {r.errored:>4} {r.rekeys:>6} "
            f"{r.p50_ms:>7.2f} {r.p99_ms:>7.2f}"
        )
        for violation in r.violations():
            print(
                f"    VIOLATION [{violation['invariant']}] at "
                f"{violation['at']}: {violation['detail']}"
            )
    ok = all(r.ok for r in reports)
    print(f"{len(reports)} scenario(s), all invariants {'OK' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Coalition joint-administration reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the Figure 1/2 scenario")
    demo.add_argument("--bits", type=int, default=256)
    demo.add_argument("--proof", action="store_true", help="print the proof tree")
    demo.set_defaults(func=_cmd_demo)

    keygen = sub.add_parser("keygen", help="shared RSA key generation")
    keygen.add_argument("-n", type=int, default=3, help="number of domains")
    keygen.add_argument("--bits", type=int, default=256)
    keygen.add_argument(
        "--dealerless", action="store_true",
        help="run the real Boneh-Franklin protocol (slow)",
    )
    keygen.set_defaults(func=_cmd_keygen)

    liability = sub.add_parser("liability", help="E8 trust-liability sweep")
    liability.add_argument("--domains", type=int, nargs="+", default=[2, 3, 5, 8])
    liability.add_argument("--trials", type=int, default=5000)
    liability.set_defaults(func=_cmd_liability)

    availability = sub.add_parser("availability", help="E10 m-of-n availability")
    availability.add_argument("-n", type=int, default=5)
    availability.add_argument("-m", type=int, default=3)
    availability.set_defaults(func=_cmd_availability)

    dynamics = sub.add_parser("dynamics", help="E11 join-cost sweep")
    dynamics.add_argument("--certs", type=int, nargs="+", default=[1, 5, 15])
    dynamics.set_defaults(func=_cmd_dynamics)

    serve_cmd = sub.add_parser(
        "serve",
        help="run the asyncio network edge until SIGTERM (graceful drain)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=0, help="0 = pick a free port"
    )
    serve_cmd.add_argument("--queue-depth", type=int, default=256)
    serve_cmd.add_argument("--objects", type=int, default=8)
    serve_cmd.add_argument("--bits", type=int, default=256)
    serve_cmd.add_argument(
        "--client-bundle", default="", metavar="PATH",
        help="export client signing material (users, certs) as JSON",
    )
    serve_cmd.add_argument(
        "--port-file", default="", metavar="PATH",
        help="write the bound port here once listening",
    )
    serve_cmd.set_defaults(func=_cmd_serve)

    smoke = sub.add_parser(
        "edge-smoke",
        help="drive a running serve edge from a separate process",
    )
    smoke.add_argument("--host", default="127.0.0.1")
    smoke.add_argument("--port", type=int, required=True)
    smoke.add_argument(
        "--bundle", required=True,
        help="client bundle the serve process exported",
    )
    smoke.add_argument("--requests", type=int, default=20)
    smoke.add_argument("--timeout", type=float, default=30.0)
    smoke.set_defaults(func=_cmd_edge_smoke)

    explain = sub.add_parser(
        "explain",
        help="trace one decision end to end (spans + proof + audit)",
    )
    explain.add_argument("--bits", type=int, default=256)
    explain.add_argument(
        "--json", action="store_true", help="emit the span tree as JSON"
    )
    explain.set_defaults(func=_cmd_explain)

    metrics = sub.add_parser(
        "metrics",
        help="run a traffic sample, print the merged metrics snapshot",
    )
    metrics.add_argument("--requests", type=int, default=50)
    metrics.add_argument("--bits", type=int, default=256)
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument(
        "--tracing", action="store_true",
        help="enable decision tracing during the sample",
    )
    metrics.set_defaults(func=_cmd_metrics)

    health = sub.add_parser(
        "health",
        help="liveness/readiness probes after a (chaos-optional) sample",
    )
    health.add_argument("--requests", type=int, default=50)
    health.add_argument("--queue-depth", type=int, default=256)
    health.add_argument("--bits", type=int, default=256)
    health.add_argument("--seed", type=int, default=0)
    health.add_argument(
        "--chaos-raise-every", type=int, default=0, metavar="N",
        help="inject an evaluation fault every N tickets (0 = off)",
    )
    health.add_argument(
        "--kills", type=int, default=0, metavar="N",
        help="kill the decider N times, mid-run (0 = off)",
    )
    health.add_argument(
        "--kill-after", type=int, default=10, metavar="K",
        help="a kill fires once the decider decided K tickets",
    )
    health.add_argument("--json", action="store_true")
    health.set_defaults(func=_cmd_health)

    replay = sub.add_parser(
        "replay",
        help="recover a decision WAL and re-derive it byte-for-byte",
    )
    replay.add_argument(
        "--wal-dir", required=True, help="WAL directory to recover/replay"
    )
    replay.add_argument(
        "--record", action="store_true",
        help="first record a fresh workload into --wal-dir",
    )
    replay.add_argument("--requests", type=int, default=200)
    replay.add_argument("--objects", type=int, default=4)
    replay.add_argument("--read-fraction", type=float, default=0.4)
    replay.add_argument(
        "--deny-fraction", type=float, default=0.2,
        help="fraction of writes presented with the read cert (denied)",
    )
    replay.add_argument(
        "--revoke-every", type=int, default=0,
        help="publish a revocation epoch every k arrivals (0 = off)",
    )
    replay.add_argument("--bits", type=int, default=128)
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument(
        "--truncate-tail", type=int, default=0, metavar="BYTES",
        help="after recording, tear BYTES off the last segment (crash sim)",
    )
    replay.add_argument("--json", action="store_true")
    replay.set_defaults(func=_cmd_replay)

    scenario = sub.add_parser(
        "scenario",
        help="run seeded coalition-life scenarios with standing invariants",
    )
    scenario.add_argument(
        "names", nargs="*",
        help="scenario names to run (default: all registered)",
    )
    scenario.add_argument(
        "--list", action="store_true", help="list registered scenarios"
    )
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument(
        "--mode", choices=["threaded", "manual"],
        default="manual",
        help="service mode (manual replays deterministically)",
    )
    scenario.add_argument(
        "--transport", choices=["inproc", "edge"], default="inproc",
        help="edge = drive request traffic over a real TCP connection",
    )
    scenario.add_argument("--bits", type=int, default=256)
    scenario.add_argument("--json", action="store_true")
    scenario.set_defaults(func=_cmd_scenario)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
