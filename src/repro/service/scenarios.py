"""Seedable scenario engine: coalition life at scale, under chaos.

The paper's central claim is that joint administration survives
*dynamics* — domains joining and leaving, mass revocation and re-issue,
m-of-n request mixes — and this module turns that claim into named,
replayable, self-checking scenarios.  A scenario is a seeded program of
events (traffic, membership changes, revocations, replays, bursts,
checkpoints) executed against a live
:class:`~repro.service.service.AuthorizationService`; every scenario
declares **standing invariants** that are asserted at each checkpoint
and again at completion:

* ``accounting`` — ``evaluated + errored + overloaded == submitted``;
  no submission is ever silently dropped.
* ``no-stale-grant`` — once a certificate serial crosses a revocation
  barrier (an explicit revocation epoch or a re-key's mass revocation),
  no request admitted after the barrier is granted under that serial.
* ``replay-denied`` — a replayed request whose original was granted is
  denied, across objects and across decider restarts.
* ``expectations`` — per-event expected outcomes (``granted`` /
  ``denied``) hold.
* ``oracle-parity`` — where the scenario is oracle-feasible (no sheds,
  no chaos), every decision document is byte-identical to a sequential
  :class:`~repro.coalition.server.CoalitionServer` fed the same stream.
* ``typed-sheds`` — overload resolves as typed shed decisions, and at
  least ``min_sheds`` of them occur (flash crowds).
* ``chaos-survival`` — the configured faults actually fired (decider
  kill, injected faults) and the service kept granting afterwards.

Runs are deterministic under a fixed seed: the same seed produces the
same **event trace digest** (canonical bytes of every event executed)
and — in manual mode — the same **decision stream digest**
(canonical decision documents in submission order).

The **dynamics → service bridge** (:class:`DynamicsBridge`) is how
``Coalition.join/leave/refresh`` drives the epoch machinery:
``Coalition`` only knows how to push revocations and trust anchors at
attached servers one call at a time, which against a service would
publish one epoch per revoked certificate.  The bridge detaches the
service, interposes a collector that records the revocations and trust
reconfigurations a re-key produces, and republishes them as **one**
atomic epoch via :meth:`EpochManager.publish_mutation` — revocations
first (while the outgoing authority's revocation key is still
trusted), then the new trust anchors.  A mass revocation + re-issue is
thereby a single revocation barrier, exactly the epoch semantics the
rest of the service reasons about.
"""

from __future__ import annotations

import hashlib
import random
import re
import time
from dataclasses import dataclass, field
from math import ceil
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..coalition.acl import ACLEntry
from ..coalition.dynamics import Coalition
from ..coalition.domain import Domain
from ..coalition.requests import JointAccessRequest, build_joint_request
from ..coalition.server import CoalitionServer
from ..pki.certificates import ValidityPeriod
from ..pki.serialization import canonical_bytes
from .admission import Ticket
from .chaos import ChaosConfig, FaultInjector
from .service import AuthorizationService
from .wire import decision_to_dict, decision_wire_bytes

__all__ = [
    "DynamicsBridge",
    "ScenarioSpec",
    "ScenarioReport",
    "ScenarioRunner",
    "SCENARIOS",
    "list_scenarios",
    "run_scenario",
    # events (exported for custom scenarios)
    "Traffic",
    "Burst",
    "Replay",
    "Join",
    "Leave",
    "Refresh",
    "IssueCert",
    "RevokeCert",
    "SnapshotCert",
    "Checkpoint",
    # sampling helpers
    "percentile",
    "zipf_index",
]


# ---------------------------------------------------------------- sampling


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty).

    Deterministic nearest-rank definition: the smallest value with at
    least ``ceil(q * n)`` observations at or below it.  The previous
    implementation used Python's ``round()``, whose banker's rounding
    ties-to-even made adjacent sample counts report *different* ranks
    for the same quantile (e.g. p50 of 4 vs 6 samples) — a bias that
    showed up as benchmark noise.  ``ceil`` never rounds down past the
    requested mass and has no tie cases.

    ``q`` is a fraction in [0, 1].  A ``q > 1`` — almost always a
    caller passing ``95`` where ``0.95`` was meant — used to be
    silently clamped to the max by the ``min(len, ceil(q*n))`` rank
    clamp, reporting a tail that looked plausible and was wrong; it is
    now a :class:`ValueError`.
    """
    if q > 1:
        raise ValueError(
            f"percentile fraction must be in [0, 1], got {q} "
            "(did you pass a percent instead of a fraction?)"
        )
    if not sorted_values:
        return 0.0
    if q <= 0:
        return sorted_values[0]
    rank = min(len(sorted_values), ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def zipf_index(rng: random.Random, n: int, s: float) -> int:
    """Draw a rank in ``[0, n)`` from a zipf(s) distribution.

    Rank 0 is the hottest key; weights are ``1 / (rank + 1) ** s``.
    Inverse-CDF sampling over the normalized weights, one ``rng``
    draw per call, so streams are deterministic under a fixed seed.
    """
    if n < 1:
        raise ValueError("zipf_index needs at least one item")
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    total = sum(weights)
    u = rng.random() * total
    acc = 0.0
    for rank, weight in enumerate(weights):
        acc += weight
        if u < acc:
            return rank
    return n - 1


# ------------------------------------------------------------------ events


@dataclass(frozen=True)
class Traffic:
    """One signed joint request: who signs what, with which certificate.

    ``signers`` index the coalition's core users; ``cert_ref`` names an
    entry in the scenario's certificate registry (rebound to the
    re-issued certificate after each re-key).  ``expect`` pins the
    outcome ("granted"/"denied") for the ``expectations`` invariant;
    ``sign_skew`` back-dates the signed parts (stale-request attacks).
    """

    op: str
    obj: str
    signers: Tuple[int, ...]
    cert_ref: str
    tid: int
    coalition: int = 0
    expect: Optional[str] = None
    sign_skew: int = 0

    kind = "traffic"


@dataclass(frozen=True)
class Burst:
    """Submit many requests in one ``submit_batch`` (flash crowd)."""

    items: Tuple[Traffic, ...]

    kind = "burst"


@dataclass(frozen=True)
class Replay:
    """Re-submit a previously sent request verbatim (same nonce/sigs)."""

    of_tid: int

    kind = "replay"


@dataclass(frozen=True)
class Join:
    domain: str
    coalition: int = 0

    kind = "join"


@dataclass(frozen=True)
class Leave:
    domain: str
    coalition: int = 0

    kind = "leave"


@dataclass(frozen=True)
class Refresh:
    coalition: int = 0

    kind = "refresh"


@dataclass(frozen=True)
class IssueCert:
    """Issue a fresh threshold certificate and bind it to ``ref``."""

    ref: str
    group: str
    threshold: int
    signers: Tuple[int, ...]
    coalition: int = 0

    kind = "issue-cert"


@dataclass(frozen=True)
class RevokeCert:
    """Revoke the certificate currently bound to ``ref`` (a barrier)."""

    ref: str
    coalition: int = 0

    kind = "revoke-cert"


@dataclass(frozen=True)
class SnapshotCert:
    """Copy the current binding of ``src`` to ``dst``.

    The snapshot keeps pointing at the *old* certificate across later
    re-keys and revocations — the stale-certificate adversary's tool.
    """

    src: str
    dst: str

    kind = "snapshot-cert"


@dataclass(frozen=True)
class Checkpoint:
    """Drain the service and assert every standing invariant now."""

    kind = "checkpoint"


# --------------------------------------------- dynamics -> service bridge


class _RekeyCollector:
    """Duck-types the server surface ``Coalition._rekey`` pushes at.

    Records the revocations and ``trust_*`` reconfigurations of one
    membership event instead of applying them, so the bridge can replay
    them into a single epoch publication.  ``protocol`` is ``self``:
    ``Coalition._configure_server`` calls ``server.protocol.trust_*``.
    """

    def __init__(self) -> None:
        self.revocations: List[tuple] = []
        self.trust_calls: List[tuple] = []

    @property
    def protocol(self) -> "_RekeyCollector":
        return self

    def receive_revocation(self, revocation, now: int) -> None:
        self.revocations.append((revocation, now))

    def trust_coalition_aa(self, *args, **kwargs) -> None:
        self.trust_calls.append(("trust_coalition_aa", args, kwargs))

    def trust_revocation_authority(self, *args, **kwargs) -> None:
        self.trust_calls.append(("trust_revocation_authority", args, kwargs))

    def trust_domain_ca(self, *args, **kwargs) -> None:
        self.trust_calls.append(("trust_domain_ca", args, kwargs))


class DynamicsBridge:
    """Drives ``Coalition`` dynamics into a service as atomic epochs.

    ``Coalition.attach_server`` pushes each re-key revocation at the
    server one ``receive_revocation`` call at a time — against an
    :class:`AuthorizationService` that is one epoch *per revoked
    certificate*, plus three more for the trust re-configuration.  The
    bridge detaches the service from the coalition's fan-out list and
    replays each membership event's whole effect as **one**
    ``publish_mutation`` epoch: revocations are applied first, while
    the fork still trusts the outgoing authority's revocation key, then
    the new trust anchors replace the old.  In-flight requests pinned
    to the previous epoch are untouched; everything admitted after the
    swap observes the complete re-key — a true revocation barrier.
    """

    def __init__(self, coalition: Coalition, service: AuthorizationService):
        self.coalition = coalition
        self.service = service
        if service in coalition.servers:
            coalition.servers.remove(service)
        self.rekeys = 0

    def _collected(self, event_fn: Callable[[], object], now: int):
        collector = _RekeyCollector()
        self.coalition.servers.append(collector)
        try:
            report = event_fn()
        finally:
            self.coalition.servers.remove(collector)
        serials = [rev.revoked_serial for rev, _ in collector.revocations]
        if collector.revocations or collector.trust_calls:

            def apply(protocol) -> None:
                # Order matters: the revocations were issued by the
                # *outgoing* authority, so they must be admitted while
                # its revocation key is still the trusted one; only
                # then do the new anchors replace it.
                for revocation, rev_now in collector.revocations:
                    protocol.apply_revocation(revocation, rev_now)
                for method, args, kwargs in collector.trust_calls:
                    getattr(protocol, method)(*args, **kwargs)

            epoch = self.service.epochs.publish_mutation(
                apply, is_revocation=bool(collector.revocations)
            )
            self.service._record_epoch(
                "rekey",
                epoch,
                detail=f"{len(serials)} revoked",
                timestamp=now,
            )
            self.rekeys += 1
        return report, serials

    def join(self, domain: Domain, now: int):
        return self._collected(lambda: self.coalition.join(domain, now), now)

    def leave(self, domain: Domain, now: int):
        return self._collected(lambda: self.coalition.leave(domain, now), now)

    def refresh(self, now: int):
        return self._collected(lambda: self.coalition.refresh(now), now)


# ------------------------------------------------------------------- spec


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, replayable scenario: builder + standing invariants."""

    name: str
    description: str
    build: Callable[[random.Random], List[object]]
    invariants: Tuple[str, ...]
    oracle_feasible: bool = True
    chaos: Optional[ChaosConfig] = None
    script: Optional[Callable[[FaultInjector, AuthorizationService], None]] = None
    num_coalitions: int = 1
    # (object name, owning coalition) pairs; None = Obj0..Obj7 on c0.
    objects: Optional[Tuple[Tuple[str, int], ...]] = None
    queue_depth: int = 256
    freshness_window: int = 10**6
    min_sheds: int = 0
    edge_ok: bool = True


SCENARIOS: Dict[str, ScenarioSpec] = {}


def _scenario(spec: ScenarioSpec) -> ScenarioSpec:
    if spec.name in SCENARIOS:
        raise ValueError(f"duplicate scenario {spec.name!r}")
    SCENARIOS[spec.name] = spec
    return spec


def list_scenarios() -> List[ScenarioSpec]:
    return [SCENARIOS[name] for name in sorted(SCENARIOS)]


# ----------------------------------------------------------------- report


@dataclass
class ScenarioReport:
    """Machine-readable outcome of one scenario run."""

    name: str
    seed: int
    mode: str
    transport: str
    steps: int = 0
    requests: int = 0
    submitted: int = 0
    evaluated: int = 0
    granted: int = 0
    denied: int = 0
    overloaded: int = 0
    errored: int = 0
    rekeys: int = 0
    revocations: int = 0
    epochs_published: int = 0
    faults_injected: int = 0
    kills: int = 0
    restarts: int = 0
    actions_fired: int = 0
    replays_sent: int = 0
    replays_denied: int = 0
    wall_s: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    max_ms: float = 0.0
    event_trace_digest: str = ""
    decision_digest: str = ""
    invariants: List[dict] = field(default_factory=list)
    ok: bool = True

    def as_dict(self) -> Dict[str, object]:
        from dataclasses import asdict

        return asdict(self)

    def violations(self) -> List[dict]:
        return [inv for inv in self.invariants if not inv["ok"]]


@dataclass
class _TrafficRecord:
    """Bookkeeping for one submitted request (or replay)."""

    step: int
    tid: int
    request: JointAccessRequest
    now: int
    cert_serial: str
    expect: Optional[str]
    is_replay: bool = False
    replay_of: int = -1
    ticket: Optional[Ticket] = None
    response_doc: Optional[dict] = None
    latency_s: Optional[float] = None
    oracle_bytes: Optional[bytes] = None  # sequential oracle's decision
    doc: Optional[dict] = None  # resolved decision document


# RSA key generation is deliberately unseeded, and a handful of deny
# reasons quote key *fingerprints* (e.g. "names issuer key 886946...,
# expected 9d2c96..." when a stale pre-re-key certificate is presented
# against the successor authority).  Those fingerprints are the only
# run-local content in a decision document — serials are counter-based,
# timestamps are logical — so the decision-stream digest normalizes
# them away.  Oracle parity is unaffected: the oracle shares the run's
# keys, so that comparison stays an exact byte compare.
_KEY_FINGERPRINT = re.compile(r"\b[0-9a-f]{16}\b")


def _normalize_doc(doc: dict) -> dict:
    reason = doc.get("reason")
    if not isinstance(reason, str) or not _KEY_FINGERPRINT.search(reason):
        return doc
    return {**doc, "reason": _KEY_FINGERPRINT.sub("<key>", reason)}


# ----------------------------------------------------------------- runner


class ScenarioRunner:
    """Executes one scenario in-proc or over the edge socket.

    ``mode`` is any service mode; ``manual`` pumps tickets in global
    sequence order, which makes even chaos scenarios replay exactly.
    ``transport="edge"`` routes request traffic through a real TCP
    connection via :class:`~repro.service.wire.EdgeClient` (operator
    events — membership, revocation — stay in-process, as they would in
    a deployment's control plane); it requires threaded mode (in manual
    mode nothing would decide the edge's tickets).
    """

    def __init__(
        self,
        mode: str = "threaded",
        transport: str = "inproc",
        seed: int = 0,
        key_bits: int = 256,
    ):
        if transport not in ("inproc", "edge"):
            raise ValueError(f"unknown transport {transport!r}")
        if transport == "edge" and mode != "threaded":
            raise ValueError("edge transport requires a worker mode: threaded")
        self.mode = mode
        self.transport = transport
        self.seed = seed
        self.key_bits = key_bits

    # ------------------------------------------------------------ fixture

    def _group(self, cidx: int, role: str) -> str:
        return f"G_{role}" if cidx == 0 else f"G{cidx}_{role}"

    def _build_fixture(self, spec: ScenarioSpec):
        coalitions: List[Coalition] = []
        users: List[List[object]] = []
        for c in range(spec.num_coalitions):
            domains = [
                Domain(f"{spec.name}-c{c}D{i}", key_bits=self.key_bits)
                for i in (1, 2, 3)
            ]
            members = [
                d.register_user(f"c{c}U{i}", now=0)
                for i, d in enumerate(domains, start=1)
            ]
            coalition = Coalition(f"{spec.name}-c{c}", key_bits=self.key_bits)
            coalition.form(domains)
            coalitions.append(coalition)
            users.append(members)
        chaos = FaultInjector(spec.chaos) if spec.chaos is not None else None
        service = AuthorizationService(
            name="ScenarioP",
            queue_depth=spec.queue_depth,
            freshness_window=spec.freshness_window,
            mode=self.mode,
            chaos=chaos,
        )
        oracle: Optional[CoalitionServer] = None
        if spec.oracle_feasible:
            oracle = CoalitionServer(
                "ScenarioOracle", freshness_window=spec.freshness_window
            )
        objects = spec.objects or tuple(
            (f"Obj{i}", 0) for i in range(8)
        )
        for coalition in coalitions:
            coalition.attach_server(service)
            if oracle is not None:
                coalition.attach_server(oracle)
        for obj_name, cidx in objects:
            entries = [
                ACLEntry.of(self._group(cidx, "read"), ["read"]),
                ACLEntry.of(self._group(cidx, "write"), ["write"]),
            ]
            service.register_object(
                obj_name, entries, admin_group=self._group(cidx, "admin")
            )
            if oracle is not None:
                oracle.create_object(
                    obj_name, b"scenario", entries,
                    admin_group=self._group(cidx, "admin"),
                )
        bridges = [DynamicsBridge(c, service) for c in coalitions]
        validity = ValidityPeriod(0, spec.freshness_window)
        certs: Dict[str, object] = {}
        cert_defs: Dict[str, tuple] = {}
        for c, coalition in enumerate(coalitions):
            prefix = "" if c == 0 else f"c{c}-"
            for ref, role, threshold in (
                (f"{prefix}read", "read", 1),
                (f"{prefix}write", "write", 2),
            ):
                group = self._group(c, role)
                certs[ref] = coalition.authority.issue_threshold_certificate(
                    users[c], threshold, group, 0, validity
                )
                cert_defs[ref] = (c, group, threshold, (0, 1, 2))
        return {
            "coalitions": coalitions,
            "users": users,
            "service": service,
            "oracle": oracle,
            "bridges": bridges,
            "chaos": chaos,
            "certs": certs,
            "cert_defs": cert_defs,
            "validity": validity,
            "churn_domains": {},
        }

    # ---------------------------------------------------------------- run

    def run(self, spec: ScenarioSpec) -> ScenarioReport:
        if self.transport == "edge" and not spec.edge_ok:
            raise ValueError(
                f"scenario {spec.name!r} does not support the edge transport"
            )
        rng = random.Random(f"{spec.name}:{self.seed}")
        events = spec.build(rng)
        fx = self._build_fixture(spec)
        service: AuthorizationService = fx["service"]
        if spec.script is not None:
            if fx["chaos"] is None:
                raise ValueError("scenario script requires a chaos config")
            spec.script(fx["chaos"], service)
        report = ScenarioReport(
            name=spec.name,
            seed=self.seed,
            mode=self.mode,
            transport=self.transport,
        )
        handle = client = None
        if self.transport == "edge":
            from .edge import serve_in_thread
            from .wire import EdgeClient

            handle = serve_in_thread(service)
            client = EdgeClient("127.0.0.1", handle.port)
        state = {
            "records": [],  # List[_TrafficRecord], submission order
            "by_tid": {},
            "barriers": {},  # cert serial -> barrier step
            "trace_docs": [],
            "violations": [],
            "revocations": 0,
        }
        start = time.perf_counter()
        try:
            for step, event in enumerate(events):
                self._execute(spec, fx, state, step, event, client)
            self._drain(service)
            self._realize_decisions(state)
            self._check_invariants(spec, fx, state, len(events), final=True)
        finally:
            if client is not None:
                client.close()
            if handle is not None:
                handle.shutdown()
            service.close()
        report.wall_s = time.perf_counter() - start
        self._summarize(spec, fx, state, events, report)
        return report

    # ---------------------------------------------------------- execution

    def _execute(self, spec, fx, state, step: int, event, client) -> None:
        now = step + 1
        doc: Dict[str, object] = {"step": step, "kind": event.kind}
        if event.kind == "traffic":
            doc.update(self._run_traffic(spec, fx, state, step, event, client))
        elif event.kind == "burst":
            doc["items"] = self._run_burst(spec, fx, state, step, event, client)
        elif event.kind == "replay":
            doc.update(self._run_replay(spec, fx, state, step, event, client))
        elif event.kind in ("join", "leave", "refresh"):
            doc.update(self._run_membership(fx, state, step, event))
        elif event.kind == "issue-cert":
            cidx = event.coalition
            cert = fx["coalitions"][cidx].authority.issue_threshold_certificate(
                [fx["users"][cidx][i] for i in event.signers],
                event.threshold,
                event.group,
                now,
                fx["validity"],
            )
            fx["certs"][event.ref] = cert
            fx["cert_defs"][event.ref] = (
                cidx, event.group, event.threshold, tuple(event.signers),
            )
            doc.update(ref=event.ref, serial=cert.serial)
        elif event.kind == "revoke-cert":
            cert = fx["certs"][event.ref]
            revocation = fx["coalitions"][
                event.coalition
            ].authority.revoke_certificate(cert, now=now)
            fx["service"].publish_revocation(revocation, now=now)
            oracle = fx["oracle"]
            if oracle is not None:
                oracle.receive_revocation(revocation, now=now)
            state["barriers"][cert.serial] = step
            state["revocations"] += 1
            doc.update(ref=event.ref, serial=cert.serial)
        elif event.kind == "snapshot-cert":
            fx["certs"][event.dst] = fx["certs"][event.src]
            doc.update(
                src=event.src, dst=event.dst,
                serial=fx["certs"][event.src].serial,
            )
        elif event.kind == "checkpoint":
            self._drain(fx["service"])
            self._realize_decisions(state)
            self._check_invariants(spec, fx, state, step, final=False)
        else:  # pragma: no cover - spec authoring error
            raise ValueError(f"unknown event kind {event.kind!r}")
        state["trace_docs"].append(doc)

    def _sign(self, fx, event: Traffic, now: int) -> JointAccessRequest:
        members = fx["users"][event.coalition]
        signers = [members[i] for i in event.signers]
        return build_joint_request(
            signers[0],
            signers[1:],
            event.op,
            event.obj,
            fx["certs"][event.cert_ref],
            now=now + event.sign_skew,
            nonce=f"sc-{event.tid}",
        )

    def _submit(self, fx, state, step, request, now, client, record) -> None:
        oracle = fx["oracle"]
        if oracle is not None:
            outcome = oracle.handle_request(request, now=now, write_content=b"w")
            record.oracle_bytes = decision_wire_bytes(
                decision_to_dict(outcome.decision)
            )
        else:
            record.oracle_bytes = None
        if client is not None:
            t0 = time.perf_counter()
            response = client.authorize(request, now=now, req_id=record.tid)
            record.latency_s = time.perf_counter() - t0
            record.response_doc = response.get("decision")
        else:
            record.ticket = fx["service"].submit(request, now)
        state["records"].append(record)
        state["by_tid"][record.tid] = record

    def _run_traffic(self, spec, fx, state, step, event, client) -> dict:
        now = step + 1
        request = self._sign(fx, event, now)
        record = _TrafficRecord(
            step=step,
            tid=event.tid,
            request=request,
            now=now,
            cert_serial=fx["certs"][event.cert_ref].serial,
            expect=event.expect,
        )
        self._submit(fx, state, step, request, now, client, record)
        return {
            "tid": event.tid, "op": event.op, "obj": event.obj,
            "signers": list(event.signers), "cert": record.cert_serial,
            "expect": event.expect or "", "skew": event.sign_skew,
        }

    def _run_burst(self, spec, fx, state, step, event, client) -> list:
        now = step + 1
        docs = []
        prepared = []
        for item in event.items:
            request = self._sign(fx, item, now)
            record = _TrafficRecord(
                step=step,
                tid=item.tid,
                request=request,
                now=now,
                cert_serial=fx["certs"][item.cert_ref].serial,
                expect=item.expect,
            )
            prepared.append((request, record))
            docs.append(
                {
                    "tid": item.tid, "op": item.op, "obj": item.obj,
                    "cert": record.cert_serial, "expect": item.expect or "",
                }
            )
        oracle = fx["oracle"]
        for request, record in prepared:
            if oracle is not None:
                outcome = oracle.handle_request(
                    request, now=now, write_content=b"w"
                )
                record.oracle_bytes = decision_wire_bytes(
                    decision_to_dict(outcome.decision)
                )
            else:
                record.oracle_bytes = None
        if client is not None:
            for request, record in prepared:
                t0 = time.perf_counter()
                response = client.authorize(request, now=now, req_id=record.tid)
                record.latency_s = time.perf_counter() - t0
                record.response_doc = response.get("decision")
        else:
            tickets = fx["service"].submit_batch(
                [(request, now) for request, _ in prepared]
            )
            for (request, record), ticket in zip(prepared, tickets):
                record.ticket = ticket
        for _, record in prepared:
            state["records"].append(record)
            state["by_tid"][record.tid] = record
        return docs

    def _run_replay(self, spec, fx, state, step, event, client) -> dict:
        now = step + 1
        original: _TrafficRecord = state["by_tid"][event.of_tid]
        record = _TrafficRecord(
            step=step,
            tid=-event.of_tid - 1,  # replays get a distinct negative tid
            request=original.request,
            now=now,
            cert_serial=original.cert_serial,
            expect=None,
            is_replay=True,
            replay_of=event.of_tid,
        )
        self._submit(fx, state, step, original.request, now, client, record)
        return {"of": event.of_tid, "nonce": original.request.parts[0].nonce}

    def _run_membership(self, fx, state, step, event) -> dict:
        now = step + 1
        bridge: DynamicsBridge = fx["bridges"][event.coalition]
        coalition: Coalition = fx["coalitions"][event.coalition]
        if event.kind == "refresh":
            _report, serials = bridge.refresh(now)
        else:
            name = f"c{event.coalition}-{event.domain}"
            if event.kind == "join":
                domain = fx["churn_domains"].get(name)
                if domain is None:
                    domain = Domain(name, key_bits=self.key_bits)
                    fx["churn_domains"][name] = domain
                _report, serials = bridge.join(domain, now)
            else:
                domain = next(
                    d for d in coalition.domains if d.name == name
                )
                _report, serials = bridge.leave(domain, now)
        for serial in serials:
            state["barriers"][serial] = step
        state["revocations"] += len(serials)
        if serials:
            self._rebind_certs(fx, event.coalition, now)
        return {
            "coalition": event.coalition,
            "domain": getattr(event, "domain", ""),
            "revoked": sorted(serials),
        }

    def _rebind_certs(self, fx, cidx: int, now: int) -> None:
        """Point cert refs at the re-issued certificates after a re-key.

        ``Coalition._rekey`` re-issues every live certificate whose
        subjects all still belong; the replacement is identified by the
        (group, threshold, subjects) triple.  A ref whose certificate
        was *not* re-issued (revoked before the re-key, or a subject
        left) keeps its stale binding — requests under it must deny.
        """
        live = fx["coalitions"][cidx].authority.live_certificates(now)
        for ref, (c, group, threshold, signers) in fx["cert_defs"].items():
            if c != cidx:
                continue
            names = {fx["users"][c][i].name for i in signers}
            matches = [
                cert
                for cert in live
                if cert.group == group
                and cert.threshold == threshold
                and {name for name, _key in cert.subjects} == names
            ]
            if matches:
                fx["certs"][ref] = matches[-1]

    # ------------------------------------------------------------ checking

    def _drain(self, service: AuthorizationService) -> None:
        if not service.drain(timeout=60.0):
            raise RuntimeError("scenario drain timed out; service wedged?")

    def _realize_decisions(self, state) -> None:
        for record in state["records"]:
            if record.doc is not None:
                continue
            if record.response_doc is not None:
                record.doc = record.response_doc
            elif record.ticket is not None and record.ticket.done():
                record.doc = decision_to_dict(record.ticket.result(0))
                record.latency_s = record.ticket.latency_s

    def _check_invariants(self, spec, fx, state, step, final: bool) -> None:
        where = "completion" if final else f"checkpoint@{step}"
        records = [r for r in state["records"] if r.doc is not None]

        def violation(name: str, detail: str) -> None:
            state["violations"].append(
                {"invariant": name, "ok": False, "at": where, "detail": detail}
            )

        for name in spec.invariants:
            if name == "accounting":
                svc = fx["service"].stats()["service"]
                total = svc["evaluated"] + svc["errored"] + svc["overloaded"]
                if total != svc["submitted"]:
                    violation(
                        name,
                        f"evaluated+errored+overloaded={total} != "
                        f"submitted={svc['submitted']}",
                    )
            elif name == "no-stale-grant":
                for r in records:
                    barrier = state["barriers"].get(r.cert_serial)
                    if barrier is None or r.step <= barrier:
                        continue
                    if r.doc.get("granted"):
                        violation(
                            name,
                            f"tid={r.tid} granted under {r.cert_serial} "
                            f"revoked at step {barrier} (request step "
                            f"{r.step})",
                        )
            elif name == "replay-denied":
                for r in records:
                    if not r.is_replay:
                        continue
                    original = state["by_tid"].get(r.replay_of)
                    if original is None or original.doc is None:
                        continue
                    if original.doc.get("granted") and r.doc.get("granted"):
                        violation(
                            name,
                            f"replay of tid={r.replay_of} granted at step "
                            f"{r.step}",
                        )
            elif name == "expectations":
                for r in records:
                    if r.expect is None:
                        continue
                    granted = bool(r.doc.get("granted"))
                    want = r.expect == "granted"
                    if granted != want:
                        violation(
                            name,
                            f"tid={r.tid} expected {r.expect}, got "
                            f"granted={granted} ({r.doc.get('reason')!r})",
                        )
            elif name == "oracle-parity":
                for r in records:
                    if r.oracle_bytes is None:
                        continue
                    if decision_wire_bytes(r.doc) != r.oracle_bytes:
                        violation(
                            name,
                            f"tid={r.tid} diverges from the sequential "
                            f"oracle: {r.doc.get('reason')!r}",
                        )
            elif name == "typed-sheds":
                if not final:
                    continue
                sheds = [
                    r for r in records
                    if r.doc.get("type") in ("overloaded", "circuit-open")
                ]
                granted_sheds = [r for r in sheds if r.doc.get("granted")]
                if granted_sheds:
                    violation(name, "a shed decision claims granted=True")
                if len(sheds) < spec.min_sheds:
                    violation(
                        name,
                        f"{len(sheds)} typed sheds < min_sheds="
                        f"{spec.min_sheds}",
                    )
            elif name == "chaos-survival":
                if not final:
                    continue
                chaos = fx["chaos"]
                stats = chaos.stats() if chaos is not None else {}
                cfg = spec.chaos
                if cfg is not None and cfg.kill_times and not stats.get(
                    "kills_fired"
                ):
                    violation(name, "configured kill never fired")
                if cfg is not None and cfg.raise_every and not stats.get(
                    "faults_raised"
                ):
                    violation(name, "configured fault injection never fired")
                svc = fx["service"].stats()["service"]
                if not svc["granted"]:
                    violation(name, "service granted nothing under chaos")
            else:  # pragma: no cover - spec authoring error
                raise ValueError(f"unknown invariant {name!r}")

    # ------------------------------------------------------------- summary

    def _summarize(self, spec, fx, state, events, report: ScenarioReport):
        records: List[_TrafficRecord] = state["records"]
        svc = fx["service"].stats()
        chaos = fx["chaos"]
        chaos_stats = chaos.stats() if chaos is not None else {}
        latencies = sorted(
            r.latency_s
            for r in records
            if r.latency_s is not None
            and r.doc is not None
            and r.doc.get("type") not in ("overloaded", "circuit-open")
        )
        replays = [r for r in records if r.is_replay]
        report.steps = len(events)
        report.requests = len(records)
        report.submitted = svc["service"]["submitted"]
        report.evaluated = svc["service"]["evaluated"]
        report.granted = svc["service"]["granted"]
        report.denied = svc["service"]["denied"]
        report.overloaded = svc["service"]["overloaded"]
        report.errored = svc["service"]["errored"]
        report.rekeys = sum(b.rekeys for b in fx["bridges"])
        report.revocations = state["revocations"]
        report.epochs_published = svc["epochs"]["epochs_published"]
        report.faults_injected = chaos_stats.get("faults_raised", 0)
        report.kills = chaos_stats.get("kills_fired", 0)
        report.restarts = svc["health"]["restarts"]
        report.actions_fired = chaos_stats.get("actions_fired", 0)
        report.replays_sent = len(replays)
        report.replays_denied = sum(
            1
            for r in replays
            if r.doc is not None and not r.doc.get("granted")
        )
        report.p50_ms = percentile(latencies, 0.50) * 1000
        report.p95_ms = percentile(latencies, 0.95) * 1000
        report.p99_ms = percentile(latencies, 0.99) * 1000
        report.max_ms = (latencies[-1] * 1000) if latencies else 0.0
        report.event_trace_digest = hashlib.sha256(
            canonical_bytes({"events": state["trace_docs"]})
        ).hexdigest()
        stream = hashlib.sha256()
        for record in records:
            if record.doc is not None:
                stream.update(decision_wire_bytes(_normalize_doc(record.doc)))
        report.decision_digest = stream.hexdigest()
        checked = [
            {"invariant": name, "ok": True, "at": "completion", "detail": ""}
            for name in spec.invariants
        ]
        report.invariants = state["violations"] or checked
        report.ok = not state["violations"]


def run_scenario(
    name: str,
    seed: int = 0,
    mode: str = "threaded",
    transport: str = "inproc",
    key_bits: int = 256,
) -> ScenarioReport:
    """Run one registered scenario by name and return its report."""
    spec = SCENARIOS.get(name)
    if spec is None:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})")
    runner = ScenarioRunner(
        mode=mode,
        transport=transport,
        seed=seed,
        key_bits=key_bits,
    )
    return runner.run(spec)


# -------------------------------------------------------------- scenarios


def _mixed_traffic(
    rng: random.Random,
    tids,
    count: int,
    objects: Sequence[str],
    read_fraction: float = 0.6,
    expect: Optional[str] = "granted",
    cert_prefix: str = "",
    coalition: int = 0,
    zipf_s: float = 0.0,
) -> List[Traffic]:
    """A seeded read/write mix over ``objects`` (zipf-skewed if asked)."""
    out: List[Traffic] = []
    for _ in range(count):
        if zipf_s > 0:
            obj = objects[zipf_index(rng, len(objects), zipf_s)]
        else:
            obj = rng.choice(list(objects))
        if rng.random() < read_fraction:
            out.append(
                Traffic(
                    "read", obj, (rng.randrange(3),), f"{cert_prefix}read",
                    tid=next(tids), coalition=coalition, expect=expect,
                )
            )
        else:
            first = rng.randrange(3)
            second = (first + 1 + rng.randrange(2)) % 3
            out.append(
                Traffic(
                    "write", obj, (first, second), f"{cert_prefix}write",
                    tid=next(tids), coalition=coalition, expect=expect,
                )
            )
    return out


def _tid_counter():
    tid = 0
    while True:
        yield tid
        tid += 1


def _build_membership_storm(rng: random.Random) -> List[object]:
    """Join/leave/refresh storm: every re-key is a revocation barrier."""
    tids = _tid_counter()
    objects = [f"Obj{i}" for i in range(8)]
    events: List[object] = []
    events += _mixed_traffic(rng, tids, 18, objects)
    events.append(SnapshotCert("read", "pre-rekey-read"))
    events.append(Checkpoint())
    # Join: mass revocation + re-issue under a brand-new shared key.
    events.append(Join("storm-X1"))
    events += _mixed_traffic(rng, tids, 10, objects)
    for _ in range(4):  # the old certificate must be dead post-barrier
        events.append(
            Traffic(
                "read", rng.choice(objects), (0,), "pre-rekey-read",
                tid=next(tids), expect="denied",
            )
        )
    events.append(Checkpoint())
    # Leave: the joint AA survives the departure (Requirement I).
    events.append(Leave("storm-X1"))
    events += _mixed_traffic(rng, tids, 10, objects)
    events.append(Checkpoint())
    # Refresh: share refresh keeps the public key — old certs stay live.
    events.append(SnapshotCert("read", "pre-refresh-read"))
    events.append(Refresh())
    for _ in range(4):
        events.append(
            Traffic(
                "read", rng.choice(objects), (1,), "pre-refresh-read",
                tid=next(tids), expect="granted",
            )
        )
    events += _mixed_traffic(rng, tids, 8, objects)
    events.append(Join("storm-X2"))
    events += _mixed_traffic(rng, tids, 8, objects)
    events.append(Checkpoint())
    return events


_scenario(
    ScenarioSpec(
        name="membership-storm",
        description=(
            "Domain join/leave/refresh storm driving full re-keys through "
            "single-epoch revocation barriers; pre-re-key certificates must "
            "die at the barrier while refresh keeps them alive"
        ),
        build=_build_membership_storm,
        invariants=(
            "accounting",
            "expectations",
            "no-stale-grant",
            "replay-denied",
            "oracle-parity",
        ),
    )
)


def _build_threshold_mix(rng: random.Random) -> List[object]:
    """m-of-n signature mixes: enough signers grant, too few deny."""
    tids = _tid_counter()
    objects = [f"Obj{i}" for i in range(8)]
    events: List[object] = [
        IssueCert("write3", "G_write", 3, (0, 1, 2)),
    ]
    for _ in range(12):
        obj = rng.choice(objects)
        roll = rng.randrange(5)
        if roll == 0:  # 1-of-3 read
            events.append(
                Traffic("read", obj, (rng.randrange(3),), "read",
                        tid=next(tids), expect="granted")
            )
        elif roll == 1:  # 2-of-3 write, quorum met
            events.append(
                Traffic("write", obj, (0, 2), "write",
                        tid=next(tids), expect="granted")
            )
        elif roll == 2:  # 2-of-3 write, one signer short
            events.append(
                Traffic("write", obj, (rng.randrange(3),), "write",
                        tid=next(tids), expect="denied")
            )
        elif roll == 3:  # 3-of-3 write, full quorum
            events.append(
                Traffic("write", obj, (0, 1, 2), "write3",
                        tid=next(tids), expect="granted")
            )
        else:  # 3-of-3 write, quorum missed
            events.append(
                Traffic("write", obj, (0, 1), "write3",
                        tid=next(tids), expect="denied")
            )
        if roll % 4 == 3:
            # Operation the group's ACL does not cover.
            events.append(
                Traffic("read", obj, (0, 1), "write",
                        tid=next(tids), expect="denied")
            )
    events.append(Checkpoint())
    events += _mixed_traffic(rng, tids, 10, objects)
    events.append(Checkpoint())
    return events


_scenario(
    ScenarioSpec(
        name="threshold-mix",
        description=(
            "m-of-n threshold-signature request mix: quorums grant, "
            "sub-threshold signer sets and off-ACL operations deny, "
            "byte-identical to the sequential oracle"
        ),
        build=_build_threshold_mix,
        invariants=("accounting", "expectations", "oracle-parity"),
    )
)


def _build_stale_cert_adversary(rng: random.Random) -> List[object]:
    """Replay + stale/revoked-certificate adversary (window = 200)."""
    tids = _tid_counter()
    objects = [f"Obj{i}" for i in range(8)]
    events: List[object] = [IssueCert("victim", "G_read", 1, (0,))]
    legit = _mixed_traffic(rng, tids, 10, objects)
    events += legit
    victim_reads = [
        Traffic("read", rng.choice(objects), (0,), "victim",
                tid=next(tids), expect="granted")
        for _ in range(4)
    ]
    events += victim_reads
    events.append(Checkpoint())
    events.append(RevokeCert("victim"))
    # Post-barrier: the revoked certificate must deny everywhere.
    for _ in range(4):
        events.append(
            Traffic("read", rng.choice(objects), (0,), "victim",
                    tid=next(tids), expect="denied")
        )
    # Replays of previously *granted* requests: nonces are burned.
    for original in rng.sample(legit, 4) + victim_reads[:2]:
        events.append(Replay(of_tid=original.tid))
    # Stale-signature adversary: parts signed far outside the window.
    for _ in range(3):
        events.append(
            Traffic("read", rng.choice(objects), (1,), "read",
                    tid=next(tids), expect="denied", sign_skew=-500)
        )
    events.append(Checkpoint())
    events += _mixed_traffic(rng, tids, 8, objects)
    events.append(Checkpoint())
    return events


_scenario(
    ScenarioSpec(
        name="stale-cert-adversary",
        description=(
            "Adversary replaying granted requests and presenting revoked or "
            "stale-signed certificates; every attack denies and the decision "
            "stream stays byte-identical to the sequential oracle"
        ),
        build=_build_stale_cert_adversary,
        invariants=(
            "accounting",
            "expectations",
            "no-stale-grant",
            "replay-denied",
            "oracle-parity",
        ),
        freshness_window=200,
    )
)


def _build_flash_crowd(rng: random.Random) -> List[object]:
    """Zipf-hot bursts against a tiny admission queue: typed sheds."""
    tids = _tid_counter()
    objects = [f"Obj{i}" for i in range(8)]
    events: List[object] = []
    events += _mixed_traffic(rng, tids, 6, objects, expect=None)
    events.append(Checkpoint())
    # The flash crowd: one hot object (zipf s=1.5 collapses onto rank 0),
    # 48 arrivals in a single submit_batch against queue_depth=4.
    for _ in range(2):
        burst = tuple(
            Traffic(
                "read",
                objects[zipf_index(rng, len(objects), 1.5)],
                (rng.randrange(3),),
                "read",
                tid=next(tids),
            )
            for _ in range(48)
        )
        events.append(Burst(burst))
    events.append(Checkpoint())
    events.append(IssueCert("victim", "G_read", 1, (1,)))
    events.append(
        Traffic("read", objects[0], (1,), "victim", tid=next(tids),
                expect="granted")
    )
    events.append(Checkpoint())
    events.append(RevokeCert("victim"))
    # A post-barrier burst that includes revoked-cert traffic: whatever
    # is not shed must still deny under the dead serial.
    burst = tuple(
        Traffic(
            "read",
            objects[zipf_index(rng, len(objects), 1.5)],
            (1,),
            "victim" if i % 4 == 0 else "read",
            tid=next(tids),
        )
        for i in range(32)
    )
    events.append(Burst(burst))
    events.append(Checkpoint())
    return events


_scenario(
    ScenarioSpec(
        name="flash-crowd",
        description=(
            "Zipf-skewed flash crowds (48-request bursts on a hot object) "
            "against a queue of depth 4: overload resolves as typed sheds, "
            "never silent drops, and a mid-crowd revocation barrier holds"
        ),
        build=_build_flash_crowd,
        invariants=("accounting", "typed-sheds", "no-stale-grant"),
        oracle_feasible=False,
        queue_depth=4,
        min_sheds=1,
        edge_ok=False,
    )
)


def _build_chaos_storm(rng: random.Random) -> List[object]:
    """Membership churn + decider kill + injected faults + replays."""
    tids = _tid_counter()
    objects = [f"Obj{i}" for i in range(8)]
    events: List[object] = []
    phase_a = _mixed_traffic(rng, tids, 24, objects, expect=None)
    events += phase_a
    events.append(Checkpoint())  # drain: the in-flight kill has landed
    events.append(SnapshotCert("read", "pre-rekey-read"))
    events.append(Join("chaos-X1"))  # re-key while the chaos plan is live
    events += _mixed_traffic(rng, tids, 12, objects, expect=None)
    for _ in range(3):  # stale certificate across the chaos barrier
        events.append(
            Traffic("read", rng.choice(objects), (2,), "pre-rekey-read",
                    tid=next(tids), expect=None)
        )
    events.append(Checkpoint())
    # Replays across the decider restart: burned nonces stay burned.
    for original in rng.sample(phase_a, 6):
        events.append(Replay(of_tid=original.tid))
    events += _mixed_traffic(rng, tids, 8, objects, expect=None)
    events.append(Checkpoint())
    return events


def _chaos_storm_script(
    injector: FaultInjector, service: AuthorizationService
) -> None:
    """Scripted mid-flight epoch swap: an ACL republish at evaluation 20."""

    def swap(_ticket) -> None:
        entry = service.epochs.current.acls["Obj0"]
        service.update_acl("Obj0", list(entry.acl.entries))

    injector.at(20, swap)


_scenario(
    ScenarioSpec(
        name="chaos-storm",
        description=(
            "Coalition churn with a mid-scenario decider kill, an injected "
            "fault every 9th evaluation and a scripted epoch swap: full "
            "accounting, replays denied across the restart, re-key barrier "
            "holds"
        ),
        build=_build_chaos_storm,
        invariants=(
            "accounting",
            "no-stale-grant",
            "replay-denied",
            "chaos-survival",
        ),
        oracle_feasible=False,
        chaos=ChaosConfig(
            raise_every=9,
            kill_in_flight=True,
            kill_times=1,
            seed=7,
        ),
        script=_chaos_storm_script,
        edge_ok=False,
    )
)


def _build_federation(rng: random.Random) -> List[object]:
    """Two coalitions, one service: revocation in A never bleeds into B."""
    tids = _tid_counter()
    objs_a = [f"Obj{i}" for i in range(4)]
    objs_b = [f"FedObj{i}" for i in range(4)]
    events: List[object] = [IssueCert("victim", "G_read", 1, (2,))]
    events += _mixed_traffic(rng, tids, 8, objs_a)
    events += _mixed_traffic(
        rng, tids, 8, objs_b, cert_prefix="c1-", coalition=1
    )
    events.append(
        Traffic("read", objs_a[0], (2,), "victim", tid=next(tids),
                expect="granted")
    )
    events.append(Checkpoint())
    events.append(RevokeCert("victim"))
    # Isolation: A's revocation barrier, B's traffic keeps granting.
    for _ in range(3):
        events.append(
            Traffic("read", rng.choice(objs_a), (2,), "victim",
                    tid=next(tids), expect="denied")
        )
    events += _mixed_traffic(
        rng, tids, 6, objs_b, cert_prefix="c1-", coalition=1
    )
    events.append(Checkpoint())
    # A full re-key on coalition A; B's certificates stay untouched.
    events.append(SnapshotCert("read", "pre-rekey-read"))
    events.append(Join("fed-X1", coalition=0))
    events += _mixed_traffic(rng, tids, 6, objs_a)
    events.append(
        Traffic("read", objs_a[1], (0,), "pre-rekey-read",
                tid=next(tids), expect="denied")
    )
    events += _mixed_traffic(
        rng, tids, 6, objs_b, cert_prefix="c1-", coalition=1
    )
    # Cross-coalition confusion: B's certificate names a B-only group,
    # so it can never open an A-owned object.
    events.append(
        Traffic("read", objs_a[0], (0,), "c1-read", tid=next(tids),
                coalition=1, expect="denied")
    )
    events.append(Checkpoint())
    return events


_scenario(
    ScenarioSpec(
        name="federation",
        description=(
            "Two coalitions sharing one service: group namespaces stay "
            "disjoint, coalition A's mass revocation and re-key never "
            "disturb coalition B's grants, and cross-coalition "
            "certificates cannot open foreign objects"
        ),
        build=_build_federation,
        invariants=(
            "accounting",
            "expectations",
            "no-stale-grant",
            "oracle-parity",
        ),
        num_coalitions=2,
        objects=tuple(
            [(f"Obj{i}", 0) for i in range(4)]
            + [(f"FedObj{i}", 1) for i in range(4)]
        ),
    )
)
