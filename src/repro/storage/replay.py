"""Deterministic replay: a recovered WAL re-derives itself byte-for-byte.

The replay discipline follows van der Meyden's logical reconstruction
of SPKI — authorization decisions are *derivations* from recorded
certificate/belief state, so a log of decisions plus the workload that
produced them must re-derive identically.  PR 3 established the
sequential-oracle parity check within one process; this module applies
it **across process restarts**: the WAL's META record carries a
:class:`ReplayManifest` describing the workload, and
:func:`replay_wal` recovers the log (healing any torn tail), rebuilds
a fresh coalition + service from the manifest alone, re-runs the
stream, and compares every recovered entry's ``payload_bytes()``
against the replayed one.

Byte parity holds with *fresh, unseeded* RSA keys because nothing
key-dependent enters the signed payload: proofs render
:class:`~repro.core.terms.KeyRef` by label, serials are deterministic
counters, nonces and timestamps are logical.  Signatures (the only
key-dependent bytes) are excluded from ``payload_bytes()`` by design —
each run's chain is signed by its own signer and verified against that
signer's public key.

Scenarios run the service in **manual** mode and decide each request
before submitting the next: evaluation happens in submission order,
so the audit append order is a function of the manifest, not the
scheduler.
"""

from __future__ import annotations

import tempfile
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from ..coalition.audit import AuditEntry, AuditLog
from ..service.fixture import attach_coalition
from ..service.service import AuthorizationService
from .recovery import RecoveredLog, recover
from .wal import EpochRecord, WalError, public_key_from_doc

__all__ = ["ReplayManifest", "ScenarioResult", "ReplayReport", "run_scenario", "replay_wal"]


@dataclass(frozen=True)
class ReplayManifest:
    """Everything needed to regenerate a recorded workload, exactly.

    Persisted in the WAL's META record, so a recovered log is
    self-describing: ``replay_wal`` needs only the directory.  A META
    record written with keys this manifest no longer has (an older
    build's shard count) still loads: :meth:`from_dict` drops them.
    """

    total_requests: int = 100
    num_objects: int = 4
    read_fraction: float = 0.4
    deny_fraction: float = 0.2
    revoke_every: int = 0
    key_bits: int = 128
    freshness_window: int = 10**9
    seed: int = 0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "ReplayManifest":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in doc.items() if k in known})


@dataclass
class ScenarioResult:
    """One scenario run: the in-memory chain plus its durable echo."""

    entries: List[AuditEntry]
    epoch_records: List[EpochRecord]
    granted: int = 0
    denied: int = 0
    revocations_published: int = 0
    wal_stats: Dict[str, int] = field(default_factory=dict)


def run_scenario(
    manifest: ReplayManifest,
    wal_dir: str,
    sync_every: int = 64,
    segment_bytes: int = 1 << 20,
) -> ScenarioResult:
    """Drive the manifest's workload into a WAL-backed manual service.

    The stream is :meth:`~repro.service.fixture.CoalitionFixture.stream`
    with the manifest's mix, a deterministic function of the manifest.
    Each request is decided before the next one is submitted.
    """
    service = AuthorizationService(
        name="ReplayP",
        mode="manual",
        freshness_window=manifest.freshness_window,
        wal_dir=wal_dir,
        wal_manifest=manifest.as_dict(),
        wal_sync_every=sync_every,
        wal_segment_bytes=segment_bytes,
    )
    try:
        fixture = attach_coalition(
            service, manifest.num_objects, manifest.key_bits
        )
        for now, request in fixture.stream(
            manifest.total_requests,
            seed=manifest.seed,
            read_fraction=manifest.read_fraction,
            deny_fraction=manifest.deny_fraction,
            revoke_every=manifest.revoke_every,
        ):
            service.authorize(request, now)
        entries = service.audit_log.entries()
        stats = service.stats()
        wal_stats = service.wal.stats()
    finally:
        service.close()
    # Read the epoch records back out of the just-written WAL — also a
    # standing check that a cleanly closed log recovers in full.
    echoed = recover(wal_dir, truncate=False)
    if echoed.torn is not None or len(echoed.entries) != len(entries):
        raise WalError(
            f"cleanly closed WAL did not echo its chain: "
            f"{len(echoed.entries)}/{len(entries)} entries, torn={echoed.torn}"
        )
    return ScenarioResult(
        entries=entries,
        epoch_records=echoed.epoch_records,
        granted=stats["service"]["granted"],
        denied=stats["service"]["denied"],
        revocations_published=stats["epochs"]["revocations_published"],
        wal_stats=wal_stats,
    )


@dataclass
class ReplayReport:
    """Outcome of one recover-and-replay parity check."""

    recovered_entries: int = 0
    replayed_entries: int = 0
    entries_matched: bool = False
    mismatch_index: int = -1
    chain_verified: bool = False
    recovered_epoch_records: int = 0
    epoch_records_matched: bool = False
    torn: bool = False
    torn_reason: str = ""
    truncated_bytes: int = 0
    quarantined_segments: int = 0

    @property
    def ok(self) -> bool:
        return (
            self.entries_matched
            and self.epoch_records_matched
            and self.chain_verified
        )

    def as_dict(self) -> Dict[str, object]:
        doc = asdict(self)
        doc["ok"] = self.ok
        return doc


def replay_wal(
    wal_dir: str,
    manifest: Optional[ReplayManifest] = None,
    replay_dir: Optional[str] = None,
    heal: bool = True,
) -> ReplayReport:
    """Recover ``wal_dir``, re-run its manifest, compare byte-for-byte.

    The recovered prefix must be a prefix of the replayed stream with
    identical ``payload_bytes()`` per entry (and identical epoch
    records) — recovered entries past a healed torn tail simply do not
    exist, so the replayed stream may be longer.  ``replay_dir`` (a
    scratch WAL directory for the re-run) defaults to a temp dir.
    """
    recovered: RecoveredLog = recover(wal_dir, truncate=heal)
    meta = recovered.meta or {}
    if manifest is None:
        doc = meta.get("manifest") or {}
        if not doc:
            raise WalError(
                f"WAL at {wal_dir} carries no replay manifest; pass one"
            )
        manifest = ReplayManifest.from_dict(doc)
    chain_verified = False
    if meta.get("public_key"):
        AuditLog.verify_chain(
            recovered.entries, public_key_from_doc(meta["public_key"])
        )
        chain_verified = True

    if replay_dir is not None:
        result = run_scenario(manifest, replay_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-replay-") as scratch:
            result = run_scenario(manifest, scratch)

    report = ReplayReport(
        recovered_entries=len(recovered.entries),
        replayed_entries=len(result.entries),
        chain_verified=chain_verified,
        recovered_epoch_records=len(recovered.epoch_records),
        torn=recovered.torn is not None,
        torn_reason=recovered.torn.reason if recovered.torn else "",
        truncated_bytes=recovered.truncated_bytes,
        quarantined_segments=len(recovered.quarantined_segments),
    )
    report.entries_matched = len(recovered.entries) <= len(result.entries)
    if report.entries_matched:
        for i, entry in enumerate(recovered.entries):
            if entry.payload_bytes() != result.entries[i].payload_bytes():
                report.entries_matched = False
                report.mismatch_index = i
                break
    report.epoch_records_matched = (
        len(recovered.epoch_records) <= len(result.epoch_records)
        and all(
            recovered.epoch_records[i] == result.epoch_records[i]
            for i in range(len(recovered.epoch_records))
        )
    )
    return report
