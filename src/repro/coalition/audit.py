"""A tamper-evident audit log of authorization decisions.

Section 2 lists "auditing applications that are used to ensure that all
domains are adhering to predefined access policies" among the jointly
owned resources.  This module provides the substrate: the coalition
server appends one signed, hash-chained entry per decision, so auditors
can verify (a) no entry was altered, (b) no entry was removed from the
middle, and (c) every entry was recorded by the server's key.

Each entry binds: sequence number, decision metadata, the proof-tree
digest (the Merkle root of :meth:`~repro.core.proofs.ProofStep.digest`,
so the logged decision can be matched against a retained proof), and
the previous entry's digest — a classic hash chain.

A log bound to a write-ahead log (:meth:`AuditLog.bind_wal`) keeps
only the entry count and the tail digest in memory; its entries live
in the WAL and are read back from there.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import List, Mapping, Optional

from ..crypto.rsa import RSAKeyPair, RSAPublicKey, generate_keypair
from ..pki.serialization import canonical_bytes
from .protocol import AuthorizationDecision

__all__ = ["AuditEntry", "AuditLog", "AuditVerificationError"]

_GENESIS = "0" * 64


class AuditVerificationError(Exception):
    """The audit chain is broken, truncated mid-chain, or forged."""


def _proof_digest(decision: AuthorizationDecision) -> str:
    if decision.proof is None:
        return _GENESIS
    return decision.proof.digest().hex()


def _payload_bytes(fields: Mapping[str, object]) -> bytes:
    """The signed bytes of the entry with ``fields`` (signature excluded)."""
    return canonical_bytes(
        {
            "sequence": fields["sequence"],
            "timestamp": fields["timestamp"],
            "operation": fields["operation"],
            "object": fields["object_name"],
            "group": fields["group"] or "",
            "granted": fields["granted"],
            "reason": fields["reason"],
            "proof_digest": fields["proof_digest"],
            "previous_digest": fields["previous_digest"],
            "trace_id": fields["trace_id"],
            "event_kind": fields["event_kind"],
        }
    )


@dataclass(frozen=True)
class AuditEntry:
    """One signed, chained record of a decision."""

    sequence: int
    timestamp: int
    operation: str
    object_name: str
    group: Optional[str]
    granted: bool
    reason: str
    proof_digest: str
    previous_digest: str
    signature: int = 0
    # Decision-trace correlation (repro.obs.trace): the id of the span
    # tree recorded while deciding this request, or "" when tracing was
    # off.  Part of the signed, hash-chained payload, so the trace an
    # operator replays is bound to the entry an auditor verified.
    trace_id: str = ""
    # "" for genuine authorization decisions; the flow-event kind (e.g.
    # "flow-degraded") for entries recorded via ``append_event``.  An
    # explicit, signed marker — classification must not depend on what
    # a decision reason happens to start with.
    event_kind: str = ""

    def payload_bytes(self) -> bytes:
        return _payload_bytes(vars(self))

    def digest(self) -> str:
        return hashlib.sha256(self.payload_bytes()).hexdigest()


class AuditLog:
    """An append-only, hash-chained, signed decision log."""

    def __init__(self, signer: Optional[RSAKeyPair] = None, key_bits: int = 256):
        self._signer = signer or generate_keypair(bits=key_bits)
        # The entries themselves, while no WAL holds them.
        self._entries: List[AuditEntry] = []
        self._count = 0
        # Digest of the last entry: the next entry's previous_digest.
        self._tail_digest = _GENESIS
        # Appends read the previous digest and extend the chain; the
        # lock makes that read-extend atomic so concurrent submitters
        # of the threaded service can share one log.
        self._lock = threading.RLock()
        # Optional durability sink (repro.storage.wal.WriteAheadLog):
        # when bound, every signed entry is appended to the WAL inside
        # the same critical section that extends the chain, so the
        # on-disk order is exactly the chain order, and the WAL is the
        # only copy of the entries.
        self._wal = None

    @property
    def public_key(self) -> RSAPublicKey:
        return self._signer.public

    @property
    def keypair(self) -> RSAKeyPair:
        return self._signer

    def bind_wal(self, wal) -> None:
        """Store every future append in ``wal`` (a WriteAheadLog) only.

        ``wal`` must already hold this log's entries: it is fresh and
        the log empty, or the entries were recovered from it.  From
        here on :meth:`entries`, :meth:`events` and :meth:`verify` read
        them back from the WAL.
        """
        with self._lock:
            self._wal = wal
            self._entries = []

    @classmethod
    def reseed(
        cls,
        entries: List[AuditEntry],
        signer: RSAKeyPair,
        verify: bool = True,
    ) -> "AuditLog":
        """Rebuild a log from recovered entries, resuming the chain.

        This is the healing half of ``verify_chain(expected_length=)``:
        recovery hands back the longest verifiable prefix of the
        on-disk chain, and the reseeded log continues appending from
        its tail digest as if the crash never happened.
        """
        if verify:
            cls.verify_chain(entries, signer.public)
        log = cls(signer=signer)
        log._entries = list(entries)
        log._count = len(entries)
        if entries:
            log._tail_digest = entries[-1].digest()
        return log

    def __len__(self) -> int:
        return self._count

    def entries(self) -> List[AuditEntry]:
        with self._lock:
            if self._wal is not None:
                return self._wal.read_entries()
            return list(self._entries)

    def append(
        self, decision: AuthorizationDecision, trace_id: str = ""
    ) -> AuditEntry:
        """Record a decision as the next chained entry.

        ``trace_id`` correlates the entry with a recorded decision
        trace (see :mod:`repro.obs.trace`); it is signed and chained
        with the rest of the payload.
        """
        with self._lock:
            return self._append_signed(
                sequence=self._count,
                timestamp=decision.checked_at,
                operation=decision.operation,
                object_name=decision.object_name,
                group=decision.group,
                granted=decision.granted,
                reason=decision.reason,
                proof_digest=_proof_digest(decision),
                previous_digest=self._tail_digest,
                trace_id=trace_id,
                event_kind="",
            )

    def append_event(
        self,
        timestamp: int,
        operation: str,
        object_name: str,
        kind: str,
        detail: str = "",
        granted: bool = False,
        group: Optional[str] = None,
        trace_id: str = "",
    ) -> AuditEntry:
        """Record a flow-level event (degradation, timeout, abandonment).

        Section 2 counts auditing applications among the jointly owned
        resources; fault-tolerance events belong in the same chain as
        decisions so auditors see *why* a request was granted with only
        m of n signers, or never decided at all.  ``kind`` is one of
        ``flow-degraded`` / ``flow-timed-out`` / ``flow-abandoned`` /
        ``flow-replay-suppressed``.
        """
        with self._lock:
            return self._append_signed(
                sequence=self._count,
                timestamp=timestamp,
                operation=operation,
                object_name=object_name,
                group=group,
                granted=granted,
                reason=f"{kind}: {detail}" if detail else kind,
                proof_digest=_GENESIS,
                previous_digest=self._tail_digest,
                trace_id=trace_id,
                event_kind=kind,
            )

    def events(self, kind: Optional[str] = None) -> List[AuditEntry]:
        """Entries recorded via :meth:`append_event` (optionally by kind)."""
        out = [e for e in self.entries() if e.event_kind]
        if kind is not None:
            out = [e for e in out if e.event_kind == kind]
        return out

    def _append_signed(self, **fields) -> AuditEntry:
        # The signature is not part of the payload: encode it once, for
        # the signature and the chain's next link alike, then build the
        # entry once, signed.  Callers hold the lock: the sequence and
        # previous digest in ``fields`` must still be the tail's.
        payload = _payload_bytes(fields)
        entry = AuditEntry(signature=self._signer.private.sign(payload), **fields)
        if self._wal is not None:
            self._wal.append_entry(entry)
        else:
            self._entries.append(entry)
        self._count += 1
        self._tail_digest = hashlib.sha256(payload).hexdigest()
        return entry

    @staticmethod
    def verify_chain(
        entries: List[AuditEntry],
        public_key: RSAPublicKey,
        expected_length: Optional[int] = None,
    ) -> None:
        """Verify signatures, sequence numbers and the hash chain.

        Raises:
            AuditVerificationError: on any alteration, reordering or
                mid-chain removal.  Truncation *from the tail* is not
                detectable from the chain alone; auditors who know the
                expected entry count from an out-of-band source (a
                replica, a counter snapshot) pass ``expected_length``
                and tail truncation raises too.
        """
        if expected_length is not None and len(entries) != expected_length:
            raise AuditVerificationError(
                f"chain has {len(entries)} entries, expected "
                f"{expected_length} (tail truncated or padded?)"
            )
        previous = _GENESIS
        for index, entry in enumerate(entries):
            if entry.sequence != index:
                raise AuditVerificationError(
                    f"entry {index} carries sequence {entry.sequence}"
                )
            if entry.previous_digest != previous:
                raise AuditVerificationError(
                    f"hash chain broken at entry {index}"
                )
            if not public_key.verify(entry.payload_bytes(), entry.signature):
                raise AuditVerificationError(
                    f"bad signature on entry {index}"
                )
            previous = entry.digest()

    def verify(self, expected_length: Optional[int] = None) -> None:
        """Self-check the whole log."""
        self.verify_chain(self.entries(), self.public_key, expected_length)
