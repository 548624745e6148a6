"""Append-only segmented write-ahead log for audit decisions.

The paper counts "auditing applications that are used to ensure that
all domains are adhering to predefined access policies" among the
jointly owned coalition resources (§2).  The hash-chained
:class:`~repro.coalition.audit.AuditLog` gives auditors tamper
evidence, but a memory-only chain evaporates on a crash — the WAL is
its durable substrate: every signed :class:`AuditEntry` and every
epoch publication is framed, CRC'd and appended to a segment file
before the in-memory chain advances past it.

Frame format (little-endian, see DESIGN.md §13)::

    [u32 payload_length][u32 crc32(kind || payload)][u8 kind][payload]

Three record kinds share the stream:

* ``RT_META`` — one JSON header per log: format version, the audit
  signer's public key (so recovery can verify the chain it found), and
  an optional replay manifest describing the workload that produced
  the log.
* ``RT_ENTRY`` — one signed, hash-chained audit entry.
* ``RT_EPOCH`` — an epoch publication (revocation / policy / trust),
  so replay can line recorded decisions up against policy changes.

Durability is **batched**: every append flushes to the OS (a torn
frame therefore requires an OS/power crash, not merely a process
kill), and ``fsync`` runs every ``sync_every`` records or every
``sync_interval_s`` seconds, whichever fires first.  Segments rotate
at ``segment_bytes``; recovery (:mod:`repro.storage.recovery`) scans
them in order and truncates the torn tail at the first bad frame.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..coalition.audit import AuditEntry
from ..crypto.rsa import RSAKeyPair, RSAPrivateKey, RSAPublicKey

__all__ = [
    "WalError",
    "FrameError",
    "EpochRecord",
    "WriteAheadLog",
    "RT_META",
    "RT_ENTRY",
    "RT_EPOCH",
    "SEGMENT_SUFFIX",
    "SIGNER_FILE",
    "encode_frame",
    "decode_frame_at",
    "entry_to_payload",
    "entry_from_payload",
    "epoch_to_payload",
    "epoch_from_payload",
    "list_segments",
    "segment_path",
    "save_keypair",
    "load_keypair",
    "public_key_doc",
    "public_key_from_doc",
]

# Frame header: payload length, CRC32 over (kind byte || payload), kind.
_HEADER = struct.Struct("<IIB")
HEADER_BYTES = _HEADER.size

RT_META = 1
RT_ENTRY = 2
RT_EPOCH = 3
_KNOWN_KINDS = (RT_META, RT_ENTRY, RT_EPOCH)

# A single record far beyond this is a corrupt length field, not data.
MAX_RECORD_BYTES = 16 * 1024 * 1024

DEFAULT_SEGMENT_BYTES = 1 << 20
DEFAULT_SYNC_EVERY = 64

SEGMENT_SUFFIX = ".seg"
SIGNER_FILE = "signer.json"


class WalError(Exception):
    """Misuse or unrecoverable state of the write-ahead log."""


class FrameError(Exception):
    """A frame could not be decoded; ``reason`` says why.

    Raised (and caught by recovery) at torn tails: a partial header,
    a length field pointing past the data, a CRC mismatch, or an
    unknown record kind.
    """

    def __init__(self, offset: int, reason: str):
        super().__init__(f"bad frame at offset {offset}: {reason}")
        self.offset = offset
        self.reason = reason


# --------------------------------------------------------------- framing


def encode_frame(kind: int, payload: bytes) -> bytes:
    """One length-prefixed, CRC-framed record."""
    if kind not in _KNOWN_KINDS:
        raise WalError(f"unknown record kind {kind}")
    if len(payload) > MAX_RECORD_BYTES:
        raise WalError(f"record of {len(payload)} bytes exceeds MAX_RECORD_BYTES")
    crc = zlib.crc32(bytes([kind]) + payload) & 0xFFFFFFFF
    return _HEADER.pack(len(payload), crc, kind) + payload


def decode_frame_at(data: bytes, offset: int) -> Tuple[int, bytes, int]:
    """Decode the frame starting at ``offset``; return (kind, payload, next).

    Raises :class:`FrameError` for every torn-tail shape recovery must
    heal: short header, short payload ("partial write"), an insane
    length field, a CRC mismatch, or an unknown kind byte.
    """
    if offset + HEADER_BYTES > len(data):
        raise FrameError(offset, "short header (partial write)")
    length, crc, kind = _HEADER.unpack_from(data, offset)
    if length > MAX_RECORD_BYTES:
        raise FrameError(offset, f"length field {length} exceeds MAX_RECORD_BYTES")
    start = offset + HEADER_BYTES
    end = start + length
    if end > len(data):
        raise FrameError(offset, "short payload (partial write)")
    payload = data[start:end]
    if zlib.crc32(bytes([kind]) + payload) & 0xFFFFFFFF != crc:
        raise FrameError(offset, "crc mismatch")
    if kind not in _KNOWN_KINDS:
        raise FrameError(offset, f"unknown record kind {kind}")
    return kind, payload, end


# --------------------------------------------------------- record codecs


# What ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` builds
# on every call; encoding keeps no state between calls.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _json_bytes(doc: Dict[str, object]) -> bytes:
    return _ENCODER.encode(doc).encode("utf-8")


def entry_to_payload(entry: AuditEntry) -> bytes:
    """Serialize a signed audit entry (signature hex-encoded)."""
    return _json_bytes(
        {
            "sequence": entry.sequence,
            "timestamp": entry.timestamp,
            "operation": entry.operation,
            "object": entry.object_name,
            "group": entry.group,
            "granted": entry.granted,
            "reason": entry.reason,
            "proof_digest": entry.proof_digest,
            "previous_digest": entry.previous_digest,
            "signature": hex(entry.signature),
            "trace_id": entry.trace_id,
            "event_kind": entry.event_kind,
        }
    )


def entry_from_payload(payload: bytes) -> AuditEntry:
    doc = json.loads(payload.decode("utf-8"))
    return AuditEntry(
        sequence=doc["sequence"],
        timestamp=doc["timestamp"],
        operation=doc["operation"],
        object_name=doc["object"],
        group=doc["group"],
        granted=doc["granted"],
        reason=doc["reason"],
        proof_digest=doc["proof_digest"],
        previous_digest=doc["previous_digest"],
        signature=int(doc["signature"], 16),
        trace_id=doc["trace_id"],
        event_kind=doc.get("event_kind", ""),
    )


@dataclass(frozen=True)
class EpochRecord:
    """One epoch publication, logged next to the decisions it governs.

    ``kind`` is ``"revocation"`` / ``"policy"`` / ``"trust"``;
    ``detail`` carries the revoked serial, object name, or trust
    method.  ``timestamp`` is logical protocol time (the ``now`` the
    publication carried), never the wall clock — replay compares these
    records byte-for-byte across process restarts.
    """

    kind: str
    epoch_id: int
    detail: str = ""
    timestamp: int = 0


def epoch_to_payload(record: EpochRecord) -> bytes:
    return _json_bytes(
        {
            "kind": record.kind,
            "epoch_id": record.epoch_id,
            "detail": record.detail,
            "timestamp": record.timestamp,
        }
    )


def epoch_from_payload(payload: bytes) -> EpochRecord:
    doc = json.loads(payload.decode("utf-8"))
    return EpochRecord(
        kind=doc["kind"],
        epoch_id=doc["epoch_id"],
        detail=doc["detail"],
        timestamp=doc["timestamp"],
    )


# ------------------------------------------------------------- segments


def segment_path(wal_dir: str, index: int) -> str:
    return os.path.join(wal_dir, f"wal-{index:08d}{SEGMENT_SUFFIX}")


def segment_index(path: str) -> int:
    name = os.path.basename(path)
    return int(name[len("wal-") : -len(SEGMENT_SUFFIX)])


def list_segments(wal_dir: str) -> List[str]:
    """Segment files of a WAL directory, in append order."""
    if not os.path.isdir(wal_dir):
        return []
    names = [
        n
        for n in os.listdir(wal_dir)
        if n.startswith("wal-") and n.endswith(SEGMENT_SUFFIX)
    ]
    return [os.path.join(wal_dir, n) for n in sorted(names)]


# --------------------------------------------------- signer persistence


def public_key_doc(public: RSAPublicKey) -> Dict[str, object]:
    return {"modulus": hex(public.modulus), "exponent": public.exponent}


def public_key_from_doc(doc: Dict[str, object]) -> RSAPublicKey:
    return RSAPublicKey(
        modulus=int(doc["modulus"], 16), exponent=int(doc["exponent"])
    )


def save_keypair(path: str, keypair: RSAKeyPair) -> None:
    """Persist the audit signer next to the WAL (atomic write + fsync).

    The chain can only be *resumed* (not merely verified) with the same
    signing key, so the keypair lives with the log it signs.  The write
    is atomic for the same reason the WAL exists: a torn key file would
    make an otherwise recoverable log unresumable.
    """
    doc = {
        "modulus": hex(keypair.private.modulus),
        "public_exponent": keypair.public.exponent,
        "private_exponent": hex(keypair.private.exponent),
        "prime_p": hex(keypair.private.prime_p),
        "prime_q": hex(keypair.private.prime_q),
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_keypair(path: str) -> RSAKeyPair:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    modulus = int(doc["modulus"], 16)
    public = RSAPublicKey(modulus=modulus, exponent=int(doc["public_exponent"]))
    private = RSAPrivateKey(
        modulus=modulus,
        exponent=int(doc["private_exponent"], 16),
        prime_p=int(doc["prime_p"], 16),
        prime_q=int(doc["prime_q"], 16),
    )
    return RSAKeyPair(public=public, private=private)


# ------------------------------------------------------------- the WAL


class WriteAheadLog:
    """Appender over a directory of CRC-framed, size-rotated segments.

    Opening an existing directory resumes appending at the end of the
    last segment — run :func:`repro.storage.recovery.recover` first so
    any torn tail has been truncated away.  Thread-safe: audit appends
    arrive through the :class:`~repro.coalition.audit.AuditLog` lock
    while epoch records arrive from publisher threads, so the WAL
    serializes writes under its own lock.
    """

    def __init__(
        self,
        wal_dir: str,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        sync_every: int = DEFAULT_SYNC_EVERY,
        sync_interval_s: float = 0.0,
    ):
        if segment_bytes < HEADER_BYTES + 1:
            raise WalError("segment_bytes too small to hold a frame")
        if sync_every < 0:
            raise WalError("sync_every must be >= 0 (0 = sync only on close)")
        self.wal_dir = os.fspath(wal_dir)
        self.segment_bytes = segment_bytes
        self.sync_every = sync_every
        self.sync_interval_s = sync_interval_s
        os.makedirs(self.wal_dir, exist_ok=True)
        self._lock = threading.Lock()
        segments = list_segments(self.wal_dir)
        if segments:
            self._segment_index = segment_index(segments[-1])
            current = segments[-1]
        else:
            self._segment_index = 1
            current = segment_path(self.wal_dir, 1)
        self._fh = open(current, "ab")
        self._size = self._fh.tell()
        self._closed = False
        # Counters (exposed via stats()).
        self.records_appended = 0
        self.bytes_appended = 0
        self.syncs = 0
        self.rotations = 0
        self._appends_since_sync = 0
        self._last_sync = time.monotonic()

    # ------------------------------------------------------------ append

    def append(self, kind: int, payload: bytes) -> Tuple[int, int]:
        """Append one framed record; returns ``(segment_index, offset)``.

        Every append reaches the OS (``flush``); ``fsync`` batches per
        the sync policy.  Rotation happens on frame boundaries only, so
        a frame never spans two segments.
        """
        frame = encode_frame(kind, payload)
        with self._lock:
            if self._closed:
                raise WalError("write-ahead log is closed")
            if self._size and self._size + len(frame) > self.segment_bytes:
                self._rotate_locked()
            offset = self._size
            index = self._segment_index
            self._fh.write(frame)
            self._fh.flush()
            self._size += len(frame)
            self.records_appended += 1
            self.bytes_appended += len(frame)
            self._appends_since_sync += 1
            self._maybe_sync_locked()
            return index, offset

    def append_meta(self, meta: Dict[str, object]) -> None:
        self.append(RT_META, _json_bytes(meta))

    def append_entry(self, entry: AuditEntry) -> None:
        self.append(RT_ENTRY, entry_to_payload(entry))

    def append_epoch(self, record: EpochRecord) -> None:
        self.append(RT_EPOCH, epoch_to_payload(record))

    def read_entries(self) -> List[AuditEntry]:
        """Every audit entry in the segments, in append order.

        A WAL-bound :class:`~repro.coalition.audit.AuditLog` keeps no
        entries in memory and reads them back through this.
        """
        entries: List[AuditEntry] = []
        with self._lock:
            for path in list_segments(self.wal_dir):
                with open(path, "rb") as handle:
                    data = handle.read()
                offset = 0
                while offset < len(data):
                    kind, payload, offset = decode_frame_at(data, offset)
                    if kind == RT_ENTRY:
                        entries.append(entry_from_payload(payload))
        return entries

    # ---------------------------------------------------------- syncing

    def _maybe_sync_locked(self) -> None:
        if self.sync_every and self._appends_since_sync >= self.sync_every:
            self._sync_locked()
        elif (
            self.sync_interval_s > 0
            and time.monotonic() - self._last_sync >= self.sync_interval_s
        ):
            self._sync_locked()

    def _sync_locked(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.syncs += 1
        self._appends_since_sync = 0
        self._last_sync = time.monotonic()

    def sync(self) -> None:
        """Force an fsync of the current segment."""
        with self._lock:
            if not self._closed:
                self._sync_locked()

    def _rotate_locked(self) -> None:
        self._sync_locked()
        self._fh.close()
        self._segment_index += 1
        self._fh = open(segment_path(self.wal_dir, self._segment_index), "ab")
        self._size = 0
        self.rotations += 1

    # --------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Sync and close (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._sync_locked()
            self._fh.close()
            self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- stats

    @property
    def current_segment(self) -> str:
        return segment_path(self.wal_dir, self._segment_index)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "records_appended": self.records_appended,
                "bytes_appended": self.bytes_appended,
                "syncs": self.syncs,
                "rotations": self.rotations,
                "segments": self._segment_index,
                "current_segment_bytes": self._size,
            }
