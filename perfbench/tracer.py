"""Spans around calls into ``repro``'s layers, installed from outside.

:class:`Tracer` replaces public functions and methods of the program's
modules with timing wrappers (and puts the originals back on
:meth:`Tracer.uninstall`), so tracing needs no change to ``src/``.
Each thread keeps its own stack of open spans, because shard workers
run ``authorize`` on their own threads; a span's self time is its
duration minus the time of the spans it encloses.

Spans are kept in memory, in per-thread ``array`` buffers that the
garbage collector does not track (so tracing does not lengthen gen-2
pauses), and written out at the end with :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

# (span name, module, attribute path).  A dotted attribute path names a
# method; a plain name is a module-level function, which is replaced in
# every loaded ``repro`` module that imported it by name.
TARGETS: List[Tuple[str, str, str]] = [
    ("wire.decode_body", "repro.service.wire", "decode_body"),
    ("wire.request_from_dict", "repro.service.wire", "request_from_dict"),
    ("wire.decision_to_dict", "repro.service.wire", "decision_to_dict"),
    ("wire.encode_frame", "repro.service.wire", "encode_frame"),
    ("service.submit_batch", "repro.service.service", "AuthorizationService.submit_batch"),
    ("protocol.authorize", "repro.coalition.protocol", "AuthorizationProtocol.authorize"),
    ("protocol.apply_revocation", "repro.coalition.protocol",
     "AuthorizationProtocol.apply_revocation"),
    ("epoch.publish", "repro.service.epoch", "EpochManager.publish_mutation"),
    ("epoch.fork", "repro.coalition.protocol", "AuthorizationProtocol.fork"),
    ("pki.validate_certificate", "repro.pki.validation", "validate_certificate"),
    ("pki.canonical_bytes", "repro.pki.serialization", "canonical_bytes"),
    ("crypto.verify", "repro.crypto.rsa", "RSAPublicKey.verify"),
    ("crypto.verify", "repro.crypto.threshold", "ThresholdPublicKey.verify"),
    ("crypto.verify", "repro.crypto.boneh_franklin", "SharedRSAPublicKey.verify"),
    ("crypto.sign", "repro.crypto.rsa", "RSAPrivateKey.sign"),
    ("core.admit_utterance", "repro.core.derivation",
     "DerivationEngine.admit_signed_utterance"),
    ("core.admit_certificate", "repro.core.derivation", "DerivationEngine.admit_certificate"),
    ("core.derive_group_says", "repro.core.derivation", "DerivationEngine.derive_group_says"),
    ("core.membership_revoked", "repro.core.derivation", "DerivationEngine.membership_revoked"),
    ("audit.append", "repro.coalition.audit", "AuditLog.append"),
    ("wal.append", "repro.storage.wal", "WriteAheadLog.append"),
    ("wal.sync", "repro.storage.wal", "WriteAheadLog._sync_locked"),
]

ROOT = -1  # parent id of a span with no enclosing span


class _ThreadBuffer:
    """One thread's open-span stack and finished spans."""

    __slots__ = ("stack", "names", "parents", "times", "suppress", "thread")

    def __init__(self, thread: str):
        self.stack: List[list] = []  # [name id, child seconds]
        self.names = array("i")
        self.parents = array("i")
        self.times = array("d")  # start, end, self seconds per span
        self.suppress = 0
        self.thread = thread


class Tracer:
    """Installs span wrappers; aggregates them per name and parent."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._originals: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------- install

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.current_thread().name)
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            if buf.suppress:
                return fn(*args, **kwargs)
            frame = [nid, 0.0]
            buf.stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                buf.stack.pop()
                duration = t1 - t0
                if buf.stack:
                    parent = buf.stack[-1]
                    parent[1] += duration
                    buf.parents.append(parent[0])
                else:
                    buf.parents.append(ROOT)
                buf.names.append(nid)
                buf.times.extend((t0, t1, duration - frame[1]))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target (idempotent)."""
        if self._originals:
            return
        for name, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self.wrap(name, original))
                self._originals.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("repro") and getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)
                    self._originals.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    @contextmanager
    def suppressed(self):
        """Calls on this thread inside the block are not traced."""
        buf = self._buffer()
        buf.suppress += 1
        try:
            yield
        finally:
            buf.suppress -= 1

    # ------------------------------------------------------- results

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds, total by parent."""
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            times = buf.times
            for k, (nid, pid) in enumerate(zip(buf.names, buf.parents)):
                entry = out.setdefault(
                    self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                duration = times[3 * k + 1] - times[3 * k]
                entry["calls"] += 1
                entry["total_s"] += duration
                entry["self_s"] += times[3 * k + 2]
                parent = self.names[pid] if pid != ROOT else "root"
                key = f"under:{parent}"
                entry[key] = entry.get(key, 0.0) + duration
        return out

    def dump(self, path: str) -> int:
        """Write every span as one JSON line; returns the span count."""
        count = 0
        with self._lock:
            buffers = list(self._buffers)
        with open(path, "w", encoding="utf-8") as handle:
            for buf in buffers:
                times = buf.times
                for k, (nid, pid) in enumerate(zip(buf.names, buf.parents)):
                    handle.write(json.dumps({
                        "name": self.names[nid],
                        "parent": self.names[pid] if pid != ROOT else None,
                        "thread": buf.thread,
                        "start": times[3 * k],
                        "end": times[3 * k + 1],
                        "self": times[3 * k + 2],
                    }) + "\n")
                    count += 1
        return count
