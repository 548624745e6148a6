"""Shard routing.

Shards are admission partitions: each has its own queue, circuit
breaker and dedup table, while every shard decides against the epoch's
one protocol (:mod:`repro.service.epoch`).  Requests shard by
**resource key** (object name, falling back to the certified group for
object-less requests): all traffic for one object lands in one queue,
so per-object evaluation order matches admission order.  The hash is
CRC32, not Python's salted ``hash()``, so placement is stable across
processes and runs — benchmarks and the parity fuzzer rely on that.

The service decides every shard's queue on the caller's thread, in
global sequence order (``AuthorizationService._drain_queues``).
"""

from __future__ import annotations

import zlib

from ..coalition.requests import JointAccessRequest

__all__ = ["shard_key", "shard_for"]


def shard_key(request: JointAccessRequest) -> str:
    """The routing key: the resource, else the certified group."""
    return request.object_name or request.attribute_certificate.group


def shard_for(request: JointAccessRequest, num_shards: int) -> int:
    """Stable shard placement for ``request`` in ``[0, num_shards)``."""
    key = shard_key(request)
    return zlib.crc32(key.encode("utf-8")) % num_shards

