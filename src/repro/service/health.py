"""Liveness and readiness probes for the authorization service.

A service with per-shard circuit breakers (DESIGN.md §11) has more
failure states than "up" or "down": a shard can be serving,
backlogged, or failed with its breaker open.  This module condenses
that into the two questions an operator's probe actually asks:

* **liveness** — is the service making progress at all?  A shard
  counts as live while it can decide (the service is open and its
  breaker closed) or when its breaker is open (a failed-over shard
  still *answers* — with typed sheds — it just doesn't evaluate).
* **readiness** — should new traffic be routed here?  A shard is ready
  only when its breaker is closed, its queue has room, and the service
  is open.

Probes read live service state (queue lengths, breaker counters, epoch
ids) without taking the admission lock, so they are safe to call from
a monitoring thread at any rate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .service import AuthorizationService

__all__ = [
    "ShardHealth",
    "shard_health",
    "liveness",
    "readiness",
    "health_report",
]


@dataclass(frozen=True)
class ShardHealth:
    """One shard's probe-relevant state at a point in time."""

    shard: int
    worker_alive: bool
    queue_depth: int
    queue_limit: int
    crashes: int
    restarts: int
    breaker: str  # "closed" (serving) or "open" (failed over)
    epoch_staleness: int  # epochs behind current the oldest work runs at

    @property
    def live(self) -> bool:
        """Progress is being made, or failure is decided."""
        return self.worker_alive or self.breaker == "open"

    @property
    def ready(self) -> bool:
        """New traffic for this shard will be evaluated, not shed."""
        return (
            self.breaker == "closed"
            and self.queue_depth < self.queue_limit
            and self.worker_alive
        )


def shard_health(service: "AuthorizationService") -> List[ShardHealth]:
    """Probe every shard.

    Shards decide on the caller's thread: a shard is alive while the
    service is open and its breaker closed.
    """
    current_epoch = service.epochs.current.epoch_id
    out: List[ShardHealth] = []
    for shard in range(service.num_shards):
        breaker = service._breakers[shard]
        queue = service._queues[shard]
        # Staleness is measured at the oldest pending *work*: the head
        # queued ticket's admission-pinned epoch.  An idle shard has no
        # stale work (its next ticket pins the current epoch), so it
        # reports 0.
        head_epoch = queue.head_epoch_id()
        observed = head_epoch if head_epoch is not None else current_epoch
        out.append(
            ShardHealth(
                shard=shard,
                worker_alive=not service._closed and not breaker.is_open,
                queue_depth=len(queue),
                queue_limit=queue.depth,
                crashes=breaker.crashes,
                restarts=breaker.restarts,
                breaker=breaker.state,
                epoch_staleness=service.epochs.staleness_of(observed),
            )
        )
    return out


def liveness(service: "AuthorizationService") -> Dict[str, object]:
    """The "is it stuck" probe: False means work can strand."""
    shards = shard_health(service)
    return {
        "live": all(s.live for s in shards) and not service._closed,
        "workers_alive": sum(s.worker_alive for s in shards),
        "total_shards": len(shards),
    }


def readiness(service: "AuthorizationService") -> Dict[str, object]:
    """The "route traffic here" probe; degraded = some shards shed."""
    shards = shard_health(service)
    ready_count = sum(s.ready for s in shards)
    return {
        "ready": ready_count == len(shards) and not service._closed,
        "degraded": 0 < ready_count < len(shards),
        "ready_shards": ready_count,
        "total_shards": len(shards),
    }


def health_report(service: "AuthorizationService") -> Dict[str, object]:
    """The full probe payload: liveness + readiness + per-shard detail."""
    shards = shard_health(service)
    return {
        "name": service.name,
        "mode": service.mode,
        "liveness": liveness(service),
        "readiness": readiness(service),
        "shards": [
            dict(asdict(s), live=s.live, ready=s.ready) for s in shards
        ],
    }
