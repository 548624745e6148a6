"""Liveness and readiness probes for the authorization service.

A supervised service (DESIGN.md §11) has more failure states than
"up" or "down": a shard can be serving, backlogged, mid-restart
(backoff pending), or failed with its circuit breaker open.  This
module condenses that into the two questions an operator's probe
actually asks:

* **liveness** — is the service making progress at all?  A shard
  counts as live while it can decide (its worker process runs, or, in
  threaded and manual modes, the service is open and the breaker
  closed), while a supervisor restart is pending, or when its breaker
  is open (a failed-over shard still *answers* — with typed sheds — it
  just doesn't evaluate).  Only a dead worker process nobody will
  restart makes the service not-live.
* **readiness** — should new traffic be routed here?  A shard is ready
  only when its breaker is closed, its queue has room, and it can
  decide (or its worker process is about to be restarted).

Probes read live service state (queue lengths, process liveness,
breaker counters, epoch ids) without taking the admission lock, so
they are safe to call from a monitoring thread at any rate.
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
    restart_pending: bool
    queue_depth: int
    queue_limit: int
    crashes: int
    restarts: int
    breaker: str  # "closed" (serving) or "open" (failed over)
    pinned_epoch_id: int  # epoch the worker was (re)started against
    epoch_staleness: int  # epochs behind current the oldest work runs at

    @property
    def live(self) -> bool:
        """Progress is being (or will be) made, or failure is decided."""
        return self.worker_alive or self.restart_pending or self.breaker == "open"

    @property
    def ready(self) -> bool:
        """New traffic for this shard will be evaluated, not shed."""
        return (
            self.breaker == "closed"
            and self.queue_depth < self.queue_limit
            and (self.worker_alive or self.restart_pending)
        )


def shard_health(service: "AuthorizationService") -> List[ShardHealth]:
    """Probe every shard.

    Threaded and manual modes decide on the caller's thread: a shard
    there is alive while the service is open and its breaker closed.
    """
    current_epoch = service.epochs.current.epoch_id
    supervisor = service.supervisor
    out: List[ShardHealth] = []
    for shard in range(service.num_shards):
        worker = service._workers[shard]
        breaker = service._breakers[shard]
        if service.mode == "process":
            alive = worker is not None and worker.is_alive()
            pinned = worker.epoch_id if worker is not None else current_epoch
        else:
            alive = not service._closed and not breaker.is_open
            pinned = current_epoch
        queue = service._queues[shard]
        # Staleness is measured at the oldest pending *work*: the head
        # queued ticket's admission-pinned epoch.  An idle shard has no
        # stale work (its next ticket pins the current epoch), so it
        # reports 0 regardless of when its worker last (re)started.
        head_epoch = queue.head_epoch_id()
        observed = head_epoch if head_epoch is not None else current_epoch
        out.append(
            ShardHealth(
                shard=shard,
                worker_alive=alive,
                restart_pending=(
                    supervisor is not None and supervisor.restart_pending(shard)
                ),
                queue_depth=len(queue),
                queue_limit=queue.depth,
                crashes=breaker.crashes,
                restarts=breaker.restarts,
                breaker=breaker.state,
                pinned_epoch_id=pinned,
                epoch_staleness=service.epochs.staleness_of(observed),
            )
        )
    return out


def liveness(service: "AuthorizationService") -> Dict[str, object]:
    """The "is it stuck" probe: False means work can strand."""
    shards = shard_health(service)
    supervisor = service.supervisor
    return {
        "live": all(s.live for s in shards) and not service._closed,
        "workers_alive": sum(s.worker_alive for s in shards),
        "supervisor_alive": supervisor is not None and supervisor.is_alive(),
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
        "supervised": service._supervise,
        "liveness": liveness(service),
        "readiness": readiness(service),
        "shards": [
            dict(asdict(s), live=s.live, ready=s.ready) for s in shards
        ],
    }
