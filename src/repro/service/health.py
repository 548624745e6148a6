"""Liveness and readiness probes for the authorization service.

A service with a circuit breaker (DESIGN.md §11) has more failure
states than "up" or "down": it can be serving, backlogged, or failed
over with its breaker open.  :func:`health_report` condenses that into
one flat report answering the two questions an operator's probe asks:

* ``live`` — is the service making progress at all?  It is while the
  service is open: with the breaker closed it decides, and with the
  breaker open it still *answers* — with typed sheds — it just doesn't
  evaluate.
* ``ready`` — should new traffic be routed here?  Only when the
  service is open, its breaker closed and its queue has room.

The rest of the report says why: ``breaker``, ``crashes``,
``restarts``, ``queue_depth``/``queue_limit`` and ``epoch_staleness``.
The probe reads live service state (queue length, breaker counters,
epoch ids) without taking the admission lock, so it is safe to call
from a monitoring thread at any rate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .service import AuthorizationService

__all__ = ["health_report"]


def health_report(service: "AuthorizationService") -> Dict[str, object]:
    """The probe payload of ``healthz``, ``readyz`` and ``health``."""
    breaker = service._breaker
    queue = service._queue
    open_ = not service._closed
    queue_depth = len(queue)
    # Staleness is measured at the oldest pending *work*: the head
    # queued ticket's admission-pinned epoch.  An idle queue has no
    # stale work (its next ticket pins the current epoch), so it
    # reports 0.
    head_epoch = queue.head_epoch_id()
    if head_epoch is None:
        head_epoch = service.epochs.current.epoch_id
    return {
        "name": service.name,
        "mode": service.mode,
        "live": open_,
        "ready": open_ and not breaker.is_open and queue_depth < queue.depth,
        "breaker": breaker.state,
        "crashes": breaker.crashes,
        "restarts": breaker.restarts,
        "queue_depth": queue_depth,
        "queue_limit": queue.depth,
        "epoch_staleness": service.epochs.staleness_of(head_epoch),
    }
