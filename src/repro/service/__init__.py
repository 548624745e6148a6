"""repro.service — the sharded, epoched authorization serving layer.

Sits in front of :class:`repro.coalition.protocol.AuthorizationProtocol`
and provides what a single per-request protocol instance cannot:

* shards keyed by resource, partitioning admission and decided on the
  submitting thread (``sharding``),
* immutable epoch snapshots of policy state, one protocol per epoch
  shared by every shard, so revocations and ACL changes apply
  atomically and once (``epoch``),
* bounded admission queues with typed ``Overloaded`` load shedding and
  in-flight dedup (``admission``),
* per-ticket fault isolation (typed ``Errored`` outcomes), restart
  budgets with circuit breaking (``admission``), liveness and
  readiness probes (``health``), and a deterministic fault injector for
  adversarial testing (``chaos``),
* an asyncio TCP front door speaking a length-prefixed JSON protocol
  (``edge``/``wire``),
* the three-domain read/write coalition and its deterministic request
  stream that the CLI, WAL replay and benchmarks serve (``fixture``),
* a seedable scenario engine replaying coalition life — membership
  storms, flash crowds, federation, adversaries — under standing
  invariants (``scenarios``).

See DESIGN.md §9 for the architecture and request lifecycle, §11 for
the failure model, §14 for the network edge, §15 for the scenario
engine.
"""

from .admission import (
    CircuitBreaker,
    CircuitOpen,
    Errored,
    Overloaded,
    ShardQueue,
    Ticket,
    request_fingerprint,
)
from .chaos import ChaosConfig, FaultInjector, InjectedFault, WorkerKilled
from .edge import EdgeHandle, EdgeServer, serve_in_thread
from .epoch import Epoch, EpochManager, PolicyEntry
from .health import ShardHealth, health_report, liveness, readiness
from .fixture import CoalitionFixture, attach_coalition
from .scenarios import (
    SCENARIOS,
    DynamicsBridge,
    ScenarioReport,
    ScenarioRunner,
    ScenarioSpec,
    list_scenarios,
    run_scenario,
)
from .service import AuthorizationService, ServiceError
from .sharding import shard_for, shard_key
from .wire import ClientBundle, EdgeClient, ProtocolError

__all__ = [
    "AuthorizationService",
    "ServiceError",
    "Overloaded",
    "CircuitOpen",
    "Errored",
    "Ticket",
    "ShardQueue",
    "request_fingerprint",
    "ChaosConfig",
    "FaultInjector",
    "InjectedFault",
    "WorkerKilled",
    "Epoch",
    "EpochManager",
    "PolicyEntry",
    "ShardHealth",
    "health_report",
    "liveness",
    "readiness",
    "CoalitionFixture",
    "attach_coalition",
    "SCENARIOS",
    "DynamicsBridge",
    "ScenarioReport",
    "ScenarioRunner",
    "ScenarioSpec",
    "list_scenarios",
    "run_scenario",
    "EdgeServer",
    "EdgeHandle",
    "serve_in_thread",
    "EdgeClient",
    "ClientBundle",
    "ProtocolError",
    "shard_for",
    "shard_key",
    "CircuitBreaker",
]
