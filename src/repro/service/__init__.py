"""repro.service — the epoched authorization serving layer.

Sits in front of :class:`repro.coalition.protocol.AuthorizationProtocol`
and provides what a single per-request protocol instance cannot:

* immutable epoch snapshots of policy state, one protocol per epoch,
  so revocations and ACL changes apply atomically and once
  (``epoch``),
* one bounded admission queue with typed ``Overloaded`` load shedding,
  decided in sequence order on the submitting thread (``admission``),
* per-ticket fault isolation (typed ``Errored`` outcomes), a restart
  budget with circuit breaking (``admission``), a liveness and
  readiness probe (``health``), and a deterministic fault injector for
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
    AdmissionQueue,
    CircuitBreaker,
    CircuitOpen,
    Errored,
    Overloaded,
    Ticket,
)
from .chaos import ChaosConfig, FaultInjector, InjectedFault, WorkerKilled
from .edge import EdgeHandle, EdgeServer, serve_in_thread
from .epoch import Epoch, EpochManager, PolicyEntry
from .health import health_report
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
from .wire import ClientBundle, EdgeClient, ProtocolError

__all__ = [
    "AuthorizationService",
    "ServiceError",
    "Overloaded",
    "CircuitOpen",
    "Errored",
    "Ticket",
    "AdmissionQueue",
    "ChaosConfig",
    "FaultInjector",
    "InjectedFault",
    "WorkerKilled",
    "Epoch",
    "EpochManager",
    "PolicyEntry",
    "health_report",
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
    "CircuitBreaker",
]
