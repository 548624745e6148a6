"""Public-API surface checks: every exported name exists and imports.

Guards against export rot: a renamed symbol that leaves a stale entry
in some ``__all__`` fails here rather than at a user's import site.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.core.axioms",
    "repro.core.checker",
    "repro.core.derivation",
    "repro.core.formulas",
    "repro.core.messages",
    "repro.core.patterns",
    "repro.core.proofs",
    "repro.core.store",
    "repro.core.syntax",
    "repro.core.temporal",
    "repro.core.terms",
    "repro.crypto",
    "repro.crypto.bgw",
    "repro.crypto.biprimality",
    "repro.crypto.boneh_franklin",
    "repro.crypto.hashing",
    "repro.crypto.joint_signature",
    "repro.crypto.numtheory",
    "repro.crypto.refresh",
    "repro.crypto.rsa",
    "repro.crypto.sharing",
    "repro.crypto.threshold",
    "repro.crypto.trial_division",
    "repro.pki",
    "repro.pki.authorities",
    "repro.pki.certificates",
    "repro.pki.encoding",
    "repro.pki.serialization",
    "repro.pki.store",
    "repro.pki.validation",
    "repro.coalition",
    "repro.coalition.acl",
    "repro.coalition.audit",
    "repro.coalition.authority",
    "repro.coalition.directory_service",
    "repro.coalition.domain",
    "repro.coalition.dynamics",
    "repro.coalition.netflow",
    "repro.coalition.policies",
    "repro.coalition.protocol",
    "repro.coalition.requests",
    "repro.coalition.server",
    "repro.coalition.threshold_authority",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.service",
    "repro.service.admission",
    "repro.service.chaos",
    "repro.service.epoch",
    "repro.service.health",
    "repro.service.fixture",
    "repro.service.service",
    "repro.storage",
    "repro.storage.wal",
    "repro.storage.recovery",
    "repro.storage.replay",
    "repro.semantics",
    "repro.semantics.bridge",
    "repro.semantics.events",
    "repro.semantics.generators",
    "repro.semantics.runs",
    "repro.semantics.soundness",
    "repro.semantics.truth",
    "repro.sim",
    "repro.sim.clock",
    "repro.sim.network",
    "repro.baselines",
    "repro.baselines.lockbox",
    "repro.baselines.spki",
    "repro.baselines.unilateral",
    "repro.analysis",
    "repro.analysis.availability",
    "repro.analysis.collusion",
    "repro.analysis.compromise",
    "repro.analysis.dynamics_cost",
    "repro.analysis.protocol_costs",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PACKAGES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", PACKAGES)
def test_all_exports_exist(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists {name!r}"


def test_deleted_service_modules_stay_gone():
    import repro.service

    for name in ("repro.service.procworker", "repro.service.supervisor"):
        with pytest.raises(ImportError):
            importlib.import_module(name)
    assert not {"RestartEvent", "WorkerSupervisor"} & set(repro.service.__all__)


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"
