"""Tests for the independent proof checker."""

import dataclasses

import pytest

from repro.core import check_proof, ProofChecker, ProofCheckError
from repro.core.formulas import Says
from repro.core.messages import Data
from repro.core.proofs import ProofStep
from repro.core.temporal import at
from repro.core.terms import Group


@pytest.fixture()
def granted(formed_coalition, write_certificate):
    from repro.coalition import build_joint_request

    _c, server, _d, users = formed_coalition
    request = build_joint_request(
        users[0], [users[1]], "write", "ObjectO", write_certificate, now=5
    )
    decision = server.protocol.authorize(
        request, server.object_acl("ObjectO"), now=6
    )
    assert decision.granted
    return server, decision


class TestRealProofs:
    def test_structure_check(self, granted):
        server, decision = granted
        aliases = server.protocol.engine.alias_map()
        assert check_proof(decision.proof, aliases=aliases)

    def test_premise_aware_check(self, granted):
        server, decision = granted
        assert server.protocol.audit(decision)

    def test_steps_counted(self, granted):
        server, decision = granted
        checker = ProofChecker(
            trusted_premises=server.protocol.trusted_premises(decision),
            aliases=server.protocol.engine.alias_map(),
        )
        checker.check(decision.proof)
        assert checker.steps_checked == decision.proof.size()


class TestTamperDetection:
    def test_forged_conclusion_rejected(self, granted):
        server, decision = granted
        forged = dataclasses.replace(
            decision.proof,
            conclusion=Says(Group("G_admin"), at(6), Data('"write" ObjectO')),
        )
        with pytest.raises(ProofCheckError):
            check_proof(forged, aliases=server.protocol.engine.alias_map())

    def test_fabricated_premise_rejected(self, granted):
        """A premise the verifier never believed fails the audit."""
        server, decision = granted
        fake_leaf = ProofStep(Data("fabricated"), "premise")
        forged = dataclasses.replace(
            decision.proof, premises=(*decision.proof.premises, fake_leaf)
        )
        checker = ProofChecker(
            trusted_premises=set(server.protocol.engine.store.snapshot()),
            aliases=server.protocol.engine.alias_map(),
        )
        with pytest.raises(ProofCheckError, match="untrusted premise"):
            checker.check(forged)

    def test_unknown_rule_rejected(self):
        bogus = ProofStep(Data("x"), "A99")
        with pytest.raises(ProofCheckError, match="unknown rule"):
            check_proof(bogus)

    def test_premise_with_children_rejected(self):
        child = ProofStep(Data("c"), "premise")
        bad = ProofStep(Data("x"), "premise", (child,))
        with pytest.raises(ProofCheckError, match="leaves"):
            check_proof(bad)

    def test_wrong_a38_premises_rejected(self, granted):
        """Swapping the membership premise for a data leaf fails A38."""
        server, decision = granted
        fake = ProofStep(Data("not-a-membership"), "premise")
        forged = dataclasses.replace(
            decision.proof, premises=(fake, *decision.proof.premises[1:])
        )
        with pytest.raises(ProofCheckError):
            check_proof(forged, aliases=server.protocol.engine.alias_map())


class TestRevocationProofs:
    def test_revocation_proof_audits(self, formed_coalition, write_certificate):
        coalition, server, _d, _users = formed_coalition
        revocation = coalition.authority.revoke_certificate(
            write_certificate, now=10
        )
        proof = server.protocol.apply_revocation(revocation, now=11)
        checker = ProofChecker(
            trusted_premises=set(server.protocol.engine.store.snapshot()),
            aliases=server.protocol.engine.alias_map(),
        )
        assert checker.check(proof)
