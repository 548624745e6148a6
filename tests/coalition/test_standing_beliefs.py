"""The verifier's belief store holds standing beliefs only.

What one request derives (receipts, said/says pairs, the A38
conclusion) is dropped with its decision, and jurisdiction instances
live in proof trees only.  So the store's size, and the work of
admitting a revocation, follow the certificate population rather than
the traffic served.
"""

import dataclasses

import pytest

from repro.coalition import ACLEntry, build_joint_request
from repro.core import ProofCheckError, check_proof
from repro.core.formulas import Not, Received, SpeaksForGroup
from repro.core.store import RequestBeliefs
from repro.core.temporal import Temporal
from repro.pki import ValidityPeriod
from repro.service import AuthorizationService


def _read(users, cert, nonce, now=5):
    return build_joint_request(
        users[0], [], "read", "ObjectO", cert, now=now, nonce=nonce
    )


def _issue_read_cert(coalition, users, until=1_000):
    return coalition.authority.issue_threshold_certificate(
        subjects=users,
        threshold=1,
        group="G_read",
        now=0,
        validity=ValidityPeriod(0, until),
    )


# Each grant is stated at its own time: same-time parts of one user
# idealize to the same formula, which even a store keeping every
# derivation would hold once.
class TestStoreSizeFollowsCertificates:
    @pytest.fixture()
    def long_cert(self, formed_coalition):
        coalition, _server, _d, users = formed_coalition
        return _issue_read_cert(coalition, users, until=10_000)

    def test_server_store_flat_from_10_to_1000_grants(
        self, formed_coalition, long_cert
    ):
        _c, server, _d, users = formed_coalition
        store = server.protocol.engine.store
        acl = server.object_acl("ObjectO")

        def grant(times):
            for now in times:
                request = _read(users, long_cert, f"srv-{now}", now=now)
                decision = server.protocol.authorize(request, acl, now=now)
                assert decision.granted, decision.reason

        grant(range(1, 11))
        after_10 = len(store)
        grant(range(11, 1_001))
        assert len(store) == after_10

    def test_threaded_shard_store_flat_from_10_to_1000_grants(
        self, formed_coalition, long_cert
    ):
        coalition, _server, _d, users = formed_coalition
        service = AuthorizationService(queue_depth=64)
        try:
            coalition.attach_server(service)
            service.register_object(
                "ObjectO", [ACLEntry.of("G_read", ["read"])], admin_group="G_admin"
            )

            def grant(times):
                tickets = [
                    service.submit(
                        _read(users, long_cert, f"svc-{now}", now=now), now=now
                    )
                    for now in times
                ]
                assert service.drain(timeout=60)
                assert all(t.result(0).granted for t in tickets)

            def service_store():
                return service.epochs.current.protocol.engine.store

            grant(range(1, 11))
            after_10 = len(service_store())
            for start in range(11, 1_001, 60):
                grant(range(start, min(start + 60, 1_001)))
            assert len(service_store()) == after_10
        finally:
            service.close()


class TestRevocationCostFollowsCertificates:
    def test_revocation_examines_same_candidates_after_10_and_200_certs(
        self, formed_coalition
    ):
        coalition, server, _d, users = formed_coalition
        protocol = server.protocol
        acl = server.object_acl("ObjectO")
        nonce = iter(range(10_000))

        def admit(count):
            # Distinct validity windows: otherwise every certificate
            # idealizes to the same beliefs and the store dedupes them.
            certs = [
                _issue_read_cert(coalition, users, until=1_000 + next(nonce))
                for _ in range(count)
            ]
            for cert in certs:
                request = _read(users, cert, f"admit-{next(nonce)}")
                assert protocol.authorize(request, acl, now=5).granted
            return certs

        def revocation_cost(cert):
            revocation = coalition.authority.revoke_certificate(cert, now=6)
            before = protocol.engine.store.stats()["candidates_examined"]
            protocol.apply_revocation(revocation, now=6)
            return protocol.engine.store.stats()["candidates_examined"] - before

        first = admit(10)
        cost_at_10 = revocation_cost(first[0])
        size_at_10 = len(protocol.engine.store)
        later = admit(190)
        # Each certificate's receipt and payload are standing beliefs;
        # its admission chain lives in the proof tree only.
        assert len(protocol.engine.store) - size_at_10 == 2 * 190
        assert revocation_cost(later[0]) == cost_at_10


class TestAdmissionFootprint:
    """An admission stores its receipt and its conclusion, nothing between."""

    @staticmethod
    def _receipt(protocol, cert, now):
        verifier = protocol.engine.owner
        return Received(verifier, Temporal.point(now, verifier), cert.idealize())

    @pytest.fixture()
    def granted(self, formed_coalition, read_certificate):
        # A first grant admits the users' identity certificates, so a
        # later certificate's admission adds its own beliefs only.
        coalition, server, _d, users = formed_coalition
        protocol = server.protocol
        acl = server.object_acl("ObjectO")
        warm = _read(users, read_certificate, "warm")
        assert protocol.authorize(warm, acl, now=5).granted
        cert = _issue_read_cert(coalition, users, until=2_000)
        before = set(protocol.engine.store)
        assert protocol.authorize(_read(users, cert, "first"), acl, now=5).granted
        added = set(protocol.engine.store) - before
        return coalition, protocol, acl, users, cert, added

    def test_first_grant_adds_receipt_and_membership(self, granted):
        _c, protocol, _acl, _users, cert, added = granted
        membership = cert.idealize().body.body
        assert isinstance(membership, SpeaksForGroup)
        assert added == {self._receipt(protocol, cert, 5), membership}

    def test_revocation_adds_receipt_and_negation(self, granted):
        coalition, protocol, _acl, _users, cert, _added = granted
        revocation = coalition.authority.revoke_certificate(cert, now=6)
        before = set(protocol.engine.store)
        protocol.apply_revocation(revocation, now=6)
        negation = revocation.idealize().body.body
        assert isinstance(negation, Not)
        assert set(protocol.engine.store) - before == {
            self._receipt(protocol, revocation, 6),
            negation,
        }

    def test_revoked_certificate_represented_adds_its_receipt(self, granted):
        coalition, protocol, acl, users, cert, _added = granted
        revocation = coalition.authority.revoke_certificate(cert, now=6)
        protocol.apply_revocation(revocation, now=6)
        before = set(protocol.engine.store)
        again = protocol.authorize(_read(users, cert, "again", now=7), acl, now=7)
        assert not again.granted
        assert set(protocol.engine.store) - before == {
            self._receipt(protocol, cert, 7)
        }


class TestAuditTrustsOwnReceipts:
    @pytest.fixture()
    def two_grants(self, formed_coalition, read_certificate):
        _c, server, _d, users = formed_coalition
        acl = server.object_acl("ObjectO")
        # Different times: a part's receipt carries its statement time.
        decisions = [
            server.protocol.authorize(
                _read(users, read_certificate, nonce, now=now), acl, now=now
            )
            for nonce, now in (("first", 5), ("second", 6))
        ]
        assert all(d.granted for d in decisions)
        return server, users, read_certificate, decisions

    def test_each_grant_audits_with_its_receipts(self, two_grants):
        server, _users, _cert, decisions = two_grants
        for decision in decisions:
            assert decision.receipts
            assert server.protocol.audit(decision)

    def test_receipts_of_another_request_rejected(self, two_grants):
        server, _users, _cert, (first, second) = two_grants
        for crossed in (
            dataclasses.replace(first, receipts=second.receipts),
            dataclasses.replace(first, receipts=second.receipts, nonce=second.nonce),
        ):
            with pytest.raises(ProofCheckError, match="untrusted premise"):
                server.protocol.audit(crossed)

    def test_proof_and_receipts_forged_together_rejected(self, two_grants):
        """A sound proof of a request never received, with its receipt."""
        server, users, cert, (first, _second) = two_grants
        engine = server.protocol.engine
        unsent = _read(users, cert, "never-sent", now=7)
        beliefs = RequestBeliefs()
        _body, says = engine.admit_signed_utterance(
            unsent.parts[0].idealize(), 7, beliefs
        )
        membership = first.proof.premises[0]
        forged_proof = engine.derive_group_says(membership, [says])
        assert check_proof(forged_proof, aliases=engine.alias_map())
        for nonce in (first.nonce, "never-sent"):
            forged = dataclasses.replace(
                first, proof=forged_proof, receipts=beliefs.premises(), nonce=nonce
            )
            with pytest.raises(ProofCheckError, match="untrusted premise"):
                server.protocol.audit(forged)

    def test_receipts_are_not_standing_beliefs(self, two_grants):
        server, _users, _cert, decisions = two_grants
        store = server.protocol.engine.store
        for decision in decisions:
            assert not any(receipt in store for receipt in decision.receipts)

    def test_receipts_forgotten_with_their_nonce(self, two_grants):
        server, _users, _cert, (first, _second) = two_grants
        ledger = server.protocol.nonces
        ledger.purge(now=first.checked_at + 2 * ledger.freshness_window + 1)
        with pytest.raises(ProofCheckError, match="untrusted premise"):
            server.protocol.audit(first)
