"""Revocation work follows the membership checked, not the history.

Revocations are indexed by their ground (subject, group), so one
believe-until-revoked check reads the revocations of its own
membership, and a revocation evicts the cached admissions of that
membership only, found by the same key.
"""

import pytest

from repro.coalition import build_joint_request
from repro.pki import ValidityPeriod

VALIDITY = ValidityPeriod(0, 10_000)


def _issue(coalition, subjects, threshold, group, now=0):
    return coalition.authority.issue_threshold_certificate(
        subjects, threshold, group, now, VALIDITY
    )


def _membership(cert):
    """The believed ``CP_{m,n} => G`` of a threshold certificate."""
    return cert.idealize().body.body


class TestRevocationCheckCost:
    def test_check_examines_same_candidates_after_10_and_200_revocations(
        self, formed_coalition
    ):
        coalition, server, domains, users = formed_coalition
        protocol = server.protocol
        store = protocol.engine.store
        # Revoked memberships share the checked one's group and differ
        # in subject: a group-keyed index would scan them all.
        victims = [
            domains[i % 3].register_user(f"victim{i}", now=0) for i in range(200)
        ]
        checked = _issue(coalition, users, 1, "G_read")
        membership = _membership(checked)

        def revoke(batch):
            for victim in batch:
                cert = _issue(coalition, [victim], 1, "G_read")
                protocol.apply_revocation(
                    coalition.authority.revoke_certificate(cert, now=6), now=6
                )

        def check_cost():
            before = store.stats()["candidates_examined"]
            assert protocol.engine.membership_revoked(
                membership, 7, stated_at=checked.timestamp
            ) is None
            return store.stats()["candidates_examined"] - before

        revoke(victims[:10])
        cost_at_10 = check_cost()
        revoke(victims[10:])
        assert store.stats()["full_scans"] == 0
        assert check_cost() == cost_at_10

    def test_own_revocation_is_found(self, formed_coalition):
        coalition, server, _d, users = formed_coalition
        protocol = server.protocol
        cert = _issue(coalition, users, 1, "G_read")
        protocol.apply_revocation(
            coalition.authority.revoke_certificate(cert, now=6), now=6
        )
        found = protocol.engine.membership_revoked(
            _membership(cert), 7, stated_at=cert.timestamp
        )
        assert found is not None
        assert protocol.engine.membership_revoked(
            _membership(cert), 5, stated_at=cert.timestamp
        ) is None


class TestKeyedEviction:
    @pytest.fixture()
    def warm(self, formed_coalition):
        """A protocol whose cache holds four memberships' admissions."""
        coalition, server, _d, users = formed_coalition
        protocol = server.protocol
        acl = server.object_acl("ObjectO")
        certs = {
            "read-all": _issue(coalition, users, 1, "G_read"),
            # Same (subject, group) as read-all, issued later.
            "read-all-again": _issue(coalition, users, 1, "G_read", now=1),
            "read-pair": _issue(coalition, users[:2], 1, "G_read"),
            "write-all": _issue(coalition, users, 2, "G_write"),
        }
        for k, (name, cert) in enumerate(certs.items()):
            op = "write" if cert.group == "G_write" else "read"
            request = build_joint_request(
                users[0], users[1 : cert.threshold], op, "ObjectO", cert,
                now=5, nonce=f"warm-{k}",
            )
            assert protocol.authorize(request, acl, now=5).granted, name
        return coalition, protocol, certs, users, acl

    def test_fork_evicts_only_the_revoked_membership(self, warm):
        coalition, protocol, certs, users, acl = warm
        parent_cache = dict(protocol._cert_cache)
        assert all(cert in parent_cache for cert in certs.values())
        fork = protocol.fork()
        fork.apply_revocation(
            coalition.authority.revoke_certificate(certs["read-all"], now=6), now=6
        )
        gone = set(parent_cache) - set(fork._cert_cache)
        assert gone == {certs["read-all"], certs["read-all-again"]}
        # Identity admissions and the other memberships stay cached.
        assert all(u.identity_certificate in fork._cert_cache for u in users[:2])
        # The parent epoch still serves its cache, unchanged.
        assert protocol._cert_cache == parent_cache

    def test_evicted_membership_is_readmitted_and_evicted_again(self, warm):
        coalition, protocol, certs, users, acl = warm
        cert = certs["read-pair"]
        protocol.apply_revocation(
            coalition.authority.revoke_certificate(cert, now=6), now=6
        )
        assert cert not in protocol._cert_cache
        fresh = _issue(coalition, users[:2], 1, "G_read", now=7)
        request = build_joint_request(users[0], [], "read", "ObjectO", fresh, now=8, nonce="re")
        assert protocol.authorize(request, acl, now=8).granted
        assert fresh in protocol._cert_cache
        protocol.apply_revocation(
            coalition.authority.revoke_certificate(fresh, now=9), now=9
        )
        assert fresh not in protocol._cert_cache
        assert certs["read-all"] in protocol._cert_cache

    def test_identity_revocation_still_matches(self, warm):
        """Negations of key bindings keep the ``match`` scan."""
        coalition, protocol, certs, users, acl = warm
        domain_ca = coalition.domains[0].ca
        revocation = domain_ca.revoke(users[0].identity_certificate.serial, now=6)
        protocol.apply_revocation(revocation, now=6)
        assert users[0].identity_certificate not in protocol._cert_cache
        assert users[1].identity_certificate in protocol._cert_cache
        assert certs["read-all"] in protocol._cert_cache

