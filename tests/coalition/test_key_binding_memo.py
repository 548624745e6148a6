"""The per-key memo of key bindings follows identity revocations.

``BeliefStore.key_bindings`` remembers, per key, the believed bindings
and the times their revocations take effect, until the store next adds
a binding or a revocation of one.  A memo that outlived such an add
would keep granting a revoked key or keep denying a re-issued one; a
memo shared between an epoch and its fork would leak a revocation
across epochs.
"""

from repro.coalition import build_joint_request
from repro.core.terms import KeyRef
from repro.pki import ValidityPeriod


def _write(users, signers, cert, now):
    first, *others = signers
    return build_joint_request(
        users[first], [users[i] for i in others], "write", "ObjectO", cert,
        now=now, nonce=f"memo-{now}",
    )


def _revoke_u1(server, domains, users, now):
    revocation = domains[0].ca.revoke(users[0].identity_certificate.serial, now=now)
    server.protocol.apply_revocation(revocation, now=now)


def test_revoked_identity_denied_after_the_binding_was_used(
    formed_coalition, write_certificate
):
    _c, server, domains, users = formed_coalition
    protocol, acl = server.protocol, server.object_acl("ObjectO")
    assert protocol.authorize(_write(users, [0, 1], write_certificate, 5), acl, 5)
    assert protocol.engine.store._key_bindings  # the memo is warm

    _revoke_u1(server, domains, users, now=10)
    denied = protocol.authorize(_write(users, [0, 1], write_certificate, 11), acl, 11)
    assert not denied.granted
    assert "no key binding for K_User_D1" in denied.reason
    # The other users' bindings are untouched.
    assert protocol.authorize(_write(users, [1, 2], write_certificate, 12), acl, 12)


def test_reissued_identity_granted_again(formed_coalition):
    coalition, server, domains, users = formed_coalition
    protocol, acl = server.protocol, server.object_acl("ObjectO")
    _revoke_u1(server, domains, users, now=10)
    write_cert = coalition.authority.issue_threshold_certificate(
        users, 2, "G_write", 12, ValidityPeriod(12, 1_000)
    )
    assert not protocol.authorize(_write(users, [0, 1], write_cert, 13), acl, 13)

    domains[0].reissue_identity(users[0], now=15)
    granted = protocol.authorize(_write(users, [0, 1], write_cert, 16), acl, 16)
    assert granted.granted, granted.reason


def test_revocation_on_a_fork_leaves_the_parent_epoch(
    formed_coalition, write_certificate
):
    _c, server, domains, users = formed_coalition
    parent, acl = server.protocol, server.object_acl("ObjectO")
    assert parent.authorize(_write(users, [0, 1], write_certificate, 5), acl, 5)
    u1_key = KeyRef(users[0].keypair.public.fingerprint())
    before = parent.engine.store.key_bindings(u1_key)
    assert before and not before[0][2]  # one binding, not revoked

    fork = parent.fork()
    revocation = domains[0].ca.revoke(users[0].identity_certificate.serial, now=10)
    fork.apply_revocation(revocation, now=10)

    assert not fork.authorize(_write(users, [0, 1], write_certificate, 11), acl, 11)
    assert parent.engine.store.key_bindings(u1_key) == before
    granted = parent.authorize(_write(users, [0, 1], write_certificate, 12), acl, 12)
    assert granted.granted, granted.reason
