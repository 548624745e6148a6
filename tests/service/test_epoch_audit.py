"""Every grant audits green across revocation epochs.

A certificate admission leaves its receipt and its conclusion in the
verifier's store; the steps between them live only in the grant's proof
tree.  An audit must therefore re-derive every chain step from the
proof alone and find the receipts among the trusted premises, both in
the epoch that decided the grant and in every epoch published after it.
"""

from repro.coalition import AuditLog, build_joint_request
from repro.pki import ValidityPeriod
from repro.service import AuthorizationService
from repro.service.fixture import attach_coalition

DECISIONS = 200
REVOKE_EVERY = 24
VALIDITY = ValidityPeriod(0, 10**6)


def test_every_grant_audits_in_its_epoch_and_the_latest(tmp_path):
    service = AuthorizationService(
        mode="threaded",
        freshness_window=10**6,
        audit_log=AuditLog(key_bits=256),
        wal_dir=str(tmp_path / "wal"),
    )
    try:
        fixture = attach_coalition(service, num_objects=4, key_bits=256)
        authority = fixture.coalition.authority
        users = fixture.users
        read_cert = fixture.read_cert
        revoked = []
        tickets = []
        for i in range(DECISIONS):
            if i and i % REVOKE_EVERY == 0:
                service.publish_revocation(
                    authority.revoke_certificate(read_cert, now=i), now=i
                )
                revoked.append(read_cert)
                # Stated at the revocation time, so it supersedes it.
                read_cert = authority.issue_threshold_certificate(
                    users, 1, "G_read", i, VALIDITY
                )
            now = i + 1
            obj = fixture.object_names[i % len(fixture.object_names)]
            presents_revoked = bool(revoked) and i % 5 == 4
            if presents_revoked:
                cert = revoked[i % len(revoked)]
                request = build_joint_request(
                    users[0], [], "read", obj, cert, now=now, nonce=f"old-{i}"
                )
            elif i % 3 == 0:
                request = build_joint_request(
                    users[0], [users[1]], "write", obj,
                    fixture.write_cert, now=now, nonce=f"w-{i}",
                )
            else:
                request = build_joint_request(
                    users[0], [], "read", obj, read_cert, now=now, nonce=f"r-{i}"
                )
            tickets.append((service.submit(request, now=now), presents_revoked))
        assert service.drain(timeout=60)

        latest = service.epochs.current.protocol
        granted = 0
        for ticket, presents_revoked in tickets:
            decision = ticket.result(0)
            if presents_revoked:
                assert not decision.granted
                assert "revoked" in decision.reason
                continue
            assert decision.granted, decision.reason
            assert ticket.epoch.protocol.audit(decision)
            assert latest.audit(decision)
            granted += 1
        assert granted > DECISIONS // 2
        assert len(revoked) == (DECISIONS - 1) // REVOKE_EVERY
        service.audit_log.verify(expected_length=DECISIONS)
    finally:
        service.close()
