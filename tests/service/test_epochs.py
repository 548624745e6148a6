"""Epoch snapshot semantics (the heart of the service's correctness).

A revocation published at epoch k must (a) deny in every request
admitted at epoch >= k, for every object, and (b) leave requests admitted
at epoch k-1 — even ones still queued when the epoch flips — deciding
exactly as they would have before the revocation existed.
"""

from repro.coalition import build_joint_request


def _write(users, cert, obj, now, nonce=""):
    return build_joint_request(
        users[0], [users[1]], "write", obj, cert,
        now=now, nonce=nonce or f"epoch-{obj}-{now}",
    )


class TestEpochPinning:
    def test_revocation_denies_from_its_epoch_onward(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual")
        users, cert = ctx["users"], ctx["write_cert"]

        before = service.authorize(_write(users, cert, "ObjectO", now=5), now=5)
        assert before.granted
        epoch_before = service.epochs.current.epoch_id

        revocation = ctx["coalition"].authority.revoke_certificate(cert, now=6)
        service.publish_revocation(revocation, now=6)
        assert service.epochs.current.epoch_id == epoch_before + 1

        # Every object observes the revocation: requests for both are
        # denied.
        for obj in ("ObjectO", "ObjectP"):
            after = service.authorize(_write(users, cert, obj, now=7), now=7)
            assert not after.granted
            assert "revoked" in after.reason

    def test_inflight_previous_epoch_request_is_unperturbed(
        self, service_coalition
    ):
        """Admitted at k-1, evaluated after k published: still grants."""
        ctx, make_service = service_coalition
        service = make_service(mode="manual")
        users, cert = ctx["users"], ctx["write_cert"]

        # Admit (pin) but do not evaluate yet.
        inflight = service.submit(_write(users, cert, "ObjectO", now=5), now=5)
        assert not inflight.done()

        revocation = ctx["coalition"].authority.revoke_certificate(cert, now=6)
        service.publish_revocation(revocation, now=6)
        # Admit a post-revocation request on the same object.
        later = service.submit(_write(users, cert, "ObjectO", now=7), now=7)

        service.pump()
        assert inflight.result().granted, (
            "epoch-(k-1) admission must not observe the epoch-k revocation"
        )
        assert not later.result().granted
        assert "revoked" in later.result().reason

    def test_epoch_pinning_is_atomic_across_shards(self, service_coalition):
        """No interleaving applies the revocation to one object only.

        Pin one request per object before the publish and one per
        object after: the before-pair both grant, the after-pair both
        deny — a half-applied revocation would break one of the four.
        """
        ctx, make_service = service_coalition
        service = make_service(mode="manual")
        users, cert = ctx["users"], ctx["write_cert"]

        before = [
            service.submit(_write(users, cert, obj, now=5), now=5)
            for obj in ("ObjectO", "ObjectP")
        ]
        revocation = ctx["coalition"].authority.revoke_certificate(cert, now=6)
        service.publish_revocation(revocation, now=6)
        after = [
            service.submit(_write(users, cert, obj, now=7), now=7)
            for obj in ("ObjectO", "ObjectP")
        ]
        service.pump()
        assert all(t.result().granted for t in before)
        assert all(not t.result().granted for t in after)
        assert all("revoked" in t.result().reason for t in after)

    def test_reissued_certificate_grants_in_new_epoch(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual")
        users, cert = ctx["users"], ctx["write_cert"]
        coalition = ctx["coalition"]

        revocation = coalition.authority.revoke_certificate(cert, now=6)
        service.publish_revocation(revocation, now=6)
        denied = service.authorize(_write(users, cert, "ObjectO", now=7), now=7)
        assert not denied.granted

        from repro.pki import ValidityPeriod

        fresh = coalition.authority.issue_threshold_certificate(
            users, 2, "G_write", 8, ValidityPeriod(8, 10**9)
        )
        granted = service.authorize(
            _write(users, fresh, "ObjectO", now=9), now=9
        )
        assert granted.granted


class TestPolicyEpochs:
    def test_acl_update_publishes_new_epoch(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual")
        users, cert = ctx["users"], ctx["write_cert"]

        assert service.authorize(
            _write(users, cert, "ObjectO", now=5), now=5
        ).granted
        epoch_before = service.epochs.current.epoch_id

        from repro.coalition import ACLEntry

        service.update_acl("ObjectO", [ACLEntry.of("G_read", ["read"])])
        assert service.epochs.current.epoch_id == epoch_before + 1

        denied = service.authorize(_write(users, cert, "ObjectO", now=6), now=6)
        assert not denied.granted
        assert "ACL grants no" in denied.reason

    def test_acl_update_does_not_perturb_inflight(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual")
        users, cert = ctx["users"], ctx["write_cert"]

        inflight = service.submit(_write(users, cert, "ObjectO", now=5), now=5)
        from repro.coalition import ACLEntry

        service.update_acl("ObjectO", [ACLEntry.of("G_read", ["read"])])
        service.pump()
        assert inflight.result().granted

    def test_unregistered_object_denies_like_a_server(self, service_coalition):
        ctx, make_service = service_coalition
        service = make_service(mode="manual")
        users, cert = ctx["users"], ctx["write_cert"]
        decision = service.authorize(
            _write(users, cert, "Ghost", now=5), now=5
        )
        assert not decision.granted
        assert decision.reason == "no such object 'Ghost'"

    def test_trust_reconfig_after_seal_publishes_epoch(self, service_coalition):
        """Late trust changes (coalition re-key) go through epochs too."""
        ctx, make_service = service_coalition
        service = make_service(mode="manual")
        users, cert = ctx["users"], ctx["write_cert"]
        assert service.authorize(
            _write(users, cert, "ObjectO", now=5), now=5
        ).granted

        from repro.crypto.rsa import generate_keypair

        epoch_before = service.epochs.current.epoch_id
        service.protocol.trust_domain_ca(
            "LateCA", generate_keypair(bits=256).public
        )
        assert service.epochs.current.epoch_id == epoch_before + 1
        # Existing traffic still decides identically in the new epoch.
        again = service.authorize(_write(users, cert, "ObjectO", now=6), now=6)
        assert again.granted
