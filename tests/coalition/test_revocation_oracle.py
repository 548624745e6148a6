"""The engine's believe-until-revoked deny agrees with the §4.2 oracle.

``revocation_oracle`` restates the revocation rule over certificate
fields.  Generated programs of issue, re-issue, revoke, publish and
request steps run against a manual-mode :class:`AuthorizationService`;
every request that reaches the revocation check must be denied as
"membership revoked" exactly when the oracle says a published
revocation defeats its certificate.  Requests submitted before a
publish are decided on the epoch they pinned, so the oracle they are
checked against is a copy taken at submission.

The registered scenarios that publish revocations are checked the same
way, from inside every protocol instance: each instance (an epoch fork
or the sequential oracle server) carries the revocations applied to it.
"""

import dataclasses
import itertools

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.coalition import ACLEntry, Coalition, Domain, build_joint_request
from repro.coalition.protocol import AuthorizationProtocol
from repro.pki import ValidityPeriod
from repro.service import AuthorizationService
from repro.service.scenarios import SCENARIOS, run_scenario

from .revocation_oracle import RevocationOracle, is_threshold_certificate

REVOKED = "membership revoked"
# Deny reasons the engine gives only after the revocation check passed.
_AFTER_CHECK = ("ACL grants no", "certificate validity window excludes")

# (subject user indices, m, group): two share a group and differ in
# subjects or threshold, so a revocation of one must spare the others.
SLOTS = (
    ((0, 1, 2), 1, "G_read"),
    ((0, 1, 2), 2, "G_read"),
    ((0, 1), 1, "G_read"),
    ((0, 1, 2), 2, "G_write"),
)
OPERATION = {"G_read": "read", "G_write": "write"}

_nonces = itertools.count()


def reached_check(decision) -> bool:
    """Whether the engine's decision got as far as the revocation check."""
    return (
        decision.granted
        or decision.reason.startswith(REVOKED)
        or decision.reason.startswith(_AFTER_CHECK)
    )


@pytest.fixture(scope="module")
def coalition_users():
    domains = [Domain(f"RO{i}", key_bits=256) for i in (1, 2, 3)]
    users = [d.register_user(f"ro{i}", now=0) for i, d in enumerate(domains, 1)]
    coalition = Coalition("revocation-oracle", key_bits=256)
    coalition.form(domains)
    return coalition, users


# Indices pick among the most recent certificates and drafts, so
# revocations and requests keep meeting the same certificates.
recent = st.integers(0, 3)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("issue"), st.integers(0, len(SLOTS) - 1)),
        # (revoke, which certificate, effective time - now, publish it now)
        st.tuples(st.just("revoke"), recent, st.integers(-2, 3), st.booleans()),
        st.tuples(st.just("publish"), recent),
        st.tuples(st.just("request"), recent),
        st.tuples(st.just("request"), recent),
        st.tuples(st.just("pump")),
    ),
    min_size=8,
    max_size=30,
)


def _recent(items, index):
    return items[-1 - index % len(items)]


class TestGeneratedPrograms:
    @given(program=steps)
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_revoked_deny_agrees_with_oracle(self, coalition_users, program):
        coalition, users = coalition_users
        service = AuthorizationService(
            name="OracleP", mode="manual", freshness_window=10**9
        )
        coalition.attach_server(service)
        coalition.servers.remove(service)  # nothing else pushes to it
        service.register_object(
            "Obj",
            [ACLEntry.of("G_read", ["read"]), ACLEntry.of("G_write", ["write"])],
            admin_group="G_admin",
        )
        authority = coalition.authority
        oracle = RevocationOracle()
        certs, drafted, pending = [], [], []
        clock = 1

        def publish(revocation):
            service.publish_revocation(revocation, now=clock)
            oracle.publish(revocation)

        try:
            for step in program:
                kind = step[0]
                if kind == "issue":
                    clock += 1
                    subjects, m, group = SLOTS[step[1]]
                    certs.append(
                        authority.issue_threshold_certificate(
                            [users[i] for i in subjects], m, group, clock,
                            ValidityPeriod(0, 10**9),
                        )
                    )
                elif kind == "revoke" and certs:
                    cert = _recent(certs, step[1])
                    drafted.append(
                        authority.revocation_authority.revoke(
                            cert, clock, effective_time=max(0, clock + step[2])
                        )
                    )
                    if step[3]:
                        publish(drafted.pop())
                elif kind == "publish" and drafted:
                    publish(drafted.pop(-1 - step[1] % len(drafted)))
                elif kind == "request" and certs:
                    clock += 1
                    cert = _recent(certs, step[1])
                    signers = [
                        u for u in users if u.name in dict(cert.subjects)
                    ][: cert.threshold]
                    request = build_joint_request(
                        signers[0], signers[1:], OPERATION[cert.group], "Obj",
                        cert, now=clock, nonce=f"oracle-{next(_nonces)}",
                    )
                    expected = oracle.copy().defeated(cert, clock)
                    pending.append(
                        (service.submit(request, clock), expected, cert, clock)
                    )
                elif kind == "pump":
                    service.pump()
            service.pump()
            event(f"defeated requests: {sum(p[1] for p in pending) > 0}")
            for ticket, expected, cert, now in pending:
                decision = ticket.result()
                assert reached_check(decision), decision.reason
                assert decision.reason.startswith(REVOKED) == expected, (
                    f"{cert.serial} stated {cert.timestamp} at t={now}: "
                    f"oracle defeated={expected}, engine said {decision.reason!r}"
                )
                assert decision.granted == (not expected)
        finally:
            service.close()

    def test_pinned_epoch_keeps_its_revocations(self, coalition_users):
        """A request pinned before a publish is decided without it."""
        coalition, users = coalition_users
        service = AuthorizationService(
            name="OraclePin", mode="manual", freshness_window=10**9
        )
        coalition.attach_server(service)
        coalition.servers.remove(service)
        service.register_object(
            "Obj", [ACLEntry.of("G_read", ["read"])], admin_group="G_admin"
        )
        cert = coalition.authority.issue_threshold_certificate(
            users, 1, "G_read", 1, ValidityPeriod(0, 10**9)
        )
        try:
            before = service.submit(
                build_joint_request(users[0], [], "read", "Obj", cert, now=3, nonce="pin-a"),
                3,
            )
            service.publish_revocation(
                coalition.authority.revocation_authority.revoke(cert, 2), now=3
            )
            after = service.submit(
                build_joint_request(users[0], [], "read", "Obj", cert, now=4, nonce="pin-b"),
                4,
            )
            service.pump()
            assert before.result().granted
            assert after.result().reason.startswith(REVOKED)
        finally:
            service.close()


# --------------------------------------------------- registered scenarios


class _ShadowOracle:
    """Attach a :class:`RevocationOracle` to every protocol instance."""

    def __init__(self, monkeypatch):
        self.checked = 0
        self.defeated = 0
        self.failures = []
        shadow = self
        fork = AuthorizationProtocol.fork
        apply_revocation = AuthorizationProtocol.apply_revocation
        authorize = AuthorizationProtocol.authorize

        def oracle_of(protocol) -> RevocationOracle:
            if "_shadow_oracle" not in protocol.__dict__:
                protocol._shadow_oracle = RevocationOracle()
            return protocol._shadow_oracle

        def shadow_fork(self):
            clone = fork(self)
            clone._shadow_oracle = oracle_of(self).copy()
            return clone

        def shadow_apply(self, revocation, now):
            proof = apply_revocation(self, revocation, now)
            oracle_of(self).publish(revocation)
            return proof

        def shadow_authorize(self, request, acl, now):
            tac = request.attribute_certificate
            expected = is_threshold_certificate(tac) and oracle_of(self).defeated(
                tac, now
            )
            decision = authorize(self, request, acl, now)
            said_revoked = decision.reason.startswith(REVOKED)
            if expected and decision.granted:
                shadow.failures.append(("stale grant", tac.serial, now))
            if said_revoked and not expected:
                shadow.failures.append(("wrong revoked deny", tac.serial, now))
            if reached_check(decision):
                shadow.checked += 1
                shadow.defeated += expected
                if said_revoked != expected:
                    shadow.failures.append(
                        ("disagreement", tac.serial, now, decision.reason)
                    )
            return decision

        monkeypatch.setattr(AuthorizationProtocol, "fork", shadow_fork)
        monkeypatch.setattr(AuthorizationProtocol, "apply_revocation", shadow_apply)
        monkeypatch.setattr(AuthorizationProtocol, "authorize", shadow_authorize)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_registered_scenarios_agree_with_oracle(monkeypatch, name):
    shadow = _ShadowOracle(monkeypatch)
    report = run_scenario(name, seed=0, mode="manual")
    if report.revocations == 0:
        pytest.skip(f"{name} publishes no revocation")
    assert report.ok, report.violations()
    assert not shadow.failures, shadow.failures[:5]
    assert shadow.checked > 0
    if name == "stale-cert-adversary":
        # Presents revoked certificates: the oracle's defeat side is hit.
        assert shadow.defeated > 0


def test_oracle_boundaries():
    """The rule itself: ``r <= t`` and strictly ``stated_at < r``."""

    @dataclasses.dataclass
    class Cert:
        subjects: tuple
        threshold: int
        group: str
        timestamp: int

    @dataclasses.dataclass
    class Revocation:
        revoked: Cert
        effective_time: int

    cert = Cert((("u", "k1"),), 1, "G", timestamp=5)
    oracle = RevocationOracle()
    oracle.publish(Revocation(Cert((("u", "k1"),), 1, "G", 0), effective_time=7))
    assert not oracle.defeated(cert, 6)  # not yet effective
    assert oracle.defeated(cert, 7)
    assert not oracle.defeated(dataclasses.replace(cert, timestamp=7), 9)  # re-issued
    assert not oracle.defeated(dataclasses.replace(cert, threshold=2), 9)
    assert not oracle.defeated(dataclasses.replace(cert, group="H"), 9)
    assert not oracle.defeated(dataclasses.replace(cert, subjects=(("u", "k2"),)), 9)
