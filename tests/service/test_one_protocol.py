"""Each epoch holds one protocol that every ticket decides against.

Belief state is the paper's one verifier: a certificate admitted while
deciding one object's request serves every other object, and a
revocation is forked and applied once per publish.
"""

import pytest

from repro.coalition import build_joint_request
from repro.pki import ValidityPeriod

from .conftest import WINDOW


def _read(users, cert, obj, now, nonce):
    return build_joint_request(
        users[0], [], "read", obj, cert, now=now, nonce=nonce
    )


def test_an_admission_on_one_shard_serves_another(service_coalition):
    """The certificate admitted for ObjectO's request is a cache hit
    for ObjectP's."""
    ctx, make_service = service_coalition
    service = make_service(mode="threaded")
    users, cert = ctx["users"], ctx["read_cert"]
    on_o = _read(users, cert, "ObjectO", 5, "one-0")
    on_p = _read(users, cert, "ObjectP", 6, "one-1")
    first = service.submit(on_o, now=5).result(0)
    assert first.granted and first.cache_misses > 0
    second = service.submit(on_p, now=6).result(0)
    assert second.granted
    assert second.cache_misses == 0


@pytest.mark.parametrize("publishes", [1, 4])
def test_one_publish_forks_and_applies_once(service_coalition, publishes):
    ctx, make_service = service_coalition
    service = make_service(mode="threaded")
    coalition, users = ctx["coalition"], ctx["users"]
    victims = [
        coalition.authority.issue_threshold_certificate(
            users, 1, "G_read", 0, ValidityPeriod(0, WINDOW)
        )
        for _ in range(publishes)
    ]
    for i, victim in enumerate(victims):
        assert service.submit(
            _read(users, victim, "ObjectO", 5, f"pf-{i}"), 5
        ).result(0)

    def counts():
        snapshot = service.metrics_snapshot()
        return (
            service.stats()["epochs"]["forks_taken"],
            snapshot["counters"]["protocol.revocations_admitted"],
        )

    for i, victim in enumerate(victims):
        forks, admitted = counts()
        revocation = coalition.authority.revoke_certificate(victim, now=6 + i)
        service.publish_revocation(revocation, now=6 + i)
        assert counts() == (forks + 1, admitted + 1)
