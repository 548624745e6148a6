"""Each epoch holds one protocol that every shard decides against.

Shards partition admission only (queues, breakers, dedup tables).
Belief state is the paper's one verifier: a certificate admitted for
one shard's object serves every shard, and a revocation is forked and
applied once per publish, whatever the shard count.
"""

import pytest

from repro.coalition import build_joint_request
from repro.pki import ValidityPeriod
from repro.service.sharding import shard_for

from .conftest import WINDOW


def _read(users, cert, obj, now, nonce):
    return build_joint_request(
        users[0], [], "read", obj, cert, now=now, nonce=nonce
    )


def test_an_admission_on_one_shard_serves_another(service_coalition):
    ctx, make_service = service_coalition
    service = make_service(mode="threaded", num_shards=4, dedup=False)
    users, cert = ctx["users"], ctx["read_cert"]
    on_o = _read(users, cert, "ObjectO", 5, "one-0")
    on_p = _read(users, cert, "ObjectP", 6, "one-1")
    assert shard_for(on_o, 4) != shard_for(on_p, 4)
    first = service.submit(on_o, now=5).result(0)
    assert first.granted and first.cache_misses > 0
    second = service.submit(on_p, now=6).result(0)
    assert second.granted
    assert second.cache_misses == 0


@pytest.mark.parametrize("num_shards", [1, 4])
def test_one_publish_forks_and_applies_once(service_coalition, num_shards):
    ctx, make_service = service_coalition
    service = make_service(mode="threaded", num_shards=num_shards)
    coalition, users = ctx["coalition"], ctx["users"]
    victim = coalition.authority.issue_threshold_certificate(
        users, 1, "G_read", 0, ValidityPeriod(0, WINDOW)
    )
    assert service.submit(_read(users, victim, "ObjectO", 5, "pf-0"), 5).result(0)

    def counts():
        snapshot = service.metrics_snapshot()
        return (
            service.stats()["epochs"]["forks_taken"],
            snapshot["counters"]["protocol.revocations_admitted"],
        )

    forks, admitted = counts()
    revocation = coalition.authority.revoke_certificate(victim, now=6)
    service.publish_revocation(revocation, now=6)
    assert counts() == (forks + 1, admitted + 1)
