"""Each epoch holds one protocol that every shard decides against.

Shards partition admission only (queues, breakers, dedup tables,
process workers).  Belief state is the paper's one verifier: a
certificate admitted for one shard's object serves every shard, and a
revocation is forked and applied once per publish, whatever the shard
count.
"""

import pickle

import pytest

from repro.coalition import AuthorizationProtocol, build_joint_request
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


def test_process_workers_share_one_pickle_per_epoch(
    service_coalition, monkeypatch
):
    ctx, make_service = service_coalition
    real_dumps = pickle.dumps
    pickled = []

    def counting_dumps(obj, *args, **kwargs):
        if isinstance(obj, AuthorizationProtocol):
            pickled.append(obj)
        return real_dumps(obj, *args, **kwargs)

    monkeypatch.setattr(pickle, "dumps", counting_dumps)
    service = make_service(mode="process", num_shards=2, dedup=False)
    users, cert = ctx["users"], ctx["read_cert"]
    tickets = service.submit_batch(
        [
            (_read(users, cert, obj, 5, f"pp-{obj}"), 5)
            for obj in ("ObjectO", "ObjectP")
        ]
    )
    assert service.drain(timeout=60)
    assert all(t.result(0).granted for t in tickets)
    assert len({t.shard for t in tickets}) == 2
    assert len(pickled) == 1
    assert pickled[0] is service.epochs.current.protocol
