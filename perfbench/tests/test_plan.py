"""The expected-decision generator and the correctness gate."""

from itertools import islice

from plan import (
    BATCH, EDGE_REPLAY_GAP, GRANT, REPLAY, REVOKED, Op, Revoke, check,
    churn_events, edge_ops,
)


def test_edge_stream_is_a_function_of_the_seed():
    assert edge_ops(3, 2000) == edge_ops(3, 2000)
    assert edge_ops(3, 2000) != edge_ops(4, 2000)


def test_edge_replays_are_denied_and_point_far_back_at_fresh_requests():
    ops = edge_ops(1, 5000)
    replays = [op for op in ops if op.replay_of >= 0]
    assert 0.01 < len(replays) / len(ops) < 0.03
    for op in ops:
        if op.replay_of < 0:
            assert op.expect == GRANT
            continue
        original = ops[op.replay_of]
        assert op.expect == REPLAY
        assert original.replay_of < 0 and original.expect == GRANT
        assert op.index - original.index >= EDGE_REPLAY_GAP
        assert (op.op, op.obj) == (original.op, original.obj)


def test_churn_marks_post_revocation_requests_and_replays_as_deny():
    revoked = set()
    batches = []  # ops of every batch so far
    seen_revoked_deny = seen_replay = 0
    for event in islice(churn_events(7), 1200):
        if isinstance(event, Revoke):
            assert event.cert not in revoked
            assert event.cert in {op.cert for op in batches[-1]}
            revoked.add(event.cert)
            continue
        assert len(event) == BATCH
        answered = {op.index: op for batch in batches[:-1] for op in batch}
        for op in event:
            if op.replay_of >= 0:
                seen_replay += 1
                assert op.expect == REPLAY
                # Its original was granted and sits two or more batches back.
                assert answered[op.replay_of].expect == GRANT
            elif op.cert in revoked:
                seen_revoked_deny += 1
                assert op.expect == REVOKED
            else:
                assert op.expect == GRANT
        batches.append(event)
    assert seen_revoked_deny > 100 and seen_replay > 50


def test_churn_stream_is_a_function_of_the_seed():
    assert list(islice(churn_events(2), 100)) == list(islice(churn_events(2), 100))
    assert list(islice(churn_events(2), 100)) != list(islice(churn_events(3), 100))


def test_gate_accepts_only_the_expected_decision():
    grant = Op(0, "read", 0)
    replay = Op(1, "read", 0, replay_of=0, expect=REPLAY)
    revoked = Op(2, "write", 1, cert=3, expect=REVOKED)
    assert check(grant, True, "access approved")
    assert not check(grant, False, "replayed request (nonce already accepted)")
    assert check(replay, False, "replayed request (nonce already accepted)")
    assert not check(replay, True, "access approved")
    assert not check(replay, False, "membership revoked: ...")
    assert check(revoked, False, "membership revoked: believe-until-revoked ...")
    assert not check(revoked, False, "overloaded: shard 0 queue full")
