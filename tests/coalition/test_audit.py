"""Tests for the hash-chained audit log."""

import dataclasses

import pytest

from repro.coalition import (
    ACLEntry,
    Coalition,
    CoalitionServer,
    Domain,
    build_joint_request,
)
from repro.coalition.audit import AuditLog, AuditVerificationError
from repro.coalition.protocol import AuthorizationDecision
from repro.crypto.numtheory import modinv
from repro.crypto.rsa import RSAKeyPair, RSAPrivateKey, RSAPublicKey
from repro.pki import ValidityPeriod
from repro.storage.wal import entry_to_payload


def _decisions(formed_coalition, write_certificate, count=3):
    _c, server, _d, users = formed_coalition
    decisions = []
    for k in range(count):
        request = build_joint_request(
            users[0], [users[1]], "write", "ObjectO", write_certificate,
            now=5 + k, nonce=f"audit-{k}",
        )
        decisions.append(
            server.protocol.authorize(request, server.object_acl("ObjectO"), now=6 + k)
        )
    return decisions


class TestAppendAndVerify:
    def test_chain_verifies(self, formed_coalition, write_certificate):
        log = AuditLog()
        for decision in _decisions(formed_coalition, write_certificate):
            log.append(decision)
        log.verify()
        assert len(log) == 3

    def test_denied_decisions_logged_too(self, formed_coalition, write_certificate):
        _c, server, _d, users = formed_coalition
        log = AuditLog()
        request = build_joint_request(
            users[0], [], "write", "ObjectO", write_certificate, now=5
        )
        decision = server.protocol.authorize(
            request, server.object_acl("ObjectO"), now=6
        )
        entry = log.append(decision)
        assert not entry.granted
        log.verify()

    def test_sequence_numbers(self, formed_coalition, write_certificate):
        log = AuditLog()
        for decision in _decisions(formed_coalition, write_certificate):
            log.append(decision)
        assert [e.sequence for e in log.entries()] == [0, 1, 2]

    def test_proof_digest_differs_per_decision(
        self, formed_coalition, write_certificate
    ):
        log = AuditLog()
        entries = [
            log.append(d)
            for d in _decisions(formed_coalition, write_certificate, count=2)
        ]
        assert entries[0].proof_digest != entries[1].proof_digest

    def test_proof_digest_is_the_merkle_root(
        self, formed_coalition, write_certificate
    ):
        decision = _decisions(formed_coalition, write_certificate, count=1)[0]
        entry = AuditLog().append(decision)
        assert entry.proof_digest == decision.proof.digest().hex()

    def test_proof_digest_is_key_independent(self):
        """Two servers with fresh keys log the same root for one request."""

        def grant():
            domains = [Domain(f"D{i}", key_bits=256) for i in (1, 2, 3)]
            users = [
                d.register_user(f"User_D{i}", now=0)
                for i, d in enumerate(domains, start=1)
            ]
            coalition = Coalition("digest", key_bits=256)
            coalition.form(domains)
            server = CoalitionServer("ServerP")
            coalition.attach_server(server)
            server.create_object(
                "ObjectO", b"x", [ACLEntry.of("G_write", ["write"])], "G_admin"
            )
            cert = coalition.authority.issue_threshold_certificate(
                users, 2, "G_write", 0, ValidityPeriod(0, 1_000)
            )
            request = build_joint_request(
                users[0], [users[1]], "write", "ObjectO", cert, now=5, nonce="n"
            )
            decision = server.protocol.authorize(
                request, server.object_acl("ObjectO"), now=6
            )
            assert decision.granted
            return decision.proof, AuditLog().append(decision).proof_digest

        (proof_a, digest_a), (proof_b, digest_b) = grant(), grant()
        assert proof_a != proof_b  # different key fingerprints
        assert digest_a == digest_b


class TestTailDigest:
    def test_each_entry_links_to_the_previous_digest(
        self, formed_coalition, write_certificate
    ):
        log = AuditLog()
        for decision in _decisions(formed_coalition, write_certificate):
            log.append(decision)
        log.append_event(9, "write", "ObjectO", "flow-degraded")
        entries = log.entries()
        for previous, entry in zip(entries, entries[1:]):
            assert entry.previous_digest == previous.digest()

    def test_reseeded_log_resumes_from_the_tail(
        self, formed_coalition, write_certificate
    ):
        decisions = _decisions(formed_coalition, write_certificate)
        log = AuditLog()
        log.append(decisions[0])
        log.append(decisions[1])
        resumed = AuditLog.reseed(log.entries(), log.keypair)
        entry = resumed.append(decisions[2])
        assert entry.previous_digest == log.entries()[-1].digest()
        resumed.verify(expected_length=3)


class TestTamperEvidence:
    def _populated(self, formed_coalition, write_certificate):
        log = AuditLog()
        for decision in _decisions(formed_coalition, write_certificate):
            log.append(decision)
        return log

    def test_modified_entry_detected(self, formed_coalition, write_certificate):
        log = self._populated(formed_coalition, write_certificate)
        entries = log.entries()
        entries[1] = dataclasses.replace(entries[1], granted=False)
        with pytest.raises(AuditVerificationError, match="signature|chain"):
            AuditLog.verify_chain(entries, log.public_key)

    def test_removed_entry_detected(self, formed_coalition, write_certificate):
        log = self._populated(formed_coalition, write_certificate)
        entries = log.entries()
        del entries[1]
        with pytest.raises(AuditVerificationError):
            AuditLog.verify_chain(entries, log.public_key)

    def test_reordered_entries_detected(self, formed_coalition, write_certificate):
        log = self._populated(formed_coalition, write_certificate)
        entries = log.entries()
        entries[0], entries[1] = entries[1], entries[0]
        with pytest.raises(AuditVerificationError):
            AuditLog.verify_chain(entries, log.public_key)

    def test_wrong_key_detected(self, formed_coalition, write_certificate):
        from repro.crypto.rsa import generate_keypair

        log = self._populated(formed_coalition, write_certificate)
        other = generate_keypair(bits=256).public
        with pytest.raises(AuditVerificationError, match="signature"):
            AuditLog.verify_chain(log.entries(), other)

    def test_forged_appendix_detected(self, formed_coalition, write_certificate):
        """An attacker cannot extend the chain without the signing key."""
        log = self._populated(formed_coalition, write_certificate)
        entries = log.entries()
        forged = dataclasses.replace(
            entries[-1],
            sequence=len(entries),
            previous_digest=entries[-1].digest(),
            reason="forged",
        )
        with pytest.raises(AuditVerificationError, match="signature"):
            AuditLog.verify_chain([*entries, forged], log.public_key)


class TestExpectedLength:
    """Tail truncation removes whole suffixes without breaking the hash
    chain — only an out-of-band expected length can catch it."""

    def test_exact_length_verifies(self, formed_coalition, write_certificate):
        log = AuditLog()
        for decision in _decisions(formed_coalition, write_certificate):
            log.append(decision)
        log.verify(expected_length=3)
        AuditLog.verify_chain(log.entries(), log.public_key, expected_length=3)

    def test_truncated_tail_detected(self, formed_coalition, write_certificate):
        log = AuditLog()
        for decision in _decisions(formed_coalition, write_certificate):
            log.append(decision)
        truncated = log.entries()[:-1]
        # The prefix is a valid chain on its own...
        AuditLog.verify_chain(truncated, log.public_key)
        # ...but not at the expected length.
        with pytest.raises(AuditVerificationError, match="truncated or padded"):
            AuditLog.verify_chain(
                truncated, log.public_key, expected_length=3
            )

    def test_padded_chain_detected(self, formed_coalition, write_certificate):
        log = AuditLog()
        for decision in _decisions(formed_coalition, write_certificate):
            log.append(decision)
        with pytest.raises(AuditVerificationError, match="truncated or padded"):
            log.verify(expected_length=2)


class TestTraceIds:
    def test_trace_id_recorded_and_signed(
        self, formed_coalition, write_certificate
    ):
        log = AuditLog()
        decisions = _decisions(formed_coalition, write_certificate, count=2)
        log.append(decisions[0], trace_id="svc-00000000")
        log.append(decisions[1])  # untraced appends still chain
        entries = log.entries()
        assert entries[0].trace_id == "svc-00000000"
        assert entries[1].trace_id == ""
        log.verify(expected_length=2)

    def test_tampered_trace_id_detected(
        self, formed_coalition, write_certificate
    ):
        log = AuditLog()
        for decision in _decisions(formed_coalition, write_certificate):
            log.append(decision, trace_id="svc-00000007")
        entries = log.entries()
        entries[1] = dataclasses.replace(entries[1], trace_id="svc-99999999")
        with pytest.raises(AuditVerificationError):
            AuditLog.verify_chain(entries, log.public_key)


class TestEvents:
    def test_events_classified_by_marker_not_reason_prefix(
        self, formed_coalition, write_certificate
    ):
        """A decision whose reason starts with ``flow-`` is NOT an event.

        Classification must come from the signed ``event_kind`` marker,
        not from string-sniffing the reason text.
        """
        log = AuditLog()
        decision = _decisions(formed_coalition, write_certificate, count=1)[0]
        tricky = dataclasses.replace(
            decision, reason="flow-looking reason on a real decision"
        )
        log.append(tricky)
        log.append_event(
            timestamp=9, operation="write", object_name="ObjectO",
            kind="flow-degraded", detail="2 of 3 signers",
        )
        events = log.events()
        assert len(events) == 1
        assert events[0].event_kind == "flow-degraded"
        assert log.events("flow-degraded") == events
        assert log.events("flow-timed-out") == []
        # The decision entry carries no event marker.
        assert log.entries()[0].event_kind == ""
        log.verify(expected_length=2)

    def test_event_kind_is_signed(self, formed_coalition, write_certificate):
        log = AuditLog()
        log.append_event(
            timestamp=1, operation="read", object_name="ObjectO",
            kind="flow-timed-out",
        )
        entries = log.entries()
        entries[0] = dataclasses.replace(entries[0], event_kind="")
        with pytest.raises(AuditVerificationError):
            AuditLog.verify_chain(entries, log.public_key)

    def test_events_snapshot_under_concurrent_appends(
        self, formed_coalition, write_certificate
    ):
        """events() takes the log lock: no torn reads mid-append."""
        import threading

        log = AuditLog(key_bits=128)
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                log.append_event(
                    timestamp=i, operation="op", object_name="O",
                    kind="flow-degraded",
                )
                i += 1

        def reader():
            while not stop.is_set():
                try:
                    events = log.events()
                    assert all(e.event_kind for e in events)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    stop.set()

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=reader),
        ]
        for t in threads:
            t.start()
        import time

        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join()
        assert errors == []


def _fixed_signer():
    """A signer from two Mersenne primes, so signatures are pinned."""
    p, q, e = 2**127 - 1, 2**89 - 1, 65537
    n = p * q
    return RSAKeyPair(
        RSAPublicKey(n, e), RSAPrivateKey(n, modinv(e, (p - 1) * (q - 1)), p, q)
    )


# Recorded before audit entries were built once and flat payloads took
# bools and None: the encoding must not move.
_PINNED_WAL_PAYLOADS = [
    '{"event_kind":"","granted":true,"group":"G_write","object":"ObjectO",'
    '"operation":"write","previous_digest":"' + "0" * 64 + '","proof_digest":"'
    + "0" * 64 + '","reason":"granted","sequence":0,"signature":'
    '"0x64ab85374deedb907bf7401fac412e05988b371f65f26e7fdc978c","timestamp":7,'
    '"trace_id":"ServiceP-00000001"}',
    '{"event_kind":"","granted":false,"group":null,"object":null,'
    '"operation":"read","previous_digest":'
    '"3a186e1d51c188604a4ac3a9eed4e67a18129672bc28b7d1dc1b6a9f6e3956c5",'
    '"proof_digest":"' + "0" * 64 + '","reason":"denied: membership revoked '
    '\\u2014 G_read","sequence":1,"signature":'
    '"0x42ae31dc2a63fdf8efc721b1b22d068632d409333b7aa73c62cee9","timestamp":8,'
    '"trace_id":""}',
    '{"event_kind":"flow-degraded","granted":false,"group":null,'
    '"object":"ObjectO","operation":"read","previous_digest":'
    '"569597fefd9882dd5dff2d46e073319d9054887d6c68bc2dbf2631ddedfa1f0c",'
    '"proof_digest":"' + "0" * 64 + '","reason":"flow-degraded: 2 of 3",'
    '"sequence":2,"signature":'
    '"0x8a5677051f8a6c2411550febbd08c5d33a612f28f365d759083798","timestamp":9,'
    '"trace_id":""}',
]


class TestPinnedEntryBytes:
    def test_wal_payloads_and_chain_match_the_recorded_bytes(self):
        log = AuditLog(signer=_fixed_signer())
        entries = [
            log.append(
                AuthorizationDecision(
                    granted=True, reason="granted", operation="write",
                    object_name="ObjectO", checked_at=7, group="G_write",
                ),
                trace_id="ServiceP-00000001",
            ),
            log.append(
                AuthorizationDecision(
                    granted=False,
                    reason="denied: membership revoked \u2014 G_read",
                    operation="read", object_name=None, checked_at=8,
                )
            ),
            log.append_event(9, "read", "ObjectO", "flow-degraded", detail="2 of 3"),
        ]
        got = [entry_to_payload(entry).decode("utf-8") for entry in entries]
        assert got == _PINNED_WAL_PAYLOADS
        log.verify(expected_length=3)
