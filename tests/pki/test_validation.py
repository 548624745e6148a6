"""Tests for cryptographic certificate validation."""

import dataclasses
import pickle

import pytest

from repro.crypto.rsa import generate_keypair
from repro.pki.authorities import CertificateAuthority
from repro.pki.certificates import ValidityPeriod
from repro.pki.validation import (
    BadSignature,
    ExpiredCertificate,
    validate_certificate,
)

BITS = 256


@pytest.fixture(scope="module")
def issued():
    ca = CertificateAuthority("CA_V", key_bits=BITS)
    subject_key = generate_keypair(bits=BITS).public
    cert = ca.issue_identity("alice", subject_key, 5, ValidityPeriod(5, 50))
    return ca, cert


class TestValidation:
    def test_valid_certificate_passes(self, issued):
        ca, cert = issued
        validate_certificate(cert, ca.public_key, now=10)

    def test_signature_only_check(self, issued):
        ca, cert = issued
        validate_certificate(cert, ca.public_key)  # no time check

    def test_expired(self, issued):
        ca, cert = issued
        with pytest.raises(ExpiredCertificate):
            validate_certificate(cert, ca.public_key, now=51)

    def test_not_yet_valid(self, issued):
        ca, cert = issued
        with pytest.raises(ExpiredCertificate):
            validate_certificate(cert, ca.public_key, now=4)

    def test_tampered_payload(self, issued):
        ca, cert = issued
        forged = dataclasses.replace(cert, subject="mallory")
        with pytest.raises(BadSignature):
            validate_certificate(forged, ca.public_key, now=10)

    def test_tampered_signature(self, issued):
        ca, cert = issued
        forged = dataclasses.replace(cert, signature=cert.signature ^ 1)
        with pytest.raises(BadSignature):
            validate_certificate(forged, ca.public_key, now=10)

    def test_wrong_trusted_key(self, issued):
        _ca, cert = issued
        other = generate_keypair(bits=BITS).public
        with pytest.raises(BadSignature, match="names issuer key"):
            validate_certificate(cert, other, now=10)


class TestMemoizedBytes:
    """Cached payload bytes never vouch for a changed certificate."""

    @pytest.mark.parametrize(
        "changes",
        [
            {"subject": "mallory"},
            {"validity": ValidityPeriod(5, 5_000)},
            {"timestamp": 6},
        ],
    )
    def test_tamper_after_bytes_cached_still_fails(self, issued, changes):
        ca, cert = issued
        cert.payload_bytes()
        validate_certificate(cert, ca.public_key, now=10)
        forged = dataclasses.replace(cert, **changes)
        with pytest.raises(BadSignature):
            validate_certificate(forged, ca.public_key, now=10)

    def test_pickle_round_trip_still_verifies(self, issued):
        ca, cert = issued
        cert.payload_bytes()
        cert.subject_key_id
        clone = pickle.loads(pickle.dumps(cert))
        assert clone == cert and hash(clone) == hash(cert)
        validate_certificate(clone, ca.public_key, now=10)
        tampered = dataclasses.replace(clone, subject="mallory")
        with pytest.raises(BadSignature):
            validate_certificate(tampered, ca.public_key, now=10)

    def test_trusted_key_fingerprint_memo_is_invisible(self, issued):
        ca, _cert = issued
        key = ca.public_key
        fresh = type(key)(modulus=key.modulus, exponent=key.exponent)
        assert key.fingerprint() is key.fingerprint()
        assert key.fingerprint() == fresh.fingerprint()
        assert key == fresh and hash(key) == hash(fresh)
        assert repr(key) == repr(fresh)
