"""Tests for certificate types and their logic idealizations."""

import dataclasses

import pytest

from repro.core.formulas import KeySpeaksFor, Not, Says, SpeaksForGroup
from repro.core.messages import Signed
from repro.core.temporal import FOREVER
from repro.core.terms import Group, Principal, ThresholdPrincipal
from repro.pki import certificates
from repro.pki.certificates import (
    AttributeCertificate,
    IdentityCertificate,
    RevocationCertificate,
    ThresholdAttributeCertificate,
    ValidityPeriod,
)


class TestValidityPeriod:
    def test_contains(self):
        v = ValidityPeriod(5, 10)
        assert v.contains(5) and v.contains(7) and v.contains(10)
        assert not v.contains(4) and not v.contains(11)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ValidityPeriod(10, 5)

    def test_to_temporal(self):
        t = ValidityPeriod(1, 9).to_temporal()
        assert (t.lo, t.hi) == (1, 9)


def _identity():
    return IdentityCertificate(
        serial="s1",
        subject="User_D1",
        subject_key_modulus=3233,
        subject_key_exponent=17,
        issuer="CA1",
        issuer_key_id="cakey",
        timestamp=3,
        validity=ValidityPeriod(1, 100),
    )


def _attribute():
    return AttributeCertificate(
        serial="s2",
        subject="User_D1",
        subject_key_id="ukey",
        group="G_read",
        issuer="AA",
        issuer_key_id="aakey",
        timestamp=4,
        validity=ValidityPeriod(1, 100),
    )


def _threshold():
    return ThresholdAttributeCertificate(
        serial="s3",
        subjects=(("U1", "k1"), ("U2", "k2"), ("U3", "k3")),
        threshold=2,
        group="G_write",
        issuer="AA",
        issuer_key_id="aakey",
        timestamp=5,
        validity=ValidityPeriod(1, 100),
    )


class TestIdentityCertificate:
    def test_payload_deterministic(self):
        assert _identity().payload_bytes() == _identity().payload_bytes()

    def test_payload_field_sensitivity(self):
        import dataclasses

        other = dataclasses.replace(_identity(), subject="Mallory")
        assert other.payload_bytes() != _identity().payload_bytes()

    def test_signature_not_in_payload(self):
        import dataclasses

        signed = dataclasses.replace(_identity(), signature=999)
        assert signed.payload_bytes() == _identity().payload_bytes()

    def test_idealize_shape(self):
        ideal = _identity().idealize()
        assert isinstance(ideal, Signed)
        says = ideal.body
        assert isinstance(says, Says)
        assert says.subject == Principal("CA1")
        binding = says.body
        assert isinstance(binding, KeySpeaksFor)
        assert binding.subject == Principal("User_D1")
        assert (binding.time.lo, binding.time.hi) == (1, 100)

    def test_subject_key_materialized(self):
        cert = _identity()
        assert cert.subject_key.modulus == 3233
        assert cert.subject_key_id == cert.subject_key.fingerprint()


class TestAttributeCertificate:
    def test_idealize_keybound_subject(self):
        ideal = _attribute().idealize()
        membership = ideal.body.body
        assert isinstance(membership, SpeaksForGroup)
        assert membership.group == Group("G_read")
        assert membership.subject.principal == Principal("User_D1")


class TestThresholdCertificate:
    def test_threshold_range_enforced(self):
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(_threshold(), threshold=4)

    def test_compound_principal(self):
        cp = _threshold().compound_principal()
        assert cp.size == 3
        names = [m.principal.name for m in cp.members]
        assert names == sorted(names)

    def test_idealize_threshold_subject(self):
        ideal = _threshold().idealize()
        membership = ideal.body.body
        assert isinstance(membership.subject, ThresholdPrincipal)
        assert membership.subject.m == 2
        assert membership.group == Group("G_write")

    def test_payload_includes_subjects(self):
        payload = _threshold().payload_bytes()
        assert b"U1" in payload and b"k3" in payload


class TestRevocationCertificate:
    def test_idealize_negates_payload(self):
        revocation = RevocationCertificate(
            serial="r1",
            revoked_serial="s3",
            revoked=_threshold(),
            issuer="RA",
            issuer_key_id="rakey",
            timestamp=50,
            effective_time=50,
        )
        ideal = revocation.idealize()
        says = ideal.body
        assert says.subject == Principal("RA")
        negated = says.body
        assert isinstance(negated, Not)
        membership = negated.body
        assert isinstance(membership, SpeaksForGroup)
        assert membership.time.lo == 50
        assert membership.time.hi == FOREVER

    def test_identity_revocation(self):
        revocation = RevocationCertificate(
            serial="r2",
            revoked_serial="s1",
            revoked=_identity(),
            issuer="CA1",
            issuer_key_id="cakey",
            timestamp=60,
            effective_time=61,
        )
        negated = revocation.idealize().body.body
        assert isinstance(negated.body, KeySpeaksFor)
        assert negated.body.time.lo == 61


def _revocation():
    return RevocationCertificate(
        serial="r3",
        revoked_serial="s3",
        revoked=_threshold(),
        issuer="RA",
        issuer_key_id="rakey",
        timestamp=50,
        effective_time=50,
    )


ALL_KINDS = [_identity, _attribute, _threshold, _revocation]


class TestMemoizedDerivedValues:
    """Derived bytes and keys are computed once and never leak into fields."""

    @pytest.mark.parametrize("make", ALL_KINDS)
    def test_second_payload_call_does_not_encode_again(self, make, monkeypatch):
        calls = []
        encode = certificates.canonical_bytes
        monkeypatch.setattr(
            certificates,
            "canonical_bytes",
            lambda payload: calls.append(1) or encode(payload),
        )
        cert = make()
        first = cert.payload_bytes()
        assert cert.payload_bytes() is first
        assert len(calls) == 1

    def test_subject_key_and_id_computed_once(self):
        cert = _identity()
        assert cert.subject_key is cert.subject_key
        assert cert.subject_key_id is cert.subject_key_id
        assert cert.subject_key_id == cert.subject_key.fingerprint()

    @pytest.mark.parametrize("make", ALL_KINDS)
    def test_memo_stays_out_of_eq_hash_repr_and_document(self, make):
        from repro.pki.encoding import certificate_to_dict

        warm, cold = make(), make()
        warm.payload_bytes()
        if isinstance(warm, IdentityCertificate):
            warm.subject_key_id
        assert warm.__dict__.keys() != cold.__dict__.keys()
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold) and "_memo" not in repr(warm)
        assert certificate_to_dict(warm) == certificate_to_dict(cold)
        assert not any("_memo" in key for key in certificate_to_dict(warm))

    def test_replace_does_not_carry_the_memo(self):
        warm = _identity()
        warm.payload_bytes()
        other = dataclasses.replace(warm, subject="Mallory")
        assert other.payload_bytes() != warm.payload_bytes()
        assert b"Mallory" in other.payload_bytes()
