"""Tests for the JSON certificate transport encoding."""

import pytest

from repro.pki.encoding import (
    EncodingError,
    certificate_from_dict,
    certificate_to_dict,
    decode_certificate,
    encode_certificate,
)


class TestRoundTrips:
    def test_identity(self, three_domains):
        _domains, users = three_domains
        cert = users[0].identity_certificate
        decoded = decode_certificate(encode_certificate(cert))
        assert decoded == cert

    def test_threshold_attribute(self, formed_coalition, write_certificate):
        decoded = decode_certificate(encode_certificate(write_certificate))
        assert decoded == write_certificate
        # The decoded certificate still verifies cryptographically.
        coalition = formed_coalition[0]
        assert coalition.authority.public_key.verify(
            decoded.payload_bytes(), decoded.signature
        )

    def test_revocation_with_nested_certificate(
        self, formed_coalition, write_certificate
    ):
        coalition = formed_coalition[0]
        revocation = coalition.authority.revoke_certificate(
            write_certificate, now=5
        )
        decoded = decode_certificate(encode_certificate(revocation))
        assert decoded == revocation
        assert decoded.revoked == write_certificate

    def test_attribute(self):
        from repro.pki.authorities import SingleAttributeAuthority
        from repro.pki.certificates import ValidityPeriod

        aa = SingleAttributeAuthority("AA_enc", key_bits=256)
        cert = aa.issue_attribute("u", "k", "G", 0, ValidityPeriod(0, 9))
        assert decode_certificate(encode_certificate(cert)) == cert


class TestErrors:
    def test_not_json(self):
        with pytest.raises(EncodingError, match="not JSON"):
            decode_certificate("{{{")

    def test_not_object(self):
        with pytest.raises(EncodingError, match="object"):
            decode_certificate("[1, 2]")

    def test_unknown_kind(self):
        with pytest.raises(EncodingError):
            decode_certificate('{"kind": "martian"}')

    def test_missing_fields(self):
        with pytest.raises(EncodingError, match="malformed"):
            decode_certificate('{"kind": "identity", "serial": "x"}')

    def test_tampering_breaks_signature(self, three_domains):
        import json

        domains, users = three_domains
        doc = json.loads(encode_certificate(users[0].identity_certificate))
        doc["subject"] = "mallory"
        forged = decode_certificate(json.dumps(doc))
        ca_key = domains[0].ca.public_key
        assert not ca_key.verify(forged.payload_bytes(), forged.signature)


class TestFieldTypes:
    """Fields must decode to exactly their type: no floats, no bools for ints.

    ``False == 0`` and ``1.0 == 1``, so a loosely typed decode could be
    equal to a genuine certificate without its signed bytes (which
    spell ``false``), or reach the canonicalizer as a float.
    """

    @pytest.mark.parametrize(
        "field, value",
        [
            ("timestamp", 0.0),
            ("timestamp", False),
            ("threshold", 1.0),
            ("threshold", True),
            ("serial", 7),
            ("group", None),
            ("signature", 12345),
            ("subjects", "U1"),
            ("subjects", [["User_D1"]]),
            ("subjects", [["User_D1", 3]]),
            ("subjects", [("User_D1", "k", "extra")]),
            ("validity", [0, 10]),
            ("validity", {"begin": 0.0, "end": 10}),
            ("validity", {"begin": 0, "end": True}),
        ],
    )
    def test_threshold_certificate_fields(self, write_certificate, field, value):
        doc = certificate_to_dict(write_certificate)
        doc[field] = value
        with pytest.raises(EncodingError):
            certificate_from_dict(doc)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("subject_key_exponent", True),
            ("subject_key_exponent", 65537.0),
            ("subject_key_modulus", 3233),
            ("timestamp", 0.0),
            ("subject", ["User_D1"]),
        ],
    )
    def test_identity_certificate_fields(self, three_domains, field, value):
        _domains, users = three_domains
        doc = certificate_to_dict(users[0].identity_certificate)
        doc[field] = value
        with pytest.raises(EncodingError):
            certificate_from_dict(doc)

    def test_nested_revoked_certificate_is_checked(
        self, formed_coalition, write_certificate
    ):
        coalition = formed_coalition[0]
        revocation = coalition.authority.revoke_certificate(
            write_certificate, now=5
        )
        doc = certificate_to_dict(revocation)
        doc["revoked"]["threshold"] = 2.0
        with pytest.raises(EncodingError):
            certificate_from_dict(doc)
        doc["revoked"] = ["not", "a", "certificate"]
        with pytest.raises(EncodingError):
            certificate_from_dict(doc)

    def test_revocation_times_must_be_ints(
        self, formed_coalition, write_certificate
    ):
        coalition = formed_coalition[0]
        doc = certificate_to_dict(
            coalition.authority.revoke_certificate(write_certificate, now=5)
        )
        doc["effective_time"] = 5.0
        with pytest.raises(EncodingError):
            certificate_from_dict(doc)

    def test_exact_types_still_decode(self, write_certificate):
        doc = certificate_to_dict(write_certificate)
        assert certificate_from_dict(doc) == write_certificate
