"""Tests for shared RSA key generation (dealer and dealerless paths)."""

import pytest

from repro.crypto.boneh_franklin import (
    PrivateKeyShare,
    dealer_shared_rsa,
    generate_shared_rsa,
)
from repro.crypto.joint_signature import joint_sign


class TestDealerPath:
    @pytest.mark.parametrize("parties", [1, 2, 3, 5])
    def test_shares_sign_jointly(self, parties):
        result = dealer_shared_rsa(parties, bits=256)
        signature = joint_sign(b"payload", result.shares, result.public_key)
        assert result.public_key.verify(b"payload", signature)

    def test_share_count(self):
        result = dealer_shared_rsa(4, bits=256)
        assert len(result.shares) == 4
        assert result.public_key.n_parties == 4

    def test_correction_zero(self):
        result = dealer_shared_rsa(3, bits=256)
        assert result.public_key.correction == 0

    def test_not_dealerless(self):
        result = dealer_shared_rsa(3, bits=256)
        assert not result.dealerless

    def test_zero_parties_rejected(self):
        with pytest.raises(ValueError):
            dealer_shared_rsa(0)

    def test_single_share_cannot_sign(self, shared_key_3):
        from repro.crypto.joint_signature import (
            JointSignatureError,
            combine_partials,
            sign_share,
        )

        partial = sign_share(b"m", shared_key_3.shares[0], shared_key_3.public_key)
        with pytest.raises(JointSignatureError):
            combine_partials(b"m", [partial], shared_key_3.public_key)

    def test_fingerprint_memo_is_invisible(self, shared_key_3):
        import dataclasses

        key = shared_key_3.public_key
        fresh = dataclasses.replace(key)
        assert key.fingerprint() is key.fingerprint()
        assert key.fingerprint() == fresh.fingerprint()
        assert key == fresh and hash(key) == hash(fresh)
        assert repr(key) == repr(fresh)


class TestDealerlessPath:
    @pytest.fixture(scope="class")
    def bf_result(self):
        return generate_shared_rsa(3, bits=128)

    def test_joint_signature_verifies(self, bf_result):
        signature = joint_sign(b"bf", bf_result.shares, bf_result.public_key)
        assert bf_result.public_key.verify(b"bf", signature)

    def test_dealerless_flag(self, bf_result):
        assert bf_result.dealerless

    def test_correction_in_range(self, bf_result):
        assert 0 <= bf_result.public_key.correction <= 3

    def test_statistics_recorded(self, bf_result):
        assert bf_result.candidate_rounds >= 1
        assert bf_result.messages_exchanged > 0

    def test_modulus_size_near_target(self, bf_result):
        # Share sampling adds ~2 bits of slack over the nominal size.
        assert 120 <= bf_result.public_key.bits <= 140

    def test_fewer_than_three_parties_rejected(self):
        with pytest.raises(ValueError):
            generate_shared_rsa(2, bits=128)

    def test_tiny_modulus_rejected(self):
        with pytest.raises(ValueError):
            generate_shared_rsa(3, bits=16)

    def test_subset_of_shares_fails(self, bf_result):
        from repro.crypto.joint_signature import (
            JointSignatureError,
            combine_partials,
            sign_share,
        )

        partials = [
            sign_share(b"x", s, bf_result.public_key)
            for s in bf_result.shares[:2]
        ]
        with pytest.raises(JointSignatureError):
            combine_partials(b"x", partials, bf_result.public_key)


class TestPrivateKeyShare:
    def test_negative_share_power(self, shared_key_3):
        n = shared_key_3.public_key.modulus
        share = PrivateKeyShare(index=1, value=-3, modulus=n)
        value = share.partial_power(2)
        assert (value * pow(2, 3, n)) % n == 1

    def test_positive_share_power(self, shared_key_3):
        n = shared_key_3.public_key.modulus
        share = PrivateKeyShare(index=1, value=5, modulus=n)
        assert share.partial_power(3) == pow(3, 5, n)


class TestKeyIdentity:
    def test_fingerprint_matches_convention(self, shared_key_3):
        pk = shared_key_3.public_key
        import hashlib

        expected = hashlib.sha256(
            f"{pk.modulus}:{pk.exponent}".encode()
        ).hexdigest()[:16]
        assert pk.fingerprint() == expected

    def test_verify_rejects_out_of_range(self, shared_key_3):
        pk = shared_key_3.public_key
        assert not pk.verify(b"m", 0)
        assert not pk.verify(b"m", pk.modulus + 5)
