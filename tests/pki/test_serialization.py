"""Tests for canonical payload serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import json

from repro.pki.serialization import _is_flat, _normalize, canonical_bytes


class TestCanonicalBytes:
    def test_deterministic(self):
        payload = {"b": 1, "a": [1, 2], "c": "x"}
        assert canonical_bytes(payload) == canonical_bytes(payload)

    def test_key_order_irrelevant(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes(
            {"b": 2, "a": 1}
        )

    def test_value_sensitivity(self):
        assert canonical_bytes({"a": 1}) != canonical_bytes({"a": 2})

    def test_large_ints_hex_encoded(self):
        big = 2**256 + 12345
        data = canonical_bytes({"n": big})
        assert hex(big).encode() in data

    def test_bytes_values(self):
        data = canonical_bytes({"sig": b"\x01\x02"})
        assert b"0102" in data

    def test_tuples_as_lists(self):
        assert canonical_bytes({"a": (1, 2)}) == canonical_bytes({"a": [1, 2]})

    def test_nested(self):
        payload = {"outer": {"z": 1, "a": [True, None, "s"]}}
        assert canonical_bytes(payload) == canonical_bytes(payload)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_bytes({"x": object()})

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(
                st.integers(-(2**64), 2**64),
                st.text(max_size=16),
                st.booleans(),
                st.none(),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=40)
    def test_roundtrip_stability(self, payload):
        assert canonical_bytes(payload) == canonical_bytes(dict(payload))


def _slow_path(payload):
    """The encoding every payload got before flat payloads skipped _normalize."""
    return json.dumps(
        _normalize(payload), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


class TestFlatPayloadFastPath:
    """Flat payloads skip ``_normalize`` and must encode to the same bytes."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"type": "request-part", "user": "User_D1", "stated_at": 7, "nonce": "n"},
            {"z": "Zoë", "a": "日本", "m": "\u00e9 \\ \" \n \t \x00 \x7f"},
            {"big": 2**53 - 1, "neg": -(2**53) + 1, "zero": 0},
            {"edge": 2**53, "s": "x"},  # not flat: hex-encoded
            {"b": True, "s": "x"},  # bool is not an int here
            {"f": None, "s": "x"},
            {"t": True, "f": False, "n": None, "i": 1, "s": "x"},
            {"granted": False, "group": None, "sequence": 2**53 - 1},
            {},
        ],
    )
    def test_same_bytes_as_the_slow_path(self, payload):
        assert canonical_bytes(payload) == _slow_path(payload)

    @pytest.mark.parametrize(
        "payload, flat",
        [
            ({"t": True, "f": False, "n": None, "i": 1, "s": "x"}, True),
            ({"b": True, "edge": 2**53}, False),
            ({"n": None, "x": 1.5}, False),
            ({"n": None, "l": [True]}, False),
            ({1: None}, False),
        ],
    )
    def test_bool_and_none_stay_flat(self, payload, flat):
        assert _is_flat(payload) is flat

    @given(
        st.dictionaries(
            st.text(max_size=8),
            st.one_of(
                st.integers(-(2**60), 2**60),
                st.text(max_size=16),
                st.booleans(),
                st.none(),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=80)
    def test_same_bytes_for_generated_flat_payloads(self, payload):
        assert canonical_bytes(payload) == _slow_path(payload)
