"""Canonical serialization of certificate payloads.

Signatures must be computed over a deterministic byte encoding of the
certificate's content.  We use a tiny canonical format (sorted-key JSON
with explicit type tags) rather than ASN.1/DER — the paper's protocols
only require that signer and verifier agree on the bytes.
"""

from __future__ import annotations

import json
from typing import Any, Dict

__all__ = ["canonical_bytes"]

# What ``json.dumps(value, sort_keys=True, separators=(",", ":"))``
# builds on every call; encoding keeps no state between calls.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _normalize(value: Any) -> Any:
    """Reduce a payload value to JSON-safe, deterministic primitives."""
    if isinstance(value, dict):
        return {str(k): _normalize(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        # Large ints (moduli, signatures) are JSON-safe in Python but we
        # hex-encode to keep the representation portable.
        if abs(value) >= 2**53:
            return {"__int__": hex(value)}
        return value
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def _is_flat(payload: Dict[str, Any]) -> bool:
    """Whether ``_normalize`` would return ``payload`` unchanged.

    True for a dict of ``str`` keys whose values are all exactly
    ``str``, ``bool``, ``None`` or ``int`` below ``2**53`` in magnitude
    (a signed request part or an audit entry, for two); sorting is then
    left to the encoder.
    """
    for key, value in payload.items():
        if type(key) is not str:
            return False
        kind = type(value)
        if kind is int:
            if abs(value) >= 2**53:
                return False
        elif kind is not str and kind is not bool and value is not None:
            return False
    return True


def canonical_bytes(payload: Dict[str, Any]) -> bytes:
    """Deterministic byte encoding of a certificate payload dict."""
    flat = type(payload) is dict and _is_flat(payload)
    normalized = payload if flat else _normalize(payload)
    return _ENCODER.encode(normalized).encode("utf-8")
