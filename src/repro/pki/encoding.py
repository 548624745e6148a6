"""JSON transport encoding for certificates.

Certificates travel between domains and servers in real deployments;
this module provides a complete, reversible JSON encoding for every
certificate type (including nested revoked certificates), suitable for
wire transfer or directory persistence.  The canonical *signature*
payload remains :func:`repro.pki.serialization.canonical_bytes`; this
encoding is a transport envelope around it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Tuple, Union

from .certificates import (
    AttributeCertificate,
    Certificate,
    IdentityCertificate,
    RevocationCertificate,
    ThresholdAttributeCertificate,
    ValidityPeriod,
)

__all__ = [
    "encode_certificate",
    "decode_certificate",
    "certificate_to_dict",
    "certificate_from_dict",
    "EncodingError",
]


class EncodingError(Exception):
    """The JSON document is not a valid certificate encoding."""


def _validity_to_json(validity: ValidityPeriod) -> Dict[str, int]:
    return {"begin": validity.begin, "end": validity.end}


def _field(doc: Dict[str, Any], key: str, kind: type) -> Any:
    """``doc[key]``, which must be exactly a ``kind`` (so no bool for int).

    Decoded certificates are compared and interned by value, and
    ``False == 0``; an inexact type would make a forged document equal
    to a genuine certificate, or reach the signer's canonicalizer as a
    float.
    """
    value = doc[key]
    if type(value) is not kind:
        raise EncodingError(
            f"certificate field {key!r} is {type(value).__name__}, "
            f"expected {kind.__name__}"
        )
    return value


def _hex_field(doc: Dict[str, Any], key: str) -> int:
    return int(_field(doc, key, str), 16)


def _validity_from_json(doc: Any) -> ValidityPeriod:
    if type(doc) is not dict:
        raise EncodingError("certificate field 'validity' must be an object")
    return ValidityPeriod(
        begin=_field(doc, "begin", int), end=_field(doc, "end", int)
    )


def _subjects_from_json(doc: Any) -> Tuple[Tuple[str, str], ...]:
    if type(doc) is not list or not all(
        type(s) is list and len(s) == 2 and all(type(x) is str for x in s)
        for s in doc
    ):
        raise EncodingError(
            "certificate field 'subjects' must be a list of [name, key id]"
        )
    return tuple((name, key_id) for name, key_id in doc)


def _to_dict(cert: Certificate) -> Dict[str, Any]:
    if isinstance(cert, IdentityCertificate):
        return {
            "kind": "identity",
            "serial": cert.serial,
            "subject": cert.subject,
            "subject_key_modulus": hex(cert.subject_key_modulus),
            "subject_key_exponent": cert.subject_key_exponent,
            "issuer": cert.issuer,
            "issuer_key_id": cert.issuer_key_id,
            "timestamp": cert.timestamp,
            "validity": _validity_to_json(cert.validity),
            "signature": hex(cert.signature),
        }
    if isinstance(cert, AttributeCertificate):
        return {
            "kind": "attribute",
            "serial": cert.serial,
            "subject": cert.subject,
            "subject_key_id": cert.subject_key_id,
            "group": cert.group,
            "issuer": cert.issuer,
            "issuer_key_id": cert.issuer_key_id,
            "timestamp": cert.timestamp,
            "validity": _validity_to_json(cert.validity),
            "signature": hex(cert.signature),
        }
    if isinstance(cert, ThresholdAttributeCertificate):
        return {
            "kind": "threshold-attribute",
            "serial": cert.serial,
            "subjects": [list(s) for s in cert.subjects],
            "threshold": cert.threshold,
            "group": cert.group,
            "issuer": cert.issuer,
            "issuer_key_id": cert.issuer_key_id,
            "timestamp": cert.timestamp,
            "validity": _validity_to_json(cert.validity),
            "signature": hex(cert.signature),
        }
    if isinstance(cert, RevocationCertificate):
        return {
            "kind": "revocation",
            "serial": cert.serial,
            "revoked_serial": cert.revoked_serial,
            "revoked": _to_dict(cert.revoked),
            "issuer": cert.issuer,
            "issuer_key_id": cert.issuer_key_id,
            "timestamp": cert.timestamp,
            "effective_time": cert.effective_time,
            "signature": hex(cert.signature),
        }
    raise EncodingError(f"unknown certificate type {type(cert).__name__}")


def _from_dict(doc: Dict[str, Any]) -> Certificate:
    try:
        kind = doc["kind"]
        if kind == "identity":
            return IdentityCertificate(
                serial=_field(doc, "serial", str),
                subject=_field(doc, "subject", str),
                subject_key_modulus=_hex_field(doc, "subject_key_modulus"),
                subject_key_exponent=_field(doc, "subject_key_exponent", int),
                issuer=_field(doc, "issuer", str),
                issuer_key_id=_field(doc, "issuer_key_id", str),
                timestamp=_field(doc, "timestamp", int),
                validity=_validity_from_json(doc["validity"]),
                signature=_hex_field(doc, "signature"),
            )
        if kind == "attribute":
            return AttributeCertificate(
                serial=_field(doc, "serial", str),
                subject=_field(doc, "subject", str),
                subject_key_id=_field(doc, "subject_key_id", str),
                group=_field(doc, "group", str),
                issuer=_field(doc, "issuer", str),
                issuer_key_id=_field(doc, "issuer_key_id", str),
                timestamp=_field(doc, "timestamp", int),
                validity=_validity_from_json(doc["validity"]),
                signature=_hex_field(doc, "signature"),
            )
        if kind == "threshold-attribute":
            return ThresholdAttributeCertificate(
                serial=_field(doc, "serial", str),
                subjects=_subjects_from_json(doc["subjects"]),
                threshold=_field(doc, "threshold", int),
                group=_field(doc, "group", str),
                issuer=_field(doc, "issuer", str),
                issuer_key_id=_field(doc, "issuer_key_id", str),
                timestamp=_field(doc, "timestamp", int),
                validity=_validity_from_json(doc["validity"]),
                signature=_hex_field(doc, "signature"),
            )
        if kind == "revocation":
            return RevocationCertificate(
                serial=_field(doc, "serial", str),
                revoked_serial=_field(doc, "revoked_serial", str),
                revoked=certificate_from_dict(doc["revoked"]),
                issuer=_field(doc, "issuer", str),
                issuer_key_id=_field(doc, "issuer_key_id", str),
                timestamp=_field(doc, "timestamp", int),
                effective_time=_field(doc, "effective_time", int),
                signature=_hex_field(doc, "signature"),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise EncodingError(f"malformed certificate document: {exc}") from exc
    raise EncodingError(f"unknown certificate kind {kind!r}")


def certificate_to_dict(cert: Certificate) -> Dict[str, Any]:
    """The JSON-safe document form of any certificate.

    The same encoding :func:`encode_certificate` serializes, exposed as
    a plain dict so composite wire documents (e.g. the network edge's
    request frames, :mod:`repro.service.wire`) can embed certificates
    without double-encoding JSON strings.
    """
    return _to_dict(cert)


def certificate_from_dict(doc: Any) -> Certificate:
    """Parse a certificate document (inverse of :func:`certificate_to_dict`).

    Raises:
        EncodingError: the document is not a valid certificate encoding.
    """
    if not isinstance(doc, dict):
        raise EncodingError(
            f"certificate document must be a JSON object, "
            f"got {type(doc).__name__}"
        )
    return _from_dict(doc)


def encode_certificate(cert: Certificate) -> str:
    """Serialize any certificate to a JSON string."""
    return json.dumps(_to_dict(cert), sort_keys=True)


def decode_certificate(data: Union[str, bytes]) -> Certificate:
    """Parse a certificate from its JSON encoding.

    Raises:
        EncodingError: the document is not a valid encoding.
    """
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise EncodingError(f"not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise EncodingError("certificate document must be a JSON object")
    return _from_dict(doc)
