"""Wire protocol for the network edge: framing, codecs, sync client.

The edge (:mod:`repro.service.edge`) speaks a small length-prefixed
JSON protocol over TCP.  Every frame is::

    +-------+---------+----------+-------------------+---------------+
    | magic | version | reserved | body length (u32) | JSON body ... |
    | 2 B   | 1 B     | 1 B      | 4 B big-endian    | length bytes  |
    +-------+---------+----------+-------------------+---------------+

The header is versioned (``PROTOCOL_VERSION``) and the body length is
bounded (``DEFAULT_MAX_FRAME``): a peer announcing a larger body is
rejected *before* any body byte is read.  Every way a frame can be
malformed — bad magic, unknown version, oversized, truncated
mid-header or mid-body, non-JSON body, non-object body — raises a
typed :class:`ProtocolError` carrying a stable ``code``, never a bare
parser exception; the edge turns those into 400-style response frames
instead of crashed connection handlers.

Layering (DESIGN.md §14): this module moves bytes and translates
between JSON documents and domain objects (requests, decisions,
certificates).  It never verifies a signature and never evaluates
policy — all authorization stays behind
:class:`~repro.service.service.AuthorizationService`.

:class:`EdgeClient` is the blocking-socket client the scenario
engine, the conformance tests and the ``edge-smoke`` CLI use; the
server side lives in :mod:`repro.service.edge`.  :class:`ClientBundle`
carries the key material a *separate-process* client needs to sign
requests the server will accept (the ``serve --client-bundle`` /
``edge-smoke`` pair in the CLI).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..coalition.domain import User
from ..coalition.protocol import AuthorizationDecision
from ..coalition.requests import JointAccessRequest, SignedRequestPart
from ..crypto.rsa import RSAKeyPair, RSAPrivateKey, RSAPublicKey
from ..pki.certificates import (
    Certificate,
    IdentityCertificate,
    ThresholdAttributeCertificate,
)
from ..pki.encoding import (
    EncodingError,
    certificate_from_dict,
    certificate_to_dict,
)
from ..pki.serialization import canonical_bytes
from .admission import CircuitOpen, Errored, Overloaded

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME",
    "ProtocolError",
    "encode_frame",
    "decode_header",
    "decode_body",
    "decode_frame",
    "request_to_dict",
    "request_from_dict",
    "decision_to_dict",
    "decision_wire_bytes",
    "EdgeClient",
    "ClientBundle",
]

PROTOCOL_VERSION = 1
_MAGIC = b"CE"  # Coalition Edge
_HEADER = struct.Struct("!2sBxI")
HEADER_SIZE = _HEADER.size
# 1 MiB: a joint request with three 256-bit identity certificates is a
# few KB; anything near the cap is hostile or corrupt.
DEFAULT_MAX_FRAME = 1 << 20


class ProtocolError(Exception):
    """A malformed frame or document — typed, recoverable, never a crash.

    ``code`` is a stable machine-readable discriminator (it travels in
    400-style response frames); the ``str()`` is the human reason.
    Framing-level codes (``bad-magic``, ``bad-version``,
    ``frame-too-large``, ``truncated``, ``bad-json``, ``bad-frame``)
    mean the byte stream can no longer be trusted and the connection
    must close; document-level codes (``bad-request``,
    ``unknown-kind``) leave the framing intact, so the connection keeps
    serving.
    """

    #: codes after which the stream is desynchronized and must close.
    FRAMING_CODES = frozenset(
        ["bad-magic", "bad-version", "frame-too-large", "truncated",
         "bad-json", "bad-frame"]
    )

    def __init__(self, code: str, reason: str):
        super().__init__(reason)
        self.code = code

    @property
    def fatal(self) -> bool:
        """True when the connection's framing is beyond recovery."""
        return self.code in self.FRAMING_CODES


# ------------------------------------------------------------- framing


def encode_frame(doc: Dict[str, Any], max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Serialize one JSON document into a headered frame."""
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(body) > max_frame:
        raise ProtocolError(
            "frame-too-large",
            f"frame body is {len(body)} bytes (max {max_frame})",
        )
    return _HEADER.pack(_MAGIC, PROTOCOL_VERSION, len(body)) + body


def decode_header(header: bytes, max_frame: int = DEFAULT_MAX_FRAME) -> int:
    """Validate a frame header; return the announced body length.

    The length is checked against ``max_frame`` *here*, so a reader can
    refuse an oversized frame without consuming its body.
    """
    if len(header) < HEADER_SIZE:
        raise ProtocolError(
            "truncated",
            f"frame header is {len(header)} bytes (need {HEADER_SIZE})",
        )
    magic, version, length = _HEADER.unpack(header[:HEADER_SIZE])
    if magic != _MAGIC:
        raise ProtocolError("bad-magic", f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "bad-version",
            f"protocol version {version} (speaking {PROTOCOL_VERSION})",
        )
    if length > max_frame:
        raise ProtocolError(
            "frame-too-large",
            f"frame announces {length} bytes (max {max_frame})",
        )
    return length


def decode_body(body: bytes) -> Dict[str, Any]:
    """Parse a frame body into a JSON object (and nothing else)."""
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("bad-json", f"frame body is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError(
            "bad-frame", f"frame body must be a JSON object, got {type(doc).__name__}"
        )
    return doc


def decode_frame(
    data: bytes, max_frame: int = DEFAULT_MAX_FRAME
) -> Dict[str, Any]:
    """Decode one complete frame from ``data`` (exact-length buffers).

    Test/fuzz convenience: validates the header, requires the body to
    be exactly the announced length, and parses it.
    """
    length = decode_header(data, max_frame)
    body = data[HEADER_SIZE:]
    if len(body) != length:
        raise ProtocolError(
            "truncated",
            f"frame announces {length} body bytes, buffer has {len(body)}",
        )
    return decode_body(body)


# ----------------------------------------------------- request documents


def request_to_dict(request: JointAccessRequest) -> Dict[str, Any]:
    """The ``{op, object, parts…}`` document of one joint request."""
    return {
        "op": request.operation,
        "object": request.object_name,
        "requestor": request.requestor,
        "degraded": request.degraded,
        "identity_certificates": [
            certificate_to_dict(cert) for cert in request.identity_certificates
        ],
        "attribute_certificate": certificate_to_dict(
            request.attribute_certificate
        ),
        "parts": [
            {
                "user": part.user,
                "user_key_id": part.user_key_id,
                "op": part.operation,
                "object": part.object_name,
                "stated_at": part.stated_at,
                "nonce": part.nonce,
                "signature": hex(part.signature),
            }
            for part in request.parts
        ],
    }


# Decoded certificates, keyed by content.  A client sends the same few
# certificates with every request; decoding each of them to one shared
# object lets what a certificate memoizes (its signed payload bytes,
# subject key and key id) carry across requests.  Dataclass equality
# covers every field, the signature included, and the decoder admits
# exactly typed fields only, so the shared object is equal to a fresh
# decode in every field; signatures are still checked per request.
# Oldest entries go first once the table is full.
INTERN_CAPACITY = 1024
_interned: Dict[Certificate, Certificate] = {}
_intern_lock = threading.Lock()
# The encodings of interned certificates, keyed by their signature
# string, each with its shape (``_shape``): a repeated document is
# found here without being decoded.
_documents: Dict[str, Tuple[Dict[str, Any], tuple, Certificate]] = {}


def _intern(cert: Certificate) -> Certificate:
    with _intern_lock:
        shared = _interned.get(cert)
        if shared is None:
            if len(_interned) >= INTERN_CAPACITY:
                del _interned[next(iter(_interned))]
            _interned[cert] = shared = cert
    return shared


def _shape(doc: Any) -> Any:
    """The type of every leaf of a JSON document, nested as the document.

    A container becomes a tuple of ``(key or index, shape)`` pairs, a
    leaf its type.
    """
    if type(doc) is dict:
        return tuple((key, _shape(value)) for key, value in doc.items())
    if type(doc) is list:
        return tuple(enumerate(map(_shape, doc)))
    return type(doc)


def _has_shape(doc: Any, shape: tuple) -> bool:
    """Whether the leaves of ``doc`` have the types ``shape`` records.

    ``doc`` must already equal the document ``shape`` was taken from,
    so every key and index exists.
    """
    for key, kind in shape:
        value = doc[key]
        if type(kind) is tuple:
            if not _has_shape(value, kind):
                return False
        elif type(value) is not kind:
            return False
    return True


def _decode_certificate(doc: Any) -> Certificate:
    """The interned certificate a document encodes.

    A document equal, type for type, to the encoding of a certificate
    decoded before returns that certificate without decoding; any
    other runs the typed decoder, and the encoding of what it decodes
    is remembered by its signature string.  Plain ``==`` has
    ``1.0 == 1`` and ``True == 1``, so after ``==`` (which fixes the
    keys and lengths) the type of every leaf is compared too.
    """
    signature = doc.get("signature") if type(doc) is dict else None
    known = _documents.get(signature) if type(signature) is str else None
    if known is not None:
        known_doc, shape, cert = known
        if doc == known_doc and _has_shape(doc, shape):
            return cert
    cert = _intern(certificate_from_dict(doc))
    known_doc = certificate_to_dict(cert)
    with _intern_lock:
        if len(_documents) >= INTERN_CAPACITY:
            del _documents[next(iter(_documents))]
        _documents[known_doc["signature"]] = (
            known_doc, _shape(known_doc), cert
        )
    return cert


def _require(doc: Dict[str, Any], key: str, types) -> Any:
    value = doc.get(key)
    if not isinstance(value, types) or isinstance(value, bool):
        raise ProtocolError(
            "bad-request",
            f"request field {key!r} is {type(value).__name__}, "
            f"expected {getattr(types, '__name__', types)}",
        )
    return value


def request_from_dict(doc: Any) -> JointAccessRequest:
    """Rebuild a :class:`JointAccessRequest` from its wire document.

    Every malformation — missing keys, wrong types, undecodable
    certificates, wrong certificate kinds — raises
    ``ProtocolError("bad-request", …)``; the edge answers those with a
    400-style frame and keeps the connection.  A certificate document
    equal to one decoded before comes back as that certificate object
    without being decoded again (``_decode_certificate``).
    """
    if not isinstance(doc, dict):
        raise ProtocolError(
            "bad-request",
            f"request must be a JSON object, got {type(doc).__name__}",
        )
    try:
        parts_doc = doc.get("parts")
        idents_doc = doc.get("identity_certificates")
        if not isinstance(parts_doc, list) or not parts_doc:
            raise ProtocolError(
                "bad-request", "request carries no signed parts"
            )
        if not isinstance(idents_doc, list):
            raise ProtocolError(
                "bad-request", "identity_certificates must be a list"
            )
        parts: List[SignedRequestPart] = []
        for part in parts_doc:
            if not isinstance(part, dict):
                raise ProtocolError(
                    "bad-request", "request part must be a JSON object"
                )
            parts.append(
                SignedRequestPart(
                    user=_require(part, "user", str),
                    user_key_id=_require(part, "user_key_id", str),
                    operation=_require(part, "op", str),
                    object_name=_require(part, "object", str),
                    stated_at=_require(part, "stated_at", int),
                    nonce=_require(part, "nonce", str),
                    signature=int(_require(part, "signature", str), 16),
                )
            )
        identity_certificates = []
        for cert_doc in idents_doc:
            cert = _decode_certificate(cert_doc)
            if not isinstance(cert, IdentityCertificate):
                raise ProtocolError(
                    "bad-request",
                    f"identity_certificates holds a "
                    f"{type(cert).__name__}",
                )
            identity_certificates.append(cert)
        attribute = _decode_certificate(doc.get("attribute_certificate"))
        if not isinstance(attribute, ThresholdAttributeCertificate):
            raise ProtocolError(
                "bad-request",
                f"attribute_certificate is a {type(attribute).__name__}",
            )
        degraded = doc.get("degraded", False)
        if not isinstance(degraded, bool):
            raise ProtocolError("bad-request", "degraded must be a boolean")
        return JointAccessRequest(
            operation=_require(doc, "op", str),
            object_name=_require(doc, "object", str),
            requestor=_require(doc, "requestor", str),
            identity_certificates=identity_certificates,
            attribute_certificate=attribute,
            parts=parts,
            degraded=degraded,
        )
    except ProtocolError:
        raise
    except (EncodingError, KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            "bad-request", f"malformed request document: {exc}"
        ) from exc


# ---------------------------------------------------- decision documents


def decision_to_dict(decision: AuthorizationDecision) -> Dict[str, Any]:
    """The wire document of one decision, typed by outcome class.

    Contains exactly the decision-semantic fields (no cache/index
    counters): the bytes of this document are what the byte-parity
    acceptance compares between socket and in-process evaluation.
    """
    doc: Dict[str, Any] = {
        "type": "decision",
        "granted": decision.granted,
        "reason": decision.reason,
        "op": decision.operation,
        "object": decision.object_name,
        "checked_at": decision.checked_at,
        "group": decision.group or "",
        "derivation_steps": decision.derivation_steps,
    }
    if isinstance(decision, CircuitOpen):
        doc["type"] = "circuit-open"
        doc["restarts"] = decision.restarts
    elif isinstance(decision, Overloaded):
        doc["type"] = "overloaded"
        doc["queue_depth"] = decision.queue_depth
    elif isinstance(decision, Errored):
        doc["type"] = "errored"
        doc["error_type"] = decision.error_type
    return doc


def decision_wire_bytes(doc: Dict[str, Any]) -> bytes:
    """Canonical bytes of a decision document (byte-parity comparisons).

    Works identically on a locally built ``decision_to_dict(...)`` and
    on the parsed ``response["decision"]`` a client received, so "the
    socket returned byte-identical decisions" is a real byte compare.
    """
    return canonical_bytes(doc)


# -------------------------------------------------------------- client


class EdgeClient:
    """A blocking-socket client for the edge protocol.

    One instance is one TCP connection.  :meth:`authorize` is the
    closed-loop request/response call; :meth:`send_authorize` /
    :meth:`recv_response` split the two halves so an open-loop driver
    can pipeline many in-flight requests on one connection (responses
    carry the request ``id`` for correlation).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        max_frame: int = DEFAULT_MAX_FRAME,
    ):
        self.max_frame = max_frame
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    # framing ----------------------------------------------------------

    def send_frame(self, doc: Dict[str, Any]) -> None:
        self._sock.sendall(encode_frame(doc, self.max_frame))

    def send_raw(self, data: bytes) -> None:
        """Ship arbitrary bytes (conformance tests feed garbage here)."""
        self._sock.sendall(data)

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                got = n - remaining
                if got == 0 and n == HEADER_SIZE and not chunks:
                    raise ConnectionError("connection closed by peer")
                raise ProtocolError(
                    "truncated", f"connection closed mid-frame ({got}/{n} bytes)"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv_frame(self) -> Dict[str, Any]:
        header = self._recv_exact(HEADER_SIZE)
        length = decode_header(header, self.max_frame)
        return decode_body(self._recv_exact(length))

    # protocol ---------------------------------------------------------

    def send_authorize(
        self, request: JointAccessRequest, now: int, req_id: int = 0
    ) -> None:
        self.send_frame(
            {
                "kind": "authorize",
                "id": req_id,
                "now": now,
                "request": request_to_dict(request),
            }
        )

    def recv_response(self) -> Dict[str, Any]:
        return self.recv_frame()

    def authorize(
        self, request: JointAccessRequest, now: int, req_id: int = 0
    ) -> Dict[str, Any]:
        """Closed-loop call: send one request, block for its response."""
        self.send_authorize(request, now, req_id)
        return self.recv_frame()

    def probe(self, which: str, req_id: int = 0) -> Dict[str, Any]:
        self.send_frame({"kind": which, "id": req_id})
        return self.recv_frame()

    def healthz(self) -> Dict[str, Any]:
        return self.probe("healthz")

    def readyz(self) -> Dict[str, Any]:
        return self.probe("readyz")

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best-effort close
            pass

    def __enter__(self) -> "EdgeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ------------------------------------------------------- client bundle


@dataclass
class ClientBundle:
    """Key material a separate-process client needs to drive the edge.

    The coalition's users (with private keys), the live read/write
    threshold certificates and the registered object names.  The
    ``serve`` CLI can export one so ``edge-smoke`` — a different
    process with no access to the server's memory — can sign requests
    the service will actually grant.  This is provisioning data for a
    *trusted* load driver, not a protocol artifact: real deployments
    distribute keys out of band.
    """

    users: List[User]
    read_cert: ThresholdAttributeCertificate
    write_cert: ThresholdAttributeCertificate
    object_names: List[str]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "users": [
                {
                    "name": user.name,
                    "domain": user.domain_name,
                    "modulus": hex(user.keypair.public.modulus),
                    "public_exponent": user.keypair.public.exponent,
                    "private_exponent": hex(user.keypair.private.exponent),
                    "prime_p": hex(user.keypair.private.prime_p),
                    "prime_q": hex(user.keypair.private.prime_q),
                    "identity_certificate": certificate_to_dict(
                        user.identity_certificate
                    ),
                }
                for user in self.users
            ],
            "read_cert": certificate_to_dict(self.read_cert),
            "write_cert": certificate_to_dict(self.write_cert),
            "object_names": list(self.object_names),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ClientBundle":
        users = []
        for entry in doc["users"]:
            modulus = int(entry["modulus"], 16)
            keypair = RSAKeyPair(
                public=RSAPublicKey(
                    modulus=modulus, exponent=entry["public_exponent"]
                ),
                private=RSAPrivateKey(
                    modulus=modulus,
                    exponent=int(entry["private_exponent"], 16),
                    prime_p=int(entry["prime_p"], 16),
                    prime_q=int(entry["prime_q"], 16),
                ),
            )
            users.append(
                User(
                    name=entry["name"],
                    domain_name=entry["domain"],
                    keypair=keypair,
                    identity_certificate=certificate_from_dict(
                        entry["identity_certificate"]
                    ),
                )
            )
        return cls(
            users=users,
            read_cert=certificate_from_dict(doc["read_cert"]),
            write_cert=certificate_from_dict(doc["write_cert"]),
            object_names=list(doc["object_names"]),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)

    @classmethod
    def load(cls, path: str) -> "ClientBundle":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))
