"""Certificate types: identity, attribute, threshold-attribute, revocation.

Each certificate is a real cryptographic object — a canonical byte
payload plus an RSA-FDH signature — *and* carries an idealization into
the logic (Section 4.2's "idealized time-stamped certificates"), so the
coalition server can first verify bytes and then reason about trust.

Certificates are frozen, so the bytes a signature covers, the subject
key, its key id and the structural hash are computed once per object
and memoized on it (:func:`repro.core.hashcons.memoized` and
:func:`~repro.core.hashcons.cached_hash`; the hash memo stays out of
pickles); the signature itself is still checked on every use.

The correspondence, using the paper's notation:

* identity:   ``CA says_tCA  (K_P =>_[tb,te] P)         signed K_CA^-1``
* attribute:  ``AA says_tAA  (P|K_P =>_[tb,te] G)        signed K_AA^-1``
* threshold:  ``AA says_tAA  (CP_{m,n} =>_[tb,te] G)     signed K_AA^-1``
  with ``CP = {P_1|K_1, ..., P_n|K_n}``
* revocation: ``X says_tX    not(...)                    signed K_X^-1``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from ..core.formulas import KeySpeaksFor, Not, Says, SpeaksForGroup
from ..core.hashcons import cached_hash, memoized
from ..core.messages import Signed
from ..core.temporal import FOREVER, Temporal
from ..core.terms import (
    CompoundPrincipal,
    intern_group,
    intern_key,
    intern_principal,
)
from .serialization import canonical_bytes

# Idealization runs on every request the server authorizes; interned
# leaves let repeat idealizations share structure (and cached hashes).
Principal = intern_principal
Group = intern_group
KeyRef = intern_key

__all__ = [
    "ValidityPeriod",
    "IdentityCertificate",
    "AttributeCertificate",
    "ThresholdAttributeCertificate",
    "RevocationCertificate",
    "Certificate",
]


@dataclass(frozen=True)
class ValidityPeriod:
    """The certificate validity interval ``[tb, te]``."""

    begin: int
    end: int

    def __post_init__(self) -> None:
        if self.begin > self.end:
            raise ValueError("validity period must be nonempty")

    def contains(self, t: int) -> bool:
        return self.begin <= t <= self.end

    def to_temporal(self) -> Temporal:
        return Temporal.all(self.begin, self.end)


@cached_hash
@dataclass(frozen=True)
class IdentityCertificate:
    """Binds a subject name to a public key, signed by a domain CA.

    Carries the actual key material (modulus/exponent) like a real
    X.509 certificate, so verifiers learn the key from the certificate.
    """

    serial: str
    subject: str
    subject_key_modulus: int
    subject_key_exponent: int
    issuer: str
    issuer_key_id: str
    timestamp: int  # t_CA: when the CA deemed the content accurate
    validity: ValidityPeriod
    signature: int = 0

    @property
    @memoized
    def subject_key(self):
        from ..crypto.rsa import RSAPublicKey

        return RSAPublicKey(
            modulus=self.subject_key_modulus, exponent=self.subject_key_exponent
        )

    @property
    @memoized
    def subject_key_id(self) -> str:
        return self.subject_key.fingerprint()

    @memoized
    def payload_bytes(self) -> bytes:
        return canonical_bytes(
            {
                "type": "identity",
                "serial": self.serial,
                "subject": self.subject,
                "subject_key_modulus": self.subject_key_modulus,
                "subject_key_exponent": self.subject_key_exponent,
                "issuer": self.issuer,
                "issuer_key_id": self.issuer_key_id,
                "timestamp": self.timestamp,
                "validity": [self.validity.begin, self.validity.end],
            }
        )

    def idealize(self) -> Signed:
        """The idealized certificate formula of Section 4.2."""
        subject = Principal(self.subject)
        body = KeySpeaksFor(
            key=KeyRef(self.subject_key_id, f"K_{self.subject}"),
            time=self.validity.to_temporal(),
            subject=subject,
        )
        says = Says(Principal(self.issuer), Temporal.point(self.timestamp), body)
        return Signed(says, KeyRef(self.issuer_key_id, f"K_{self.issuer}"))


@cached_hash
@dataclass(frozen=True)
class AttributeCertificate:
    """Grants group membership to one key-bound subject (``P|K => G``)."""

    serial: str
    subject: str
    subject_key_id: str
    group: str
    issuer: str
    issuer_key_id: str
    timestamp: int
    validity: ValidityPeriod
    signature: int = 0

    @memoized
    def payload_bytes(self) -> bytes:
        return canonical_bytes(
            {
                "type": "attribute",
                "serial": self.serial,
                "subject": self.subject,
                "subject_key_id": self.subject_key_id,
                "group": self.group,
                "issuer": self.issuer,
                "issuer_key_id": self.issuer_key_id,
                "timestamp": self.timestamp,
                "validity": [self.validity.begin, self.validity.end],
            }
        )

    def idealize(self) -> Signed:
        subject = Principal(self.subject).bound_to(
            KeyRef(self.subject_key_id, f"K_{self.subject}")
        )
        body = SpeaksForGroup(
            subject=subject,
            time=self.validity.to_temporal(),
            group=Group(self.group),
        )
        says = Says(Principal(self.issuer), Temporal.point(self.timestamp), body)
        return Signed(says, KeyRef(self.issuer_key_id, f"K_{self.issuer}"))


@cached_hash
@dataclass(frozen=True)
class ThresholdAttributeCertificate:
    """Grants ``m``-of-``n`` group membership to key-bound subjects.

    ``subjects`` is the ordered tuple of ``(principal_name, key_id)``
    pairs comprising the compound principal CP; the certificate requires
    any ``threshold`` of them to co-sign access requests (Figure 2).
    """

    serial: str
    subjects: Tuple[Tuple[str, str], ...]
    threshold: int
    group: str
    issuer: str
    issuer_key_id: str
    timestamp: int
    validity: ValidityPeriod
    signature: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.threshold <= len(self.subjects):
            raise ValueError("threshold out of range for subject count")

    @memoized
    def payload_bytes(self) -> bytes:
        return canonical_bytes(
            {
                "type": "threshold-attribute",
                "serial": self.serial,
                "subjects": [list(s) for s in self.subjects],
                "threshold": self.threshold,
                "group": self.group,
                "issuer": self.issuer,
                "issuer_key_id": self.issuer_key_id,
                "timestamp": self.timestamp,
                "validity": [self.validity.begin, self.validity.end],
            }
        )

    def compound_principal(self) -> CompoundPrincipal:
        members = [
            Principal(name).bound_to(KeyRef(key_id, f"K_{name}"))
            for name, key_id in self.subjects
        ]
        return CompoundPrincipal.of(members)

    def idealize(self) -> Signed:
        body = SpeaksForGroup(
            subject=self.compound_principal().threshold(self.threshold),
            time=self.validity.to_temporal(),
            group=Group(self.group),
        )
        says = Says(Principal(self.issuer), Temporal.point(self.timestamp), body)
        return Signed(says, KeyRef(self.issuer_key_id, f"K_{self.issuer}"))


@cached_hash
@dataclass(frozen=True)
class RevocationCertificate:
    """Revokes a previously distributed certificate.

    ``revoked_serial`` names the certificate; the idealization negates
    its payload from ``effective_time`` on (revocations carry an upper
    bound of infinity, footnote 2 of the paper).
    """

    serial: str
    revoked_serial: str
    revoked: Union[
        "IdentityCertificate",
        "AttributeCertificate",
        "ThresholdAttributeCertificate",
    ]
    issuer: str
    issuer_key_id: str
    timestamp: int
    effective_time: int
    signature: int = 0

    @memoized
    def payload_bytes(self) -> bytes:
        return canonical_bytes(
            {
                "type": "revocation",
                "serial": self.serial,
                "revoked_serial": self.revoked_serial,
                "issuer": self.issuer,
                "issuer_key_id": self.issuer_key_id,
                "timestamp": self.timestamp,
                "effective_time": self.effective_time,
            }
        )

    def idealize(self) -> Signed:
        """``issuer says_t not(payload holding from effective_time)``."""
        revoked_ideal = self.revoked.idealize()
        inner = revoked_ideal.body.body  # the membership / key formula
        import dataclasses as _dc

        negated_body = _dc.replace(
            inner, time=Temporal.all(self.effective_time, FOREVER)
        )
        says = Says(
            Principal(self.issuer),
            Temporal.point(self.timestamp),
            Not(negated_body),
        )
        return Signed(says, KeyRef(self.issuer_key_id, f"K_{self.issuer}"))


Certificate = Union[
    IdentityCertificate,
    AttributeCertificate,
    ThresholdAttributeCertificate,
    RevocationCertificate,
]
