"""The authorization protocol of Section 4.3 / Appendix E.

:class:`AuthorizationProtocol` is the verifier-side machine a coalition
server runs.  ``configure_*`` methods install the initial beliefs
(statements 1-11); :meth:`authorize` applies the four protocol steps to
a joint access request:

* **Step 0 (cryptographic)** — discharge the logic's ideal-signature
  assumption: verify certificate and request signatures, validity
  periods, freshness windows and replay nonces.
* **Step 1** — verify the signing keys: admit identity certificates
  (A10 + A22 jurisdiction chains) to believe ``K_u => U``.
* **Step 2** — establish group membership: admit the threshold
  attribute certificate (A10, A23, A9, A25/A28) to believe
  ``CP_{m,n} => G``, subject to believe-until-revoked.
* **Step 3** — verify the signed request parts (A10 + A19).
* **Step 4** — apply A38 to conclude ``G says "op" O`` and check the
  object's ACL and the certificate validity window.

A Step 1-2 admission leaves its receipt and its conclusion as standing
beliefs of the verifier, its chain steps in the proof tree only; Steps
3-4 build their proof steps unstored and record only the message
receipts they cite, in a request-local
:class:`~repro.core.store.RequestBeliefs`.  The receipts are kept on
the decision, and the nonce ledger records their digest so that
:meth:`AuthorizationProtocol.audit` can tell them from forged ones.

Every decision returns the derivation as a proof tree, so a granted
request is *literally* the Appendix E derivation for that request.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..core.derivation import DerivationEngine, DerivationError
from ..obs.metrics import MetricsRegistry
from ..core.formulas import (
    Controls,
    Formula,
    KeySpeaksFor,
    Not,
    Says,
    SpeaksForGroup,
)
from ..core.patterns import AnyTime, match
from ..core.proofs import ProofStep
from ..core.store import RequestBeliefs
from ..core.temporal import FOREVER, Temporal
from ..core.terms import CompoundPrincipal, KeyRef, Principal, Var, is_ground
from ..crypto.boneh_franklin import SharedRSAPublicKey
from ..crypto.rsa import RSAPublicKey
from ..pki.certificates import Certificate, RevocationCertificate
from ..pki.validation import CertificateError, validate_certificate
from .acl import ACL
from .requests import JointAccessRequest

__all__ = ["AuthorizationDecision", "AuthorizationProtocol", "NonceLedger"]

DEFAULT_FRESHNESS_WINDOW = 50


def _receipts_digest(receipts: Tuple[Formula, ...]) -> bytes:
    # The dataclass repr spells out every field, so equal digests mean
    # equal receipts.  The receipt node classes generate or memoize
    # that text without the dataclass recursion guard
    # (repro.core.hashcons.plain_repr).
    return hashlib.sha256(repr(receipts).encode()).digest()


class NonceLedger:
    """Replay ledger bounded by the freshness window, safe to share.

    A nonce only needs remembering while a replay could still pass the
    staleness check, i.e. until ``stated_at + window < now``; entries map
    to their forget-after time and a deque drives expiry.  The ledger is
    lock-protected so protocol forks of successive epochs
    (:mod:`repro.service`) can share one global replay window — replay
    protection must span epochs, unlike belief state.

    The ledger also keeps a digest of the message receipts each
    accepted request recorded, forgotten with its nonce: an audit trusts
    a decision's receipts only if they match it (see
    :meth:`AuthorizationProtocol.trusted_premises`).
    """

    def __init__(self, freshness_window: int = DEFAULT_FRESHNESS_WINDOW):
        self.freshness_window = freshness_window
        self._seen: Dict[str, int] = {}
        self._expiry: Deque[Tuple[int, str]] = deque()
        self._receipts: Dict[str, bytes] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._seen)

    def seen(self, nonce: str) -> bool:
        with self._lock:
            return nonce in self._seen

    def remember(
        self, nonce: str, now: int, receipts: Tuple[Formula, ...] = ()
    ) -> None:
        forget_after = now + 2 * self.freshness_window
        with self._lock:
            self._seen[nonce] = forget_after
            self._expiry.append((forget_after, nonce))
            if receipts:
                self._receipts[nonce] = _receipts_digest(receipts)

    def recorded(self, nonce: Optional[str], receipts: Tuple[Formula, ...]) -> bool:
        """Whether ``receipts`` are what the unexpired ``nonce`` recorded."""
        if nonce is None or not receipts:
            return False
        with self._lock:
            digest = self._receipts.get(nonce)
        return digest == _receipts_digest(receipts)

    def purge(self, now: int) -> int:
        """Forget nonces whose replay would fail the freshness check anyway."""
        purged = 0
        with self._lock:
            queue = self._expiry
            while queue and queue[0][0] < now:
                forget_after, nonce = queue.popleft()
                if self._seen.get(nonce) == forget_after:
                    del self._seen[nonce]
                    self._receipts.pop(nonce, None)
                    purged += 1
        return purged


@dataclass
class AuthorizationDecision:
    """Outcome of the authorization protocol for one request.

    ``cache_hits``/``cache_misses`` count certificate admissions served
    from / added to the protocol's admission cache while deciding this
    request; ``index_probes`` counts belief-store index lookups.  All
    three exist so load tests can assert fast-path behavior.

    ``receipts`` are the message receipts a grant recorded (the
    premises of its proof that are not standing beliefs) and ``nonce``
    its replay nonce.  An audit trusts the receipts only while the
    verifier's nonce ledger holds a matching record for that nonce.
    """

    granted: bool
    reason: str
    operation: str
    object_name: str
    checked_at: int
    group: Optional[str] = None
    proof: Optional[ProofStep] = None
    derivation_steps: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    index_probes: int = 0
    nonce: Optional[str] = None
    receipts: Tuple[Formula, ...] = ()

    def __bool__(self) -> bool:
        return self.granted


class AuthorizationProtocol:
    """Verifier-side state: trust anchors, beliefs, and the 4-step check."""

    def __init__(
        self,
        verifier_name: str,
        freshness_window: int = DEFAULT_FRESHNESS_WINDOW,
        trust_epoch: int = 0,
        nonce_ledger: Optional[NonceLedger] = None,
    ):
        self.verifier = Principal(verifier_name)
        self.engine = DerivationEngine(self.verifier)
        self.freshness_window = freshness_window
        self.trust_epoch = trust_epoch  # the paper's t*
        self._trusted_ca_keys: Dict[str, RSAPublicKey] = {}
        self._trusted_aa_keys: Dict[str, SharedRSAPublicKey] = {}
        self._trusted_ra_keys: Dict[str, RSAPublicKey] = {}
        # Replay protection.  The ledger may be shared across protocol
        # forks (service epochs): replays must deny globally even when
        # belief state is epoched.
        # (`is not None`, not `or`: an empty shared ledger is falsy.)
        self.nonces = (
            nonce_ledger
            if nonce_ledger is not None
            else NonceLedger(freshness_window)
        )
        # Admission fast path: one Step 1/Step 2 derivation chain per
        # certificate, reused across requests until a revocation evicts
        # it.  Keyed by the (frozen, hashable) certificate object.
        self._cert_cache: Dict[Certificate, ProofStep] = {}
        # (subject, group) -> the cached certificates whose admission
        # concludes that membership: what a revocation of it evicts.
        # Values are tuples, so a fork copies the map, not its entries.
        self._cached_memberships: Dict[Tuple[object, object], Tuple[Certificate, ...]] = {}
        self.metrics = MetricsRegistry("protocol")
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        self._cache_hits = self.metrics.counter("cert_cache_hits")
        self._cache_misses = self.metrics.counter("cert_cache_misses")
        self._decisions_made = self.metrics.counter("decisions_made")
        self._revocations_admitted = self.metrics.counter("revocations_admitted")
        self._gauge_cache_entries = self.metrics.gauge("cert_cache_entries")

    @property
    def decisions_made(self) -> int:
        return self._decisions_made.value

    def fork(self) -> "AuthorizationProtocol":
        """A copy-on-write clone for epoch snapshots (:mod:`repro.service`).

        The fork sees exactly the current beliefs, trust anchors and
        certificate admissions and diverges independently afterwards —
        revocations applied to one side never leak to the other.  The
        nonce ledger is deliberately *shared*: replay protection is a
        global property of the server, not of any one policy epoch.
        """
        clone = AuthorizationProtocol.__new__(AuthorizationProtocol)
        clone.verifier = self.verifier
        clone.engine = self.engine.fork()
        clone.freshness_window = self.freshness_window
        clone.trust_epoch = self.trust_epoch
        clone._trusted_ca_keys = dict(self._trusted_ca_keys)
        clone._trusted_aa_keys = dict(self._trusted_aa_keys)
        clone._trusted_ra_keys = dict(self._trusted_ra_keys)
        clone.nonces = self.nonces
        clone._cert_cache = dict(self._cert_cache)
        clone._cached_memberships = dict(self._cached_memberships)
        clone.metrics = self.metrics.fork()
        clone._bind_metrics()
        return clone

    # ----------------------------------------------------- trust set-up

    def trust_domain_ca(self, ca_name: str, ca_key: RSAPublicKey) -> None:
        """Install statements 6-11: CA key + identity-cert jurisdiction."""
        self._trusted_ca_keys[ca_name] = ca_key
        ca = Principal(ca_name)
        key_ref = KeyRef(ca_key.fingerprint(), f"K_{ca_name}")
        self.engine.believe(
            KeySpeaksFor(key_ref, Temporal.all(self.trust_epoch, FOREVER, self.verifier), ca),
            note=f"trusted CA key for {ca_name}",
        )
        id_schema = KeySpeaksFor(Var("K"), AnyTime("iv"), Var("Q"))
        self.engine.believe(
            Controls(ca, Temporal.all(0, FOREVER), id_schema),
            note=f"stmt 6/8/10: {ca_name} controls identity bindings",
        )
        self.engine.believe(
            Controls(
                ca,
                Temporal.all(self.trust_epoch, FOREVER, self.verifier),
                Says(ca, AnyTime("tca"), id_schema),
            ),
            note=f"stmt 7/9/11: {ca_name} controls its certificate timestamps",
        )
        # CAs also have jurisdiction over revoking their own bindings
        # (identity-certificate revocation, Stubblebine-Wright style).
        neg_id_schema = Not(id_schema)
        self.engine.believe(
            Controls(ca, Temporal.all(0, FOREVER), neg_id_schema),
            note=f"{ca_name} controls identity revocation",
        )
        self.engine.believe(
            Controls(
                ca,
                Temporal.all(self.trust_epoch, FOREVER, self.verifier),
                Says(ca, AnyTime("tca"), neg_id_schema),
            ),
            note=f"{ca_name} controls its revocation timestamps",
        )

    def trust_coalition_aa(
        self,
        aa_name: str,
        shared_key: SharedRSAPublicKey,
        member_domains: List[str],
        threshold: Optional[int] = None,
    ) -> None:
        """Install statements 1-5: shared key ownership + AA jurisdiction.

        ``threshold`` is the m of the key's m-of-n sharing; it defaults
        to n (the consensus design).  An m < n records the Section 3.3
        availability variant in statement 1.
        """
        self._trusted_aa_keys[aa_name] = shared_key
        aa = Principal(aa_name)
        domains = CompoundPrincipal.of([Principal(d) for d in member_domains])
        key_ref = KeyRef(shared_key.fingerprint(), f"K_{aa_name}")
        m = domains.size if threshold is None else threshold
        # Statement 1: K_AA => CP_{m,n} (m == n for the consensus design).
        self.engine.believe(
            KeySpeaksFor(
                key_ref,
                Temporal.all(self.trust_epoch, FOREVER, self.verifier),
                domains.threshold(m),
            ),
            note=f"stmt 1: {aa_name}'s shared key is owned by {member_domains}",
        )
        self.engine.register_alias(domains, aa)
        membership_schema = SpeaksForGroup(Var("CP"), AnyTime("iv"), Var("G"))
        # Statements 2/3 (and 4/5 for simple principals, subsumed by Var).
        self.engine.believe(
            Controls(aa, Temporal.all(0, FOREVER), membership_schema),
            note=f"stmt 2/3: {aa_name} controls group membership",
        )
        self.engine.believe(
            Controls(
                aa,
                Temporal.all(self.trust_epoch, FOREVER, self.verifier),
                Says(aa, AnyTime("taa"), membership_schema),
            ),
            note=f"stmt 4/5: {aa_name} controls its certificate timestamps",
        )

    def trust_revocation_authority(
        self, ra_name: str, ra_key: RSAPublicKey
    ) -> None:
        """Authorize an RA to revoke memberships on behalf of the AA."""
        self._trusted_ra_keys[ra_name] = ra_key
        ra = Principal(ra_name)
        key_ref = KeyRef(ra_key.fingerprint(), f"K_{ra_name}")
        self.engine.believe(
            KeySpeaksFor(
                key_ref, Temporal.all(self.trust_epoch, FOREVER, self.verifier), ra
            ),
            note=f"trusted RA key for {ra_name}",
        )
        revocation_schema = Not(SpeaksForGroup(Var("CP"), AnyTime("iv"), Var("G")))
        self.engine.believe(
            Controls(ra, Temporal.all(0, FOREVER), revocation_schema),
            note=f"{ra_name} controls membership revocation",
        )
        self.engine.believe(
            Controls(
                ra,
                Temporal.all(self.trust_epoch, FOREVER, self.verifier),
                Says(ra, AnyTime("tra"), revocation_schema),
            ),
            note=f"{ra_name} controls its revocation timestamps",
        )

    # ------------------------------------------------- admission cache

    def _admit_cached(self, cert: Certificate, now: int) -> ProofStep:
        """Admit a certificate, memoizing the derivation chain.

        The derived payload is time-independent (it carries its own
        validity interval), so the A10/A19/A23/A22 chain only needs to
        run once per certificate.  Validity, freshness and revocation
        are still checked on every request by the caller; a received
        revocation additionally evicts affected entries.
        """
        proof = self._cert_cache.get(cert)
        if proof is not None:
            self._cache_hits.inc()
            return proof
        proof = self.engine.admit_certificate(cert.idealize(), now)
        self._cache_misses.inc()
        self._cert_cache[cert] = proof
        conclusion = proof.conclusion
        if conclusion.__class__ is SpeaksForGroup:
            key = (conclusion.subject, conclusion.group)
            self._cached_memberships[key] = self._cached_memberships.get(key, ()) + (cert,)
        return proof

    def _evict_revoked(self, negation: Formula) -> int:
        """Drop cached admissions whose payload ``negation`` defeats.

        ``negation`` is the believed ``not(...)`` revocation payload;
        any cached conclusion with the same subject/key and group is
        evicted regardless of its validity interval, forcing the next
        request through the full believe-until-revoked derivation.  A
        membership revocation finds its victims by (subject, group);
        other shapes ``match`` every cached admission.
        """
        if not isinstance(negation, Not):
            return 0
        body = negation.body
        if (
            body.__class__ is SpeaksForGroup
            and is_ground(body.subject)
            and is_ground(body.group)
        ):
            victims = self._cached_memberships.pop((body.subject, body.group), ())
            return sum(self._cert_cache.pop(cert, None) is not None for cert in victims)
        schema = body
        if dataclasses.is_dataclass(body) and hasattr(body, "time"):
            schema = dataclasses.replace(body, time=AnyTime())
        evicted = [
            cert
            for cert, proof in self._cert_cache.items()
            if match(schema, proof.conclusion) is not None
        ]
        for cert in evicted:
            del self._cert_cache[cert]
        return len(evicted)

    # --------------------------------------------------- replay window

    def _remember_nonce(
        self, nonce: str, now: int, receipts: Tuple[Formula, ...]
    ) -> None:
        self.nonces.remember(nonce, now, receipts)

    def _purge_nonces(self, now: int) -> None:
        """Forget nonces whose replay would fail the freshness check anyway.

        Runs on every :meth:`authorize` *and* every
        :meth:`apply_revocation`, so the ledger stays bounded even when
        traffic is all revocations (or all requests).
        """
        self.nonces.purge(now)

    # ------------------------------------------------------- revocation

    def apply_revocation(
        self, revocation: RevocationCertificate, now: int
    ) -> ProofStep:
        """Admit a revocation certificate (Message 2 of Section 4.3).

        After this, membership queries for the revoked subject/group
        fail for any check time >= the revocation's effective time, and
        cached admissions of the revoked certificate are evicted.
        """
        ra_key = self._trusted_ra_keys.get(revocation.issuer) or (
            self._trusted_ca_keys.get(revocation.issuer)
        )
        if ra_key is None:
            raise CertificateError(
                f"no trusted revocation key for issuer {revocation.issuer}"
            )
        validate_certificate(revocation, ra_key)
        proof = self.engine.admit_revocation(revocation.idealize(), now)
        self._revocations_admitted.inc()
        self._evict_revoked(proof.conclusion)
        # Purge on the revocation path too: nonce expiry must not depend
        # on request arrival alone (sustained revocation-only traffic
        # would otherwise pin the ledger at its high-water mark).
        self._purge_nonces(now)
        return proof

    # ----------------------------------------------------------- auditing

    def trusted_premises(self, decision: AuthorizationDecision) -> Set[Formula]:
        """The premises an audit of ``decision`` accepts.

        The verifier's standing beliefs (premises, and the receipts and
        conclusions of admitted certificates), plus ``decision.receipts`` if
        they match what the nonce ledger recorded for ``decision.nonce``.
        The record is the verifier's own, so a proof citing a receipt
        never received for that request — fabricated, or another
        request's — fails.  It is forgotten with the nonce, so an audit
        must run within the replay window (twice the freshness window).
        """
        trusted = set(self.engine.store.snapshot())
        if self.nonces.recorded(decision.nonce, decision.receipts):
            trusted.update(decision.receipts)
        return trusted

    def audit(self, decision: AuthorizationDecision) -> bool:
        """Independently re-check a granted decision's proof tree.

        Re-applies every cited axiom to the premise conclusions and
        checks each premise against :meth:`trusted_premises`.
        Raises :class:`repro.core.checker.ProofCheckError` on any
        discrepancy — a tampered or fabricated proof never passes.
        """
        from ..core.checker import ProofChecker

        if decision.proof is None:
            raise ValueError("decision carries no proof to audit")
        checker = ProofChecker(
            trusted_premises=self.trusted_premises(decision),
            aliases=self.engine.alias_map(),
        )
        return checker.check(decision.proof)

    # ------------------------------------------------------ authorization

    def authorize(
        self, request: JointAccessRequest, acl: ACL, now: int
    ) -> AuthorizationDecision:
        """Run Steps 0-4 on a joint access request against ``acl``."""
        self._decisions_made.inc()
        store = self.engine.store
        probes_before = store.index_probes
        hits_before = self._cache_hits.value
        misses_before = self._cache_misses.value

        def deny(reason: str) -> AuthorizationDecision:
            return AuthorizationDecision(
                granted=False,
                reason=reason,
                operation=request.operation,
                object_name=request.object_name,
                checked_at=now,
                cache_hits=self._cache_hits.value - hits_before,
                cache_misses=self._cache_misses.value - misses_before,
                index_probes=store.index_probes - probes_before,
            )

        # ---- Step 0: cryptographic checks --------------------------------
        certs_by_subject = {}
        for cert in request.identity_certificates:
            ca_key = self._trusted_ca_keys.get(cert.issuer)
            if ca_key is None:
                return deny(f"untrusted identity CA {cert.issuer!r}")
            try:
                validate_certificate(cert, ca_key, now)
            except CertificateError as exc:
                return deny(f"identity certificate rejected: {exc}")
            certs_by_subject[cert.subject] = cert

        tac = request.attribute_certificate
        aa_key = self._trusted_aa_keys.get(tac.issuer)
        if aa_key is None:
            return deny(f"untrusted attribute authority {tac.issuer!r}")
        try:
            validate_certificate(tac, aa_key, now)
        except CertificateError as exc:
            return deny(f"threshold attribute certificate rejected: {exc}")

        tac_keys = dict(tac.subjects)
        for part in request.parts:
            cert = certs_by_subject.get(part.user)
            if cert is None:
                return deny(f"no identity certificate supplied for {part.user}")
            if not cert.subject_key.verify(part.payload_bytes(), part.signature):
                return deny(f"bad request signature from {part.user}")
            if part.user not in tac_keys:
                return deny(f"{part.user} is not a subject of the certificate")
            if tac_keys[part.user] != cert.subject_key_id:
                return deny(
                    f"{part.user}'s certificate key differs from the key the "
                    "threshold certificate binds (selective distribution)"
                )
            if not self.engine.check_freshness(
                part.stated_at, now, self.freshness_window
            ):
                return deny(
                    f"stale request part from {part.user} "
                    f"(stated {part.stated_at}, now {now})"
                )
            if (part.operation, part.object_name) != (
                request.operation,
                request.object_name,
            ):
                return deny(f"{part.user}'s part signs a different request")
        nonces = {part.nonce for part in request.parts}
        if len(nonces) != 1:
            return deny("request parts carry inconsistent nonces")
        nonce = nonces.pop()
        self._purge_nonces(now)
        if self.nonces.seen(nonce):
            return deny("replayed request (nonce already accepted)")

        # ---- Steps 1-4: the derivation ------------------------------------
        try:
            # Step 1: believe the users' key bindings.
            for cert in request.identity_certificates:
                self._admit_cached(cert, now)
            # Step 2: believe the threshold membership.
            membership_proof = self._admit_cached(tac, now)
            membership = membership_proof.conclusion
            revoked = self.engine.membership_revoked(
                membership, now, stated_at=tac.timestamp
            )
            if revoked is not None:
                return deny(
                    "membership revoked: believe-until-revoked defeats the "
                    f"certificate ({revoked.conclusion})"
                )
            # Step 3: believe the signed request parts.
            beliefs = RequestBeliefs()
            says_proofs = []
            for part in request.parts:
                _says_body, says_signed = self.engine.admit_signed_utterance(
                    part.idealize(), now, beliefs
                )
                says_proofs.append(says_signed)
            # Step 4: A38 concludes "G says op", then check the ACL.
            group_says_proof = self.engine.derive_group_says(
                membership_proof, says_proofs
            )
        except DerivationError as exc:
            return deny(f"derivation failed: {exc}")

        group = tac.group
        if not tac.validity.contains(now):
            return deny("certificate validity window excludes decision time")
        if not acl.allows(group, request.operation, now):
            return deny(
                f"ACL grants no {request.operation!r} to group {group!r}"
            )
        receipts = beliefs.premises()
        self._remember_nonce(nonce, now, receipts)
        return AuthorizationDecision(
            granted=True,
            reason="access approved",
            operation=request.operation,
            object_name=request.object_name,
            checked_at=now,
            group=group,
            proof=group_says_proof,
            derivation_steps=group_says_proof.size(),
            cache_hits=self._cache_hits.value - hits_before,
            cache_misses=self._cache_misses.value - misses_before,
            index_probes=store.index_probes - probes_before,
            nonce=nonce,
            receipts=receipts,
        )

    # ----------------------------------------------------------- stats

    def stats(self) -> Dict[str, int]:
        """Engine + fast-path counters, for benchmarks and load tests.

        A thin view over the unified metrics registries; the flat dict
        shape predates the registry and stays stable for callers.
        """
        return {
            **self.engine.stats(),
            "decisions_made": self.decisions_made,
            "cert_cache_entries": len(self._cert_cache),
            "cert_cache_hits": self._cache_hits.value,
            "cert_cache_misses": self._cache_misses.value,
            "tracked_nonces": len(self.nonces),
            "nonce_cache_size": len(self.nonces),
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """Merged protocol + engine + store registry snapshot.

        The shared nonce ledger is *not* gauged here: it is global to
        the server/service that owns it, and summing one shared size
        across epoch forks would multiply it (see DESIGN.md §10).
        """
        self._gauge_cache_entries.set(len(self._cert_cache))
        return MetricsRegistry.merge(
            [self.metrics.snapshot(), self.engine.metrics_snapshot()]
        )
