"""The derivation engine: a verifier principal's reasoning machinery.

A :class:`DerivationEngine` belongs to one verifier (e.g. coalition
server P).  Its belief store holds the verifier's standing beliefs: the
initial beliefs (statements 1-11 of Appendix E) and, for each admitted
certificate or revocation, its receipt and its payload conclusion.  The
A10/A19/A23/A9 steps between them are built into the returned proof
and stored nowhere.  A request's signed parts record their receipts in
a :class:`~repro.core.store.RequestBeliefs`; their A10/A19 steps and
the group-says conclusion are returned unstored, so what one request
derives is dropped with its decision.  The engine exposes
exactly the inference moves the authorization protocol needs; every
conclusion carries a proof tree citing the paper's axioms by name.

The three workhorse moves are:

* :meth:`admit_certificate` — the Step 1/Step 2 pipeline: originator
  identification (A10), timestamp jurisdiction (A22/A23 via statement
  3/5/7-style beliefs), reduction (A9/A3), then content jurisdiction
  (A22, whose membership instances are A24-A33) to believe the
  certificate's payload.
* :meth:`admit_signed_utterance` — A10 + A19 on a signed request part,
  yielding ``U says <X>_{K_u^-1}`` for use by A35/A38.
* :meth:`derive_group_says` — A34/A35/A36/A38 selection by membership
  subject shape, producing ``G says X``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry
from . import axioms
from .axioms import AxiomError
from .formulas import (
    At,
    Controls,
    Formula,
    KeySpeaksFor,
    Not,
    Received,
    Said,
    Says,
    SpeaksForGroup,
)
from .messages import Message, Signed
from .patterns import AnyTime, match, substitute
from .proofs import ProofStep
from .store import BeliefStore, RequestBeliefs
from .temporal import Temporal
from .terms import (
    CompoundPrincipal,
    KeyBoundPrincipal,
    KeyRef,
    Principal,
    Subject,
    ThresholdPrincipal,
    Var,
)

__all__ = ["DerivationEngine", "DerivationError"]

class DerivationError(Exception):
    """A required derivation could not be completed.

    The message explains which premise was missing -- the authorization
    protocol surfaces this as the reason for an access denial.
    """


def _membership_axiom_name(subject: Subject) -> str:
    """The paper's axiom number for a membership-jurisdiction instance."""
    from .terms import KeyBoundCompound

    if isinstance(subject, ThresholdPrincipal):
        return "A28"
    if isinstance(subject, KeyBoundCompound):
        return "A27"
    if isinstance(subject, CompoundPrincipal):
        return "A25"
    if isinstance(subject, KeyBoundPrincipal):
        return "A26"
    return "A24"


class DerivationEngine:
    """Inference engine bound to one verifier principal."""

    def __init__(self, owner: Principal):
        self.owner = owner
        self.store = BeliefStore()
        # "For ease of reading we say that AA signs messages with KAA":
        # the compound principal holding the shares implements the
        # authority principal.  Registered aliases rewrite A10 originators.
        self._aliases: Dict[CompoundPrincipal, Principal] = {}
        self.metrics = MetricsRegistry("engine")
        self._steps_taken = self.metrics.counter("steps_taken")

    @property
    def steps_taken(self) -> int:
        return self._steps_taken.value

    # ------------------------------------------------------------ setup

    def believe(self, formula: Formula, note: str = "") -> ProofStep:
        """Install an initial belief (statements 1-11 of Appendix E)."""
        return self.store.add_premise(formula, note=note)

    def stats(self) -> Dict[str, int]:
        """Observability counters: derivation steps + belief-store index.

        Cumulative since engine construction; benchmarks assert cache
        wins on deltas of these rather than wall-clock.  A thin view
        over the unified metrics registries (see :mod:`repro.obs`).
        """
        return {"steps_taken": self.steps_taken, **self.store.stats()}

    def metrics_snapshot(self) -> Dict[str, object]:
        """Merged engine + store registry snapshot."""
        return MetricsRegistry.merge(
            [self.metrics.snapshot(), self.store.metrics_snapshot()]
        )

    def fork(self) -> "DerivationEngine":
        """A copy-on-write clone: same beliefs/aliases now, divergent after.

        Backs epoch snapshots (:mod:`repro.service`): the belief store
        forks lazily, aliases are copied shallowly, and the step counter
        carries over so per-request deltas stay meaningful.
        """
        clone = DerivationEngine.__new__(DerivationEngine)
        clone.owner = self.owner
        clone.store = self.store.fork()
        clone._aliases = dict(self._aliases)
        clone.metrics = self.metrics.fork()
        clone._steps_taken = clone.metrics.counter("steps_taken")
        return clone

    def register_alias(
        self, compound: CompoundPrincipal, authority: Principal
    ) -> None:
        """Declare that ``authority`` is implemented by ``compound``.

        Messages signed by the compound's shared key are treated as
        utterances of the authority (the paper's reading convention for
        the coalition AA).
        """
        self._aliases[compound] = authority

    def alias_map(self) -> Dict[Principal, CompoundPrincipal]:
        """Authority -> implementing compound (for proof checkers)."""
        return {auth: comp for comp, auth in self._aliases.items()}

    # --------------------------------------------------------- reception

    def receive(
        self,
        message: Message,
        at_time: int,
        beliefs: Optional[RequestBeliefs] = None,
    ) -> ProofStep:
        """Record receipt of a message at the verifier's local time."""
        formula = Received(self.owner, Temporal.point(at_time, self.owner), message)
        target = self.store if beliefs is None else beliefs
        return target.add_premise(formula, note="message receipt")

    # ------------------------------------------------------ basic lookups

    def find_key_binding(
        self, key: KeyRef, at_time: int
    ) -> Tuple[KeySpeaksFor, ProofStep]:
        """The first believed ``K => S`` covering ``at_time``, unrevoked.

        The candidate bindings and the times their revocations take
        effect come from :meth:`BeliefStore.key_bindings`, memoized per
        key until the store next admits a binding or a revocation of
        one; whether a binding covers ``at_time`` and is revoked by then
        is decided here on every call.  Believe-until-revoked, as with
        memberships: a binding stated at or after a revocation's time
        (a re-issued identity certificate) supersedes it.

        Raises DerivationError when the verifier has no (unrevoked)
        binding for the key.
        """
        for binding, proof, revoked_at in self.store.key_bindings(key):
            valid = binding.time
            if not valid.covers(at_time):
                continue
            if any(valid.lo < r <= at_time for r in revoked_at):
                continue
            return binding, proof
        raise DerivationError(
            f"{self.owner} holds no key binding for {key} valid at {at_time}"
        )

    # ------------------------------------------------- signed admissions

    def admit_signed_utterance(
        self,
        signed: Signed,
        received_at: int,
        beliefs: Optional[RequestBeliefs] = None,
    ) -> Tuple[ProofStep, ProofStep]:
        """A10 + A19 on a received signed message.

        Returns proofs of ``Q says_{t} X`` and ``Q says_{t} <X>_{K^-1}``
        where Q is the believed owner of the signing key (after alias
        rewriting for shared keys).  The receipt goes to ``beliefs``,
        or with none (a certificate admission) to the standing store,
        where :meth:`~repro.coalition.protocol.AuthorizationProtocol.audit`
        trusts it as a premise.  The four derived steps are built
        directly into the returned proofs and stored nowhere: no query
        reads them.
        """
        target = self.store if beliefs is None else beliefs
        received_proof = self.receive(signed, received_at, target)
        binding, binding_proof = self.find_key_binding(signed.key, received_at)
        try:
            said_body, said_signed = axioms.a10_originator_identification(
                binding, received_proof.conclusion
            )
        except AxiomError as exc:
            raise DerivationError(f"A10 failed: {exc}") from exc
        self._steps_taken.inc()
        said_body, said_signed = self._rewrite_alias(said_body), self._rewrite_alias(
            said_signed
        )
        premises = (binding_proof, received_proof)
        said_body_proof = ProofStep(said_body, "A10", premises)
        said_signed_proof = ProofStep(said_signed, "A10", premises)
        says_body_proof = ProofStep(
            axioms.a19_said_to_says(said_body, received_at), "A19", (said_body_proof,)
        )
        says_signed_proof = ProofStep(
            axioms.a19_said_to_says(said_signed, received_at),
            "A19",
            (said_signed_proof,),
        )
        return says_body_proof, says_signed_proof

    def _rewrite_alias(self, formula: Said) -> Said:
        subject = formula.subject
        if isinstance(subject, CompoundPrincipal) and subject in self._aliases:
            return Said(self._aliases[subject], formula.time, formula.body)
        return formula

    # ---------------------------------------------------- certificates

    def admit_certificate(self, signed_cert: Signed, received_at: int) -> ProofStep:
        """Believe the payload of a received idealized certificate.

        ``signed_cert.body`` must be ``Says(issuer, t_issue, payload)``.
        The chain mirrors Appendix E statements 6-10 / 12-16:

        1. A10 identifies the signer; an alias maps the share-holding
           compound principal to the issuing authority.
        2. A19 turns the utterance into a *says* premise.
        3. Timestamp jurisdiction (statement 3/5/7-style belief) + A23
           locates the certificate's content at the verifier; A9/A3
           strips the location.
        4. Content jurisdiction (statement 2/4/6-style belief) + A22
           (instances A24-A33 for membership payloads) yields the
           payload itself.

        Only the receipt and the payload become standing beliefs; steps
        1-4 live in the returned proof tree.  Returns the proof of the
        payload (its first proof, if the store already holds it).
        Raises DerivationError when any required belief is missing or
        the payload is revoked.
        """
        inner = signed_cert.body
        if not isinstance(inner, Says):
            raise DerivationError(
                "certificate body must be an idealized 'issuer says' formula"
            )
        issuer = inner.subject

        says_body_proof, _says_signed_proof = self.admit_signed_utterance(
            signed_cert, received_at
        )
        says_inner = says_body_proof.conclusion
        if says_inner.subject != issuer:
            raise DerivationError(
                f"certificate signed by {says_inner.subject}, "
                f"but body claims issuer {issuer}"
            )

        # Step 3: timestamp jurisdiction over "issuer says_t_issue payload".
        located_proof = self._apply_jurisdiction(
            speaker=issuer,
            utter_proof=says_body_proof,
            target=inner,
            axiom_label="A23",
        )
        inner_proof = self._strip_location(located_proof)

        # Step 4: content jurisdiction over the payload itself.
        payload = inner.body
        axiom_label = (
            _membership_axiom_name(payload.subject)
            if isinstance(payload, SpeaksForGroup)
            else "A22"
        )
        payload_located = self._apply_jurisdiction(
            speaker=issuer,
            utter_proof=inner_proof,
            target=payload,
            axiom_label=axiom_label,
        )
        return self.store.add(self._strip_location(payload_located))

    def _apply_jurisdiction(
        self,
        speaker: object,
        utter_proof: ProofStep,
        target: Formula,
        axiom_label: str,
    ) -> ProofStep:
        """Find a controls-belief matching ``target`` and apply A22/A23.

        ``utter_proof`` must prove a ``speaker says ...`` whose body is
        ``target`` (or the utterance *is* the says-formula being
        controlled, for timestamp jurisdiction).  The located step is
        returned unstored.
        """
        utterance = utter_proof.conclusion
        if utterance.body != target:
            raise DerivationError(
                "jurisdiction target must be the utterance's content"
            )

        controls_schema = Controls(
            subject=speaker, time=AnyTime("jt"), body=Var("body")
        )
        for formula, _bindings, proof in self.store.query(controls_schema):
            inst_bindings = match(formula.body, target)
            if inst_bindings is None:
                continue
            instantiated = Controls(
                subject=formula.subject,
                time=formula.time,
                body=substitute(formula.body, inst_bindings),
            )
            # The instance lives in the proof tree only: storing one per
            # admission would make every later jurisdiction query of
            # this speaker scan them all.
            inst_proof = ProofStep(
                instantiated,
                "inst",
                (proof,),
                note="universal instantiation of jurisdiction belief",
            )
            try:
                axioms.a22_jurisdiction(instantiated, utterance)
            except AxiomError:
                continue
            self._steps_taken.inc()
            # Relocate at the verifier: the controls beliefs carry the
            # verifier's clock (the ",P" subscripts in the paper), so the
            # located formula sits at the verifier over <t*, t_utter>.
            located_here = At(
                target,
                self.owner,
                Temporal.some(
                    min(instantiated.time.lo, utterance.time.lo),
                    max(utterance.time.hi, utterance.time.lo),
                    self.owner,
                ),
            )
            return ProofStep(located_here, axiom_label, (inst_proof, utter_proof))
        raise DerivationError(
            f"{self.owner} holds no jurisdiction belief of {speaker} "
            f"covering: {target}"
        )

    def _strip_location(self, located_proof: ProofStep) -> ProofStep:
        """A3/A9: ``phi at_me t`` believed here is ``phi`` believed here."""
        located = located_proof.conclusion
        if not isinstance(located, At) or located.place != self.owner:
            raise DerivationError("can only strip a location at the verifier")
        self._steps_taken.inc()
        return ProofStep(located.body, "A9", (located_proof,), note="A3/A9 reduction")

    # --------------------------------------------------------- revocation

    def admit_revocation(self, signed_cert: Signed, received_at: int) -> ProofStep:
        """Believe a revocation: payload is ``not(membership)``.

        Mirrors the Message 2 chain of Section 4.3 (statements 7-10
        applied to a negated membership formula).
        """
        inner = signed_cert.body
        if not isinstance(inner, Says) or not isinstance(inner.body, Not):
            raise DerivationError("revocation body must be 'issuer says not(...)'")
        return self.admit_certificate(signed_cert, received_at)

    def membership_revoked(
        self,
        membership: SpeaksForGroup,
        at_time: int,
        stated_at: Optional[int] = None,
    ) -> Optional[ProofStep]:
        """The proof of a believed revocation defeating ``membership``.

        Believe-until-revoked: a revocation effective at ``r <= at_time``
        defeats any same-subject/group certificate *stated before* the
        revocation.  A certificate (re-)issued at or after the revocation
        time supersedes it — re-keying after coalition dynamics re-issues
        certificates this way.  ``stated_at`` defaults to the membership
        validity start when the issuance timestamp is unknown.
        """
        if stated_at is None:
            stated_at = membership.time.lo
        schema = SpeaksForGroup(
            subject=membership.subject, time=AnyTime("rt"), group=membership.group
        )
        for negation, proof in self.store.negations_of(schema):
            revoked_at = negation.body.time.lo
            if revoked_at <= at_time and stated_at < revoked_at:
                return proof
        return None

    # ----------------------------------------------------- group speaking

    def find_membership(
        self, group: object, at_time: int
    ) -> List[Tuple[SpeaksForGroup, ProofStep]]:
        """Believed, unrevoked memberships of ``group`` valid at ``at_time``."""
        schema = SpeaksForGroup(subject=Var("s"), time=AnyTime("t"), group=group)
        results = []
        for formula, _bindings, proof in self.store.query(schema):
            if not formula.time.covers(at_time):
                continue
            if self.membership_revoked(formula, at_time) is not None:
                continue
            results.append((formula, proof))
        return results

    def derive_group_says(
        self,
        membership_proof: ProofStep,
        utterance_proofs: Sequence[ProofStep],
    ) -> ProofStep:
        """Apply the right A34-A38 instance for the membership's subject.

        ``utterance_proofs`` are proofs of ``says`` formulas: one for
        A34/A35/A36, at least m (signed, key-bound) for A38.  The
        conclusion is returned, not stored: no later query reads it.
        """
        membership = membership_proof.conclusion
        if not isinstance(membership, SpeaksForGroup):
            raise DerivationError("membership proof must conclude S => G")
        if not utterance_proofs:
            raise DerivationError(
                "group-says derivation needs at least one utterance proof "
                f"(none supplied for membership {membership})"
            )
        subject = membership.subject
        utterances = [p.conclusion for p in utterance_proofs]
        from .terms import KeyBoundCompound

        try:
            if isinstance(subject, ThresholdPrincipal):
                conclusion = axioms.a38_threshold_group_says(membership, utterances)
                rule = "A38"
            elif isinstance(subject, KeyBoundCompound):
                binding, binding_proof = self.find_key_binding(
                    subject.key, utterances[0].time.lo
                )
                conclusion = axioms.a37_keybound_compound_group_says(
                    membership, binding, utterances[0]
                )
                rule = "A37"
                utterance_proofs = [binding_proof, *utterance_proofs]
            elif isinstance(subject, CompoundPrincipal):
                conclusion = axioms.a36_compound_group_says(membership, utterances[0])
                rule = "A36"
            elif isinstance(subject, KeyBoundPrincipal):
                binding, binding_proof = self.find_key_binding(
                    subject.key, utterances[0].time.lo
                )
                conclusion = axioms.a35_keybound_group_says(
                    membership, binding, utterances[0]
                )
                rule = "A35"
                utterance_proofs = [binding_proof, *utterance_proofs]
            else:
                conclusion = axioms.a34_group_says(membership, utterances[0])
                rule = "A34"
        except AxiomError as exc:
            raise DerivationError(f"group-says derivation failed: {exc}") from exc
        self._steps_taken.inc()
        return ProofStep(conclusion, rule, (membership_proof, *utterance_proofs))

    # ------------------------------------------------------- freshness

    def check_freshness(
        self, stated_at: int, received_at: int, window: int
    ) -> bool:
        """Recency check in the style of Stubblebine-Wright.

        A message whose origination timestamp is within ``window`` ticks
        of the local receive time is accepted as fresh (axiom A21 lifts
        component freshness to the composite message).
        """
        return received_at - window <= stated_at <= received_at + window
