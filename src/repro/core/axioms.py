"""Axiom schemas of the logic (Appendix B, A1-A38) as pure functions.

Each function takes premise formulas, checks their shape, and returns the
conclusion formula.  A violated premise raises :class:`AxiomError` — the
derivation engine treats that as "this axiom does not apply", and the
authorization protocol treats an underivable goal as access denial.

The axioms operate on the *contents* of a principal's beliefs: by
necessitation (R2) and belief closure (A1/A4), any axiom theorem lifts
into every principal's belief set, which is how the engine uses them.

Naming follows the paper exactly so proof steps are citable: axiom A10
is :func:`a10_originator_identification`, A22/A23 are
:func:`a22_jurisdiction`, A38 is :func:`a38_threshold_group_says`, etc.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .formulas import (
    At,
    Believes,
    Controls,
    Formula,
    Fresh,
    Has,
    Implies,
    KeySpeaksFor,
    Received,
    Said,
    Says,
    SpeaksForGroup,
)
from .messages import Encrypted, MessageTuple, Signed
from .temporal import Temporal, TemporalKind
from .terms import (
    CompoundPrincipal,
    KeyBoundPrincipal,
    Principal,
    ThresholdPrincipal,
)

__all__ = [
    "AxiomError",
    "a1_belief_closure",
    "a2_belief_introspection",
    "a3_belief_at",
    "a7_interval_instantiation",
    "a8_monotonicity_received",
    "a8_monotonicity_said",
    "a8_monotonicity_has",
    "a8_monotonicity_fresh",
    "a9_reduction",
    "a10_originator_identification",
    "a11_decrypt",
    "a12_read_signed",
    "a15_said_projection",
    "a16_says_projection",
    "a17_said_strip_signature",
    "a18_says_strip_signature",
    "a19_said_to_says",
    "a20_says_to_said",
    "a21_freshness",
    "a22_jurisdiction",
    "a34_group_says",
    "a35_keybound_group_says",
    "a36_compound_group_says",
    "a37_keybound_compound_group_says",
    "a38_threshold_group_says",
]


class AxiomError(Exception):
    """Premises do not fit the axiom schema."""


def _require(condition: bool, message: str) -> None:
    # Constant messages only: a formatted one is raised at its site, so
    # it is built when the check fails, not on every passing call.
    if not condition:
        raise AxiomError(message)


# ---------------------------------------------------------------- belief


def a1_belief_closure(belief: Believes, implication_belief: Believes) -> Believes:
    """A1/A4: ``P believes phi`` and ``P believes (phi -> psi)`` give
    ``P believes psi``.  Covers compound principals (A4) identically."""
    _require(isinstance(belief, Believes), "first premise must be a belief")
    _require(
        isinstance(implication_belief, Believes),
        "second premise must be a belief",
    )
    _require(
        belief.subject == implication_belief.subject
        and belief.time == implication_belief.time,
        "beliefs must share subject and time",
    )
    body = implication_belief.body
    _require(isinstance(body, Implies), "second belief must be an implication")
    _require(body.antecedent == belief.body, "antecedent mismatch")
    return Believes(belief.subject, belief.time, body.consequent)


def a2_belief_introspection(belief: Believes) -> Believes:
    """A2/A5: ``P believes phi  ==  P believes P believes phi`` (one hop)."""
    _require(isinstance(belief, Believes), "premise must be a belief")
    return Believes(belief.subject, belief.time, belief)


def a3_belief_at(belief: Believes) -> Believes:
    """A3/A6: believing phi is believing (phi at_P t)."""
    _require(isinstance(belief, Believes), "premise must be a belief")
    located = At(belief.body, belief.subject, belief.time)
    return Believes(belief.subject, belief.time, located)


# ------------------------------------------------------- time/reduction


def a7_interval_instantiation(formula: Formula, t: int) -> Formula:
    """A7: an ``[t1, t2]`` modality holds at each point t in the interval.

    Applies to believes/controls/received/says/said/has/=> uniformly.
    """
    time = getattr(formula, "time", None)
    _require(isinstance(time, Temporal), "formula has no temporal annotation")
    _require(
        time.kind is TemporalKind.ALL,
        "interval instantiation needs a closed-interval annotation",
    )
    if not time.lo <= t <= time.hi:
        raise AxiomError(f"t={t} outside [{time.lo}, {time.hi}]")
    import dataclasses

    return dataclasses.replace(
        formula, time=Temporal.point(t, time.clock)
    )


def a8_monotonicity_received(premise: Received, t_later: int) -> Received:
    """A8a: received at t stays received at any t' >= t."""
    _require(isinstance(premise, Received), "premise must be received")
    _require(premise.time.is_point, "monotonicity applies to point times")
    _require(t_later >= premise.time.lo, "target time precedes premise time")
    return Received(
        premise.subject, Temporal.point(t_later, premise.time.clock), premise.body
    )


def a8_monotonicity_said(premise: Said, t_later: int) -> Said:
    """A8b: said at t stays said at any t' >= t."""
    _require(isinstance(premise, Said), "premise must be said")
    _require(premise.time.is_point, "monotonicity applies to point times")
    _require(t_later >= premise.time.lo, "target time precedes premise time")
    return Said(
        premise.subject, Temporal.point(t_later, premise.time.clock), premise.body
    )


def a8_monotonicity_has(premise: Has, t_later: int) -> Has:
    """A8c: key possession persists."""
    _require(isinstance(premise, Has), "premise must be has")
    _require(premise.time.is_point, "monotonicity applies to point times")
    _require(t_later >= premise.time.lo, "target time precedes premise time")
    return Has(
        premise.subject, Temporal.point(t_later, premise.time.clock), premise.key
    )


def a8_monotonicity_fresh(premise: Fresh, t_earlier: int) -> Fresh:
    """A8d: freshness persists *backwards*: fresh at t is fresh at t' <= t."""
    _require(isinstance(premise, Fresh), "premise must be fresh")
    _require(premise.time.is_point, "monotonicity applies to point times")
    _require(t_earlier <= premise.time.lo, "freshness only extends backwards")
    return Fresh(premise.message, Temporal.point(t_earlier, premise.time.clock))


_REDUCIBLE = (Says, Said, Received, At)


def a9_reduction(nested: At) -> At:
    """A9: ``(phi at_P t1) at_P t2`` with ``t2 >= t1`` gives ``phi at_P t2``.

    Restricted (as in the paper) to phi being an at/says/said/received
    formula, which is stable under relocation.
    """
    _require(isinstance(nested, At), "premise must be an at-formula")
    inner = nested.body
    _require(isinstance(inner, At), "premise must be a nested at-formula")
    _require(inner.place == nested.place, "both at-annotations must share P")
    _require(
        isinstance(inner.body, _REDUCIBLE),
        "reduction applies to at/says/said/received bodies only",
    )
    outer_time, inner_time = nested.time, inner.time
    _require(
        outer_time.lo >= inner_time.lo,
        "outer time must not precede inner time",
    )
    return At(inner.body, nested.place, outer_time)


# --------------------------------------------- originator identification


def _key_subject_matches(speaks: KeySpeaksFor) -> object:
    """The principal identified as signer: P, CP, or CP (from CP_{m,n})."""
    subject = speaks.subject
    if isinstance(subject, ThresholdPrincipal):
        # A10c: a threshold key still identifies the compound principal.
        return subject.base
    return subject


def a10_originator_identification(
    speaks: KeySpeaksFor, received: Received
) -> Tuple[Said, Said]:
    """A10: a verified signature identifies its originator.

    Premises: ``K =>_{t,P} Q`` and ``P received_t <X>_{K^-1}``; concludes
    ``Q said_{t,P} X`` and ``Q said_{t,P} <X>_{K^-1}``.  Covers simple
    principals (A10a), compound principals with shared keys (A10b), and
    threshold constructs (A10c).
    """
    _require(isinstance(speaks, KeySpeaksFor), "first premise must be K => Q")
    _require(isinstance(received, Received), "second premise must be received")
    body = received.body
    _require(isinstance(body, Signed), "received message must be signed")
    _require(body.key == speaks.key, "signature key differs from speaks-for key")
    recv_time = received.time
    _require(recv_time.is_point, "received premise must be at a point time")
    if not speaks.time.covers(recv_time.lo):
        raise AxiomError(
            f"key binding {speaks.time} does not cover receive time {recv_time.lo}"
        )
    originator = _key_subject_matches(speaks)
    said_time = Temporal.point(recv_time.lo, received.subject)
    return (
        Said(originator, said_time, body.body),
        Said(originator, said_time, body),
    )


# -------------------------------------------------------------- receiving


def a11_decrypt(received: Received, has_key: Has) -> Received:
    """A11/A13: decrypt with a held private key."""
    _require(isinstance(received, Received), "first premise must be received")
    body = received.body
    _require(isinstance(body, Encrypted), "message must be encrypted")
    _require(isinstance(has_key, Has), "second premise must be key possession")
    _require(has_key.subject == received.subject, "key holder must be receiver")
    _require(has_key.key == body.key, "held key does not open this message")
    _require(
        has_key.time.covers(received.time.lo)
        or has_key.time == received.time,
        "key not held at receive time",
    )
    return Received(received.subject, received.time, body.body)


def a12_read_signed(received: Received) -> Received:
    """A12/A14: a signed message is readable without the verification key."""
    _require(isinstance(received, Received), "premise must be received")
    body = received.body
    _require(isinstance(body, Signed), "message must be signed")
    return Received(received.subject, received.time, body.body)


# ----------------------------------------------------------------- saying


def a15_said_projection(said: Said, index: int) -> Said:
    """A15: saying a tuple is saying each component."""
    _require(isinstance(said, Said), "premise must be said")
    body = said.body
    _require(isinstance(body, MessageTuple), "said message must be a tuple")
    _require(0 <= index < len(body.parts), "tuple index out of range")
    return Said(said.subject, said.time, body.parts[index])


def a16_says_projection(says: Says, index: int) -> Says:
    """A16: like A15 for says."""
    _require(isinstance(says, Says), "premise must be says")
    body = says.body
    _require(isinstance(body, MessageTuple), "says message must be a tuple")
    _require(0 <= index < len(body.parts), "tuple index out of range")
    return Says(says.subject, says.time, body.parts[index])


def a17_said_strip_signature(said: Said) -> Said:
    """A17: principals are responsible for signed content they send."""
    _require(isinstance(said, Said), "premise must be said")
    body = said.body
    _require(isinstance(body, Signed), "said message must be signed")
    return Said(said.subject, said.time, body.body)


def a18_says_strip_signature(says: Says) -> Says:
    """A18: like A17 for says."""
    _require(isinstance(says, Says), "premise must be says")
    body = says.body
    _require(isinstance(body, Signed), "says message must be signed")
    return Says(says.subject, says.time, body.body)


def a19_said_to_says(said: Said, t_says: int) -> Says:
    """A19: ``P said_t X`` implies ``P says_t' X`` for some t' >= ...

    The witness time must not precede the said time's lower bound; the
    conclusion carries a SOME-interval in the general case, but for the
    protocol's use a point witness is supplied explicitly.
    """
    _require(isinstance(said, Said), "premise must be said")
    _require(t_says <= said.time.hi, "says witness must precede said bound")
    return Says(said.subject, Temporal.point(t_says, said.time.clock), said.body)


def a20_says_to_said(says: Says) -> Said:
    """A20: says at t implies said at t."""
    _require(isinstance(says, Says), "premise must be says")
    return Said(says.subject, says.time, says.body)


# -------------------------------------------------------------- freshness


def a21_freshness(fresh: Fresh, composite: object) -> Fresh:
    """A21: ``fresh X`` implies ``fresh F(X, Y)`` for X-dependent F.

    ``composite`` must be a Signed/Encrypted/MessageTuple containing the
    fresh component.
    """
    _require(isinstance(fresh, Fresh), "premise must be a freshness formula")
    component = fresh.message

    def contains(msg: object) -> bool:
        if msg == component:
            return True
        if isinstance(msg, (Signed, Encrypted)):
            return contains(msg.body)
        if isinstance(msg, MessageTuple):
            return any(contains(p) for p in msg.parts)
        return False

    _require(
        isinstance(composite, (Signed, Encrypted, MessageTuple)),
        "composite must be a function image of the component",
    )
    _require(contains(composite), "composite does not depend on the component")
    return Fresh(composite, fresh.time)


# ------------------------------------------------------------ jurisdiction


def a22_jurisdiction(controls: Controls, says: Says) -> At:
    """A22/A23: ``P controls phi`` and ``P says phi`` give ``phi at_P t``.

    The group-membership axioms A24-A33 are (as the paper notes) direct
    instances of this schema with phi a membership formula.
    """
    _require(isinstance(controls, Controls), "first premise must be controls")
    _require(isinstance(says, Says), "second premise must be says")
    _require(controls.subject == says.subject, "controller must be speaker")
    _require(controls.body == says.body, "controlled formula differs from utterance")
    time = says.time
    ct = controls.time
    if time.is_point:
        _require(
            ct.covers(time.lo) or ct == time,
            "jurisdiction does not cover the utterance time",
        )
    else:
        _require(ct == time, "jurisdiction interval mismatch")
    return At(says.body, controls.subject, time)


# ------------------------------------------------------- speaking for groups


def a34_group_says(membership: SpeaksForGroup, says: Says) -> Says:
    """A34: ``Q => G`` and ``Q says X`` give ``G says X``."""
    _require(
        isinstance(membership, SpeaksForGroup), "first premise must be membership"
    )
    subject = membership.subject
    _require(
        isinstance(subject, Principal),
        "A34 applies to simple-principal membership (use A35-A38 otherwise)",
    )
    _require(isinstance(says, Says), "second premise must be says")
    _require(says.subject == subject, "speaker is not the group member")
    _require(says.time.is_point, "utterance must be at a point time")
    _require(
        membership.time.covers(says.time.lo),
        "membership does not cover the utterance time",
    )
    return Says(membership.group, says.time, says.body)


def a35_keybound_group_says(
    membership: SpeaksForGroup, speaks: KeySpeaksFor, says: Says
) -> Says:
    """A35: ``Q|K => G``, ``K => Q``, and ``Q says <X>_{K^-1}`` give
    ``G says X`` -- selective distribution demands a signature with the
    bound key."""
    _require(
        isinstance(membership, SpeaksForGroup), "first premise must be membership"
    )
    subject = membership.subject
    _require(
        isinstance(subject, KeyBoundPrincipal),
        "A35 applies to key-bound membership P|K",
    )
    _require(isinstance(speaks, KeySpeaksFor), "second premise must be K => Q")
    _require(speaks.key == subject.key, "evidence names a different key")
    _require(speaks.subject == subject.principal, "key bound to another principal")
    _require(isinstance(says, Says), "third premise must be says")
    _require(says.subject == subject.principal, "speaker is not the group member")
    body = says.body
    _require(isinstance(body, Signed), "utterance must be signed")
    _require(body.key == subject.key, "utterance signed with the wrong key")
    _require(says.time.is_point, "utterance must be at a point time")
    _require(
        membership.time.covers(says.time.lo),
        "membership does not cover the utterance time",
    )
    _require(
        speaks.time.covers(says.time.lo),
        "key binding does not cover the utterance time",
    )
    return Says(membership.group, says.time, body.body)


def a36_compound_group_says(membership: SpeaksForGroup, says: Says) -> Says:
    """A36: compound-principal membership: ``CP => G``, ``CP says X``."""
    _require(
        isinstance(membership, SpeaksForGroup), "first premise must be membership"
    )
    subject = membership.subject
    _require(
        isinstance(subject, CompoundPrincipal),
        "A36 applies to compound-principal membership",
    )
    _require(isinstance(says, Says), "second premise must be says")
    _require(says.subject == subject, "speaker is not the member compound")
    _require(says.time.is_point, "utterance must be at a point time")
    _require(
        membership.time.covers(says.time.lo),
        "membership does not cover the utterance time",
    )
    return Says(membership.group, says.time, says.body)


def a37_keybound_compound_group_says(
    membership: SpeaksForGroup, speaks: KeySpeaksFor, says: Says
) -> Says:
    """A37: ``CP|K => G``, ``K => CP``, and ``CP says <X>_{K^-1}`` give
    ``G says X`` — the shared-public-key group-membership variant
    (Section 2.2's alternate mechanism)."""
    from .terms import KeyBoundCompound

    _require(
        isinstance(membership, SpeaksForGroup), "first premise must be membership"
    )
    subject = membership.subject
    _require(
        isinstance(subject, KeyBoundCompound),
        "A37 applies to key-bound compound membership CP|K",
    )
    _require(isinstance(speaks, KeySpeaksFor), "second premise must be K => CP")
    _require(speaks.key == subject.key, "evidence names a different key")
    speaks_subject = speaks.subject
    if isinstance(speaks_subject, ThresholdPrincipal):
        speaks_subject = speaks_subject.base
    _require(
        speaks_subject == subject.compound,
        "key bound to a different compound principal",
    )
    _require(isinstance(says, Says), "third premise must be says")
    _require(says.subject == subject.compound, "speaker is not the compound")
    body = says.body
    _require(isinstance(body, Signed), "utterance must be signed")
    _require(body.key == subject.key, "utterance signed with the wrong key")
    _require(says.time.is_point, "utterance must be at a point time")
    _require(
        membership.time.covers(says.time.lo),
        "membership does not cover the utterance time",
    )
    _require(
        speaks.time.covers(says.time.lo),
        "key binding does not cover the utterance time",
    )
    return Says(membership.group, says.time, body.body)


def a38_threshold_group_says(
    membership: SpeaksForGroup, member_says: Sequence[Says]
) -> Says:
    """A38: threshold membership ``CP_{m,n} => G`` plus m members saying
    ``<X>_{K_i^-1}`` (each with its bound key) gives ``G says X``.

    This is the axiom that approves joint access requests: the write of
    Figure 2(b) supplies two of the three subjects' signed requests.
    """
    _require(
        isinstance(membership, SpeaksForGroup), "first premise must be membership"
    )
    subject = membership.subject
    _require(
        isinstance(subject, ThresholdPrincipal),
        "A38 applies to threshold membership CP_{m,n}",
    )
    if len(member_says) < subject.m:
        raise AxiomError(
            f"need {subject.m} member utterances, got {len(member_says)}"
        )
    bound_by_name = {}
    for member in subject.base.members:
        _require(
            isinstance(member, KeyBoundPrincipal),
            "threshold membership subjects must be key-bound (CP = {P_i|K_i})",
        )
        bound_by_name[member.principal] = member.key

    common_body: Optional[object] = None
    common_time: Optional[int] = None
    seen: List[Principal] = []
    for says in member_says:
        _require(isinstance(says, Says), "member premises must be says")
        speaker = says.subject
        if speaker not in bound_by_name:
            raise AxiomError(f"{speaker} is not a subject of the AC")
        if speaker in seen:
            raise AxiomError(f"duplicate utterance by {speaker}")
        seen.append(speaker)
        body = says.body
        _require(isinstance(body, Signed), "member utterances must be signed")
        if body.key != bound_by_name[speaker]:
            raise AxiomError(f"{speaker} signed with a key other than its bound key")
        _require(says.time.is_point, "utterances must be at point times")
        _require(
            membership.time.covers(says.time.lo),
            "membership does not cover an utterance time",
        )
        # Members sign "P_i says_t X"; the shared request is the inner X
        # (statements 11-13 of the paper's derivation chain).
        core = body.body
        if isinstance(core, Says) and core.subject == speaker:
            core = core.body
        if common_body is None:
            common_body = core
            common_time = says.time.lo
        else:
            _require(core == common_body, "members signed different requests")
            common_time = max(common_time, says.time.lo)
    return Says(membership.group, Temporal.point(common_time), common_body)
