"""The formula language of the logic (F1-F22 of Appendix A).

Every formula is an immutable AST node.  The temporal subscript of each
modality is a :class:`repro.core.temporal.Temporal`; the subject of a
modality may be a simple or compound principal (the paper's F4-F7 pairs
of rules collapse here because both satisfy the same interface).

Formula nodes double as messages (M1), so certificates -- which are
*signed formulas* -- compose naturally: an idealized identity certificate
is ``Signed(Says(CA, t_CA, KeySpeaksFor(K_P, [tb,te], P)), K_CA)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .hashcons import cached_hash, plain_repr
from .messages import Message
from .temporal import Temporal
from .terms import Group, KeyRef, Subject, Var

__all__ = [
    "Formula",
    "Believes",
    "Controls",
    "Says",
    "Said",
    "Received",
    "Has",
    "KeySpeaksFor",
    "SpeaksForGroup",
    "Fresh",
    "At",
    "Not",
    "And",
    "Implies",
    "TimeLe",
    "TRUE",
]


class Formula:
    """Abstract base for all formula nodes (gives a shared isinstance)."""

    __slots__ = ()


@cached_hash
@dataclass(frozen=True)
class Believes(Formula):
    """``P believes_t phi`` (F4/F5)."""

    subject: object  # Principal | CompoundPrincipal | Var
    time: Temporal
    body: "FormulaOrMessage"

    def __str__(self) -> str:
        return f"{self.subject} believes_{self.time} ({self.body})"


@cached_hash
@dataclass(frozen=True)
class Controls(Formula):
    """``P controls_t phi`` (F4/F5): jurisdiction over a formula."""

    subject: object
    time: Temporal
    body: "FormulaOrMessage"

    def __str__(self) -> str:
        return f"{self.subject} controls_{self.time} ({self.body})"


@cached_hash
@plain_repr
@dataclass(frozen=True)
class Says(Formula):
    """``P says_t X`` (F6/F7): an utterance at its origination time."""

    subject: object
    time: Temporal
    body: Message

    def __str__(self) -> str:
        return f"{self.subject} says_{self.time} ({self.body})"


@cached_hash
@dataclass(frozen=True)
class Said(Formula):
    """``P said_t X`` (F6/F7): said at or before t."""

    subject: object
    time: Temporal
    body: Message

    def __str__(self) -> str:
        return f"{self.subject} said_{self.time} ({self.body})"


@cached_hash
@plain_repr
@dataclass(frozen=True)
class Received(Formula):
    """``P received_t X`` (F6/F7)."""

    subject: object
    time: Temporal
    body: Message

    def __str__(self) -> str:
        return f"{self.subject} received_{self.time} ({self.body})"


@cached_hash
@dataclass(frozen=True)
class Has(Formula):
    """``P has_t K`` (F11): possession of a key."""

    subject: object
    time: Temporal
    key: KeyRef

    def __str__(self) -> str:
        return f"{self.subject} has_{self.time} {self.key}"


@cached_hash
@dataclass(frozen=True)
class KeySpeaksFor(Formula):
    """``K =>_t S`` (F8/F9/F10): public key K speaks for subject S.

    ``S`` ranges over simple principals, compound principals, and
    threshold compound principals ``CP_{m,n}`` (where m of the n share
    holders may sign on the compound principal's behalf).
    """

    key: Union[KeyRef, Var]
    time: Temporal
    subject: Subject

    def __str__(self) -> str:
        return f"{self.key} =>_{self.time} {self.subject}"


@cached_hash
@dataclass(frozen=True)
class SpeaksForGroup(Formula):
    """``S =>_t G`` (F12-F16): subject S is a member of / speaks for G.

    The subject encodes which variant of the paper's F12-F16 applies:
    ``Principal`` (F12), ``KeyBoundPrincipal`` P|K (F13),
    ``CompoundPrincipal`` (F14), ``ThresholdPrincipal`` CP_{m,n} (F15),
    and a key-bound compound CP|K is a CompoundPrincipal wrapped in
    KeyBoundGroupSubject below (F16).
    """

    subject: Subject
    time: Temporal
    group: Union[Group, Var]

    def __str__(self) -> str:
        return f"{self.subject} =>_{self.time} {self.group}"


@cached_hash
@dataclass(frozen=True)
class Fresh(Formula):
    """``fresh_{t,P} X`` (F17/F18): X not said before, as judged by P."""

    message: Message
    time: Temporal

    def __str__(self) -> str:
        return f"fresh_{self.time} ({self.message})"


@cached_hash
@dataclass(frozen=True)
class At(Formula):
    """``phi at_P t`` (F19/F20): phi held at P at local time t."""

    body: "FormulaOrMessage"
    place: object  # Principal | CompoundPrincipal
    time: Temporal

    def __str__(self) -> str:
        return f"({self.body}) at_{self.place} {self.time}"


@cached_hash
@dataclass(frozen=True)
class Not(Formula):
    """Negation; revocation certificates carry negated membership."""

    body: "FormulaOrMessage"

    def __str__(self) -> str:
        return f"not({self.body})"


@cached_hash
@dataclass(frozen=True)
class And(Formula):
    left: "FormulaOrMessage"
    right: "FormulaOrMessage"

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@cached_hash
@dataclass(frozen=True)
class Implies(Formula):
    antecedent: "FormulaOrMessage"
    consequent: "FormulaOrMessage"

    def __str__(self) -> str:
        return f"({self.antecedent} -> {self.consequent})"


@cached_hash
@dataclass(frozen=True)
class TimeLe(Formula):
    """``t1 <= t2`` (F3)."""

    left: int
    right: int

    def __str__(self) -> str:
        return f"{self.left} <= {self.right}"


@cached_hash
@dataclass(frozen=True)
class _Truth(Formula):
    def __str__(self) -> str:
        return "true"


TRUE = _Truth()

FormulaOrMessage = Union[Formula, Message]
