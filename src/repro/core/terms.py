"""Primitive terms of the logic: principals, compound principals, keys, groups.

Appendix A's term language (set Gamma) contains principals, public keys,
times, data constants and primitive propositions.  The paper's extensions
revolve around three kinds of subjects:

* simple principals ``P`` (users, domains, servers, authorities);
* **compound principals** ``CP = {P1, ..., Pn}`` that jointly own the
  distributed shares of one private key (F5/F7/F9);
* **threshold compound principals** ``CP_{m,n}`` where any ``m`` of the
  ``n`` members may act for the compound principal (F10/F15);

plus the *selective distribution* binding ``P|K`` — principal ``P``
cryptographically bound to public key ``K`` (F13/F16).

All terms are immutable and hashable so they can live in belief stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Tuple, Union

from .hashcons import cached_hash, interned, memoized_repr

__all__ = [
    "Principal",
    "KeyRef",
    "Group",
    "KeyBoundPrincipal",
    "CompoundPrincipal",
    "ThresholdPrincipal",
    "KeyBoundCompound",
    "Subject",
    "PrincipalLike",
    "Var",
    "is_ground",
    "intern_principal",
    "intern_group",
    "intern_key",
]


@cached_hash
@memoized_repr
@dataclass(frozen=True, order=True)
class Principal:
    """A simple system principal: user, domain, server, CA, AA or RA."""

    name: str

    def __str__(self) -> str:
        return self.name

    def bound_to(self, key: "KeyRef") -> "KeyBoundPrincipal":
        """The selective-distribution binding ``P|K`` of F13."""
        return KeyBoundPrincipal(principal=self, key=key)


@cached_hash
@memoized_repr
@dataclass(frozen=True, order=True)
class KeyRef:
    """A reference to a public key, identified by its fingerprint.

    The logic manipulates keys symbolically; the coalition layer maps
    fingerprints to actual RSA or shared-RSA public keys.  The label is
    cosmetic only — identity is the fingerprint.
    """

    key_id: str
    label: str = field(default="", compare=False)

    def __str__(self) -> str:
        return self.label or f"K<{self.key_id[:8]}>"


@cached_hash
@dataclass(frozen=True, order=True)
class Group:
    """A named group appearing on ACLs (e.g. G_write, G_read)."""

    name: str

    def __str__(self) -> str:
        return self.name


@cached_hash
@dataclass(frozen=True)
class KeyBoundPrincipal:
    """``P|K``: principal P bound to public key K in an identity cert."""

    principal: Principal
    key: KeyRef

    def __str__(self) -> str:
        return f"{self.principal}|{self.key}"


@cached_hash
@dataclass(frozen=True)
class CompoundPrincipal:
    """``CP = {P1, ..., Pn}``: joint owners of one shared key.

    Members may be plain principals or key-bound principals (the latter
    is how threshold attribute certificates pin each subject to the key
    it must sign access requests with).
    """

    members: Tuple[Union[Principal, KeyBoundPrincipal], ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a compound principal needs at least one member")
        names = [self._name_of(m) for m in self.members]
        if len(set(names)) != len(names):
            raise ValueError("compound principal members must be distinct")

    @staticmethod
    def _name_of(member: Union[Principal, KeyBoundPrincipal]) -> str:
        if isinstance(member, KeyBoundPrincipal):
            return member.principal.name
        return member.name

    @classmethod
    def of(
        cls, members: Iterable[Union[Principal, KeyBoundPrincipal]]
    ) -> "CompoundPrincipal":
        """Build from any iterable, sorting members for canonical identity."""
        ordered = tuple(sorted(members, key=cls._name_of))
        return cls(members=ordered)

    @property
    def size(self) -> int:
        return len(self.members)

    def principals(self) -> Tuple[Principal, ...]:
        """The underlying plain principals, stripped of key bindings."""
        return tuple(
            m.principal if isinstance(m, KeyBoundPrincipal) else m
            for m in self.members
        )

    def threshold(self, m: int) -> "ThresholdPrincipal":
        """The threshold construct ``CP_{m,n}`` over this member set."""
        return ThresholdPrincipal(base=self, m=m)

    def __contains__(self, principal: Principal) -> bool:
        return principal in self.principals()

    def __str__(self) -> str:
        inner = ", ".join(str(m) for m in self.members)
        return "{" + inner + "}"


@cached_hash
@dataclass(frozen=True)
class ThresholdPrincipal:
    """``CP_{m,n}``: any m of the n members speak for the compound principal."""

    base: CompoundPrincipal
    m: int

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.base.size:
            raise ValueError(
                f"threshold m={self.m} out of range for n={self.base.size}"
            )

    @property
    def n(self) -> int:
        return self.base.size

    def __str__(self) -> str:
        return f"{self.base}_{{{self.m},{self.n}}}"


@cached_hash
@dataclass(frozen=True)
class KeyBoundCompound:
    """``CP|K``: a compound principal bound to a single shared key (F16).

    The §2.2 "alternate mechanism": an attribute certificate issued to a
    group of users that themselves own a shared public key.  Access
    requests must be jointly signed with ``K``'s distributed private
    shares (axiom A37).
    """

    compound: CompoundPrincipal
    key: KeyRef

    def __str__(self) -> str:
        return f"{self.compound}|{self.key}"


@cached_hash
@dataclass(frozen=True)
class Var:
    """A pattern variable for axiom schemas and jurisdiction formulas.

    Initial beliefs such as "AA controls (for all G', CP') CP' => G'"
    are stored with Var placeholders; the derivation engine unifies them
    against concrete formulas (see :mod:`repro.core.patterns`).
    """

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


# A subject of a group-membership or key-speaks-for formula.
Subject = Union[
    Principal,
    KeyBoundPrincipal,
    CompoundPrincipal,
    ThresholdPrincipal,
    KeyBoundCompound,
    Var,
]
# Anything that can hold beliefs / say things.
PrincipalLike = Union[Principal, CompoundPrincipal]


def is_ground(term: object) -> bool:
    """True when a term tree contains no pattern variables."""
    if isinstance(term, Var):
        return False
    if isinstance(term, ThresholdPrincipal):
        return is_ground(term.base)
    if isinstance(term, CompoundPrincipal):
        return all(is_ground(m) for m in term.members)
    if isinstance(term, KeyBoundPrincipal):
        return is_ground(term.principal) and is_ground(term.key)
    if isinstance(term, KeyBoundCompound):
        return is_ground(term.compound) and is_ground(term.key)
    return True


# Interning constructors for the leaves hot paths rebuild per request
# (certificate idealization, request idealization).  Interned leaves make
# deep-tree equality checks short-circuit on identity.
intern_principal = interned(Principal)
intern_group = interned(Group)
intern_key = interned(KeyRef)
