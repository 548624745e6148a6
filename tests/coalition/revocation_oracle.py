"""The revocation rule of Section 4.2, written from the paper alone.

Believe-until-revoked: a verifier keeps believing a membership
certificate until it learns of a revocation that defeats it.  A
membership certificate names its subjects, its threshold m, its group
and the time it was stated (its issue timestamp).  A revocation of the
same (subjects, m, group) with effective time ``r`` defeats it at check
time ``t`` iff

    r <= t   and   stated_at < r

so a certificate (re-)issued at or after the revocation's effective
time supersedes it.

This module reads certificate fields only.  It uses nothing of
``repro.core``: no formulas, no store, no derivation.  It is the
independent side of a differential test against the engine's
"membership revoked" deny.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple

__all__ = ["Membership", "RevocationOracle", "membership_of", "is_threshold_certificate"]


@dataclass(frozen=True)
class Membership:
    """What a membership certificate asserts, as the paper states it."""

    subjects: FrozenSet[Tuple[str, str]]  # (user name, key id) pairs
    m: int
    group: str


def is_threshold_certificate(cert: object) -> bool:
    return all(hasattr(cert, f) for f in ("subjects", "threshold", "group"))


def membership_of(cert) -> Membership:
    """The (subjects, m, group) a threshold attribute certificate asserts."""
    return Membership(frozenset(map(tuple, cert.subjects)), cert.threshold, cert.group)


class RevocationOracle:
    """Published revocations, and the §4.2 defeat rule over them."""

    def __init__(self, revocations: Iterable[Tuple[Membership, int]] = ()):
        # (membership revoked, effective time r), in publication order.
        self.revocations = list(revocations)

    def copy(self) -> "RevocationOracle":
        return RevocationOracle(self.revocations)

    def publish(self, revocation) -> None:
        """Record a published revocation certificate of a membership."""
        if is_threshold_certificate(revocation.revoked):
            self.revocations.append(
                (membership_of(revocation.revoked), revocation.effective_time)
            )

    def defeated(self, cert, t: int) -> bool:
        """Whether a published revocation defeats ``cert`` at time ``t``."""
        claim = membership_of(cert)
        stated_at = cert.timestamp
        return any(
            revoked == claim and r <= t and stated_at < r
            for revoked, r in self.revocations
        )
