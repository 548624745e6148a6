"""Temporal annotations of the logic.

Appendix A uses three flavours of time subscript on every modality:

* a point ``t``;
* a closed interval ``[t1, t2]`` — the formula holds at *every* time in
  the interval (certificate validity periods);
* an angle interval ``<t1, t2>`` — the formula holds at *some* time in
  the interval (the reduction axiom produces these).

Any annotation may additionally name the principal **on whose clock** the
time is measured (``t, P``).  Times are integers (ticks of a simulated
clock); different principals' clocks may disagree, which the sim layer
models with per-principal skews.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

from .hashcons import cached_hash, plain_repr

__all__ = [
    "TemporalKind",
    "Temporal",
    "at",
    "during",
    "sometime",
    "Time",
    "FOREVER",
]

Time = int

# Sentinel upper bound for open-ended validity ("for all t >= t*").
# Revocation certificates in the paper likewise carry an upper bound of
# infinity (footnote 2).
FOREVER: Time = 10**12


class TemporalKind(str, Enum):
    """Which flavour of temporal subscript."""

    POINT = "point"  # t
    ALL = "all"  # [t1, t2]
    SOME = "some"  # <t1, t2>


@cached_hash
@plain_repr
@dataclass(frozen=True)
class Temporal:
    """A temporal subscript: kind, bounds, and an optional clock owner.

    For POINT annotations ``lo == hi``.
    """

    kind: TemporalKind
    lo: Time
    hi: Time
    clock: Optional[object] = None  # a Principal/CompoundPrincipal or None

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        if self.kind is TemporalKind.POINT and self.lo != self.hi:
            raise ValueError("point annotations need lo == hi")

    # -- constructors -------------------------------------------------
    @staticmethod
    def point(t: Time, clock: Optional[object] = None) -> "Temporal":
        """The one shared point annotation for ``(t, clock)``."""
        return _interned_point(t, clock)

    @staticmethod
    def all(lo: Time, hi: Time, clock: Optional[object] = None) -> "Temporal":
        return Temporal(TemporalKind.ALL, lo, hi, clock)

    @staticmethod
    def some(lo: Time, hi: Time, clock: Optional[object] = None) -> "Temporal":
        return Temporal(TemporalKind.SOME, lo, hi, clock)

    # -- queries ------------------------------------------------------
    @property
    def is_point(self) -> bool:
        return self.kind is TemporalKind.POINT

    def covers(self, t: Time) -> bool:
        """True when a formula with this annotation is claimed at time t.

        POINT covers only its own instant; ALL covers the whole interval.
        SOME makes no per-instant claim, so it covers nothing.
        """
        if self.kind is TemporalKind.SOME:
            return False
        return self.lo <= t <= self.hi

    def covers_interval(self, lo: Time, hi: Time) -> bool:
        """True when every instant of [lo, hi] is covered."""
        if self.kind is TemporalKind.SOME:
            return False
        return self.lo <= lo and hi <= self.hi

    def on_clock(self, clock: object) -> "Temporal":
        """The same annotation measured on another principal's clock."""
        return Temporal(self.kind, self.lo, self.hi, clock)

    def without_clock(self) -> "Temporal":
        return Temporal(self.kind, self.lo, self.hi, None)

    def __str__(self) -> str:
        clock = f",{self.clock}" if self.clock is not None else ""
        if self.kind is TemporalKind.POINT:
            return f"{self.lo}{clock}"
        if self.kind is TemporalKind.ALL:
            return f"[{self.lo},{self.hi}]{clock}"
        return f"<{self.lo},{self.hi}>{clock}"


# Requests rebuild the same one or two instants many times, so a few
# hundred recent points suffice (each holds about 400 bytes).  The cache
# keys on exact types: ``point(True)`` never gets ``point(1)``'s node.
@lru_cache(maxsize=256, typed=True)
def _interned_point(t: Time, clock: Optional[object]) -> Temporal:
    return Temporal(TemporalKind.POINT, t, t, clock)


def at(t: Time, clock: Optional[object] = None) -> Temporal:
    """Shorthand for a point annotation."""
    return Temporal.point(t, clock)


def during(lo: Time, hi: Time, clock: Optional[object] = None) -> Temporal:
    """Shorthand for a closed ``[lo, hi]`` annotation."""
    return Temporal.all(lo, hi, clock)


def sometime(lo: Time, hi: Time, clock: Optional[object] = None) -> Temporal:
    """Shorthand for an existential ``<lo, hi>`` annotation."""
    return Temporal.some(lo, hi, clock)
