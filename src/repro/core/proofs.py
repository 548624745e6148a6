"""Proof objects: every derived belief carries a machine-checkable trace.

A :class:`ProofStep` records the concluded formula, the axiom (by its
paper name, e.g. "A10", "A22", "A38"), and the premise steps.  The
authorization protocol returns the full tree with each access decision,
so a decision can be audited exactly against the derivation printed in
Appendix E.

:meth:`ProofStep.digest` is a Merkle digest over the proof DAG: a step
hashes its rule, its rendered conclusion and its premises' digests.
Steps are immutable and shared (a cached certificate admission is a
premise of every request it serves), so each digest is computed once
per step object and read back after.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from .hashcons import memoized

__all__ = ["ProofStep", "render_proof"]


@dataclass(frozen=True)
class ProofStep:
    """One node of a derivation tree."""

    conclusion: object  # a Formula
    rule: str  # axiom or rule name: "premise", "A10", "A22", ...
    premises: Tuple["ProofStep", ...] = ()
    note: str = ""
    # Node count of the tree, fixed by the premises and recorded at
    # construction: every decision reports it (``derivation_steps``).
    _size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_size", 1 + sum(p._size for p in self.premises)
        )

    def axioms_used(self) -> List[str]:
        """All axiom names appearing in the tree, outermost first."""
        seen: List[str] = []
        for step in self.walk():
            if step.rule not in seen:
                seen.append(step.rule)
        return seen

    def axiom_counts(self) -> Dict[str, int]:
        """Rule name -> number of applications in this tree.

        Feeds decision traces (:mod:`repro.obs.trace`): the derivation
        span records which axioms fired and how often, so an ``explain``
        of a grant shows the Appendix E chain without shipping the
        whole proof tree.
        """
        counts: Dict[str, int] = {}
        for step in self.walk():
            counts[step.rule] = counts.get(step.rule, 0) + 1
        return counts

    def walk(self) -> Iterator["ProofStep"]:
        """Pre-order traversal of the proof tree.

        Iterative on an explicit stack: ``yield from`` recursion costs
        O(depth) generator frames per yielded node, which dominated the
        request hot path (``axiom_counts`` on every traced decision) for
        the paper's ~10-deep proofs.
        """
        stack = [self]
        while stack:
            step = stack.pop()
            yield step
            stack.extend(reversed(step.premises))

    def depth(self) -> int:
        if not self.premises:
            return 1
        return 1 + max(p.depth() for p in self.premises)

    def size(self) -> int:
        """Number of nodes :meth:`walk` yields (shared premises count each time)."""
        return self._size

    @memoized
    def digest(self) -> bytes:
        """SHA-256 over the rule, ``str(conclusion)`` and premise digests.

        Key-independent (terms render keys by label) and a function of
        the fields alone, so the memo may travel inside pickles.  The
        note is commentary and does not enter the digest.
        """
        rule = self.rule.encode()
        conclusion = str(self.conclusion).encode()
        h = hashlib.sha256(b"%d:%s%d:%s" % (len(rule), rule, len(conclusion), conclusion))
        for premise in self.premises:
            h.update(premise.digest())
        return h.digest()


def render_proof(step: ProofStep, indent: int = 0) -> str:
    """Human-readable rendering of a proof tree."""
    pad = "  " * indent
    note = f"  -- {step.note}" if step.note else ""
    lines = [f"{pad}[{step.rule}] {step.conclusion}{note}"]
    for premise in step.premises:
        lines.append(render_proof(premise, indent + 1))
    return "\n".join(lines)
