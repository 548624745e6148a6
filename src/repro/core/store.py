"""A principal's belief store.

Holds the principal's standing beliefs, each paired with the proof step
that produced it: the initial beliefs (statements 1-11 of Appendix E)
and each admitted certificate's or revocation's receipt and payload
conclusion; the chain steps between them live in the proof tree only.
The message receipts one request records live in a
:class:`RequestBeliefs`, which is dropped with the decision.  Supports
pattern queries (used to find jurisdiction schemas and key bindings),
negative-belief tracking for revocation ("believe until revoked",
Section 4.3) and a per-key memo of the key bindings and their
revocations (:meth:`BeliefStore.key_bindings`).

Queries are served from a **discrimination index** rather than a linear
scan: every belief is bucketed by its head constructor (``KeySpeaksFor``,
``Controls``, ``Not(SpeaksForGroup)``, ...) and a secondary key on the
formula's ground subject/key/group slot.  Revocations
(``Not(SpeaksForGroup)``) key on the ground ``(subject, group)`` pair, so
a believe-until-revoked check reads the one bucket of its membership
however many revocations came before.  Beliefs whose secondary slot
contains pattern variables (schema-shaped beliefs, e.g. the jurisdiction
statements of Appendix E) land in a per-head wildcard bucket that every
probe of that head also visits.  A query whose own head is indeterminate
(a bare ``Var`` schema) falls back to the full scan.

The index is a pure pre-filter: candidate beliefs still go through the
structural :func:`~repro.core.patterns.match`, so results are exactly
those of the naive scan, in insertion order (each entry carries its
insertion sequence number and merged candidate lists are sorted by it).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..obs.metrics import MetricsRegistry
from .formulas import (
    At,
    Believes,
    Controls,
    Formula,
    Has,
    KeySpeaksFor,
    Not,
    Received,
    Said,
    Says,
    SpeaksForGroup,
)
from .patterns import AnyTime, AnyTimeFrom, Bindings, match
from .proofs import ProofStep
from .terms import KeyRef, Var, is_ground

__all__ = ["BeliefStore", "RequestBeliefs"]


# The field holding each head constructor's natural discrimination key.
# Heads not listed here (And, Implies, TimeLe, Fresh, ...) are bucketed
# by head alone.
_SECONDARY_FIELD: Dict[type, str] = {
    Believes: "subject",
    Controls: "subject",
    Says: "subject",
    Said: "subject",
    Received: "subject",
    Has: "subject",
    KeySpeaksFor: "key",
    SpeaksForGroup: "group",
    At: "place",
}

# Secondary bucket for beliefs whose key slot contains pattern variables.
_WILDCARD = "*"

_REVOCATION_HEAD = ("Not", SpeaksForGroup)

# The heads whose adds can change what :meth:`BeliefStore.key_bindings`
# finds: key bindings and their revocations.
_KEY_BINDING_HEADS = (KeySpeaksFor, ("Not", KeySpeaksFor))

_Entry = Tuple[int, Formula, ProofStep]

# A believed binding, its proof, and the effective times of the
# revocations of that binding.
KeyBinding = Tuple[KeySpeaksFor, ProofStep, Tuple[int, ...]]


def _revoked_pair(membership: SpeaksForGroup) -> Optional[Tuple[object, object]]:
    """The ground ``(subject, group)`` of a revoked membership, else None."""
    pair = membership.subject, membership.group
    return pair if _is_ground_pair(*pair) else None


@lru_cache(maxsize=4096)
def _is_ground_pair(subject: object, group: object) -> bool:
    # Memoized: every request's revocation check asks this of its
    # membership's deep threshold subject, and groundness is the same
    # for equal terms.
    return is_ground(subject) and is_ground(group)


def _belief_key(formula: object) -> Tuple[object, object]:
    """(head, secondary) bucket key for a stored belief.

    ``Not`` nests: ``Not(S => G)`` lands under ``("Not", SpeaksForGroup)``
    keyed by its ground ``(S, G)`` pair, so a revocation lookup reads
    the revocations of one membership only.
    """
    cls = formula.__class__
    if cls is Not:
        body = formula.body
        if body.__class__ is SpeaksForGroup:
            return _REVOCATION_HEAD, _revoked_pair(body) or _WILDCARD
        inner_head, inner_sec = _belief_key(body)
        return ("Not", inner_head), inner_sec
    field = _SECONDARY_FIELD.get(cls)
    if field is None:
        return cls, None
    secondary = getattr(formula, field)
    if not is_ground(secondary):
        return cls, _WILDCARD
    return cls, secondary


def _schema_key(schema: object) -> Optional[Tuple[object, object]]:
    """(head, secondary-or-None-for-any) for a query schema.

    Returns None when the schema's head is indeterminate (a ``Var`` or a
    non-formula object), which forces a full scan.  A ``None`` secondary
    means "all secondary buckets of this head": a revocation schema
    with a variable subject or group visits every revocation bucket.
    """
    cls = schema.__class__
    if not isinstance(schema, Formula):
        return None
    if cls is Not:
        body = schema.body
        if body.__class__ is SpeaksForGroup:
            return _REVOCATION_HEAD, _revoked_pair(body)
        inner = _schema_key(body)
        if inner is None:
            return None
        inner_head, inner_sec = inner
        return ("Not", inner_head), inner_sec
    field = _SECONDARY_FIELD.get(cls)
    if field is None:
        return cls, None
    secondary = getattr(schema, field)
    if isinstance(secondary, (AnyTime, AnyTimeFrom)) or not is_ground(secondary):
        return cls, None
    return cls, secondary


class BeliefStore:
    """An insertion-ordered map from believed formula to its proof."""

    def __init__(self) -> None:
        self._beliefs: Dict[Formula, ProofStep] = {}
        # head -> secondary -> entries, each entry (seq, formula, proof).
        self._index: Dict[object, Dict[object, List[_Entry]]] = {}
        self._next_seq = 0
        # Keys of the buckets whose entry lists this store owns: made or
        # copied here since the last fork.  Any other bucket may be
        # shared with a fork and is copied before its first append.
        self._owned: Set[Tuple[object, object]] = set()
        # key -> what key_bindings(key) found; emptied by any add to a
        # key-binding head.  Values are tuples, so a fork copies the map.
        self._key_bindings: Dict[KeyRef, Tuple[KeyBinding, ...]] = {}
        # Observability counters, surfaced via DerivationEngine.stats()
        # and the unified registry (repro.obs.metrics).
        self.metrics = MetricsRegistry("store")
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        """Cache metric handles so hot paths skip the name lookup."""
        self._stat_probes = self.metrics.counter("index_probes")
        self._stat_full_scans = self.metrics.counter("full_scans")
        self._stat_candidates = self.metrics.counter("candidates_examined")
        self._gauge_beliefs = self.metrics.gauge("beliefs")
        self._gauge_buckets = self.metrics.gauge("index_buckets")

    def __len__(self) -> int:
        return len(self._beliefs)

    @property
    def index_probes(self) -> int:
        """Index lookups so far (the ``index_probes`` of :meth:`stats`)."""
        return self._stat_probes.value

    def __contains__(self, formula: Formula) -> bool:
        return formula in self._beliefs

    def __iter__(self) -> Iterator[Formula]:
        return iter(self._beliefs)

    def add(self, proof: ProofStep) -> ProofStep:
        """Record a proved formula; keeps the first proof of a formula."""
        formula = proof.conclusion
        existing = self._beliefs.get(formula)
        if existing is not None:
            return existing
        self._beliefs[formula] = proof
        key = head, secondary = _belief_key(formula)
        by_secondary = self._index.setdefault(head, {})
        if key in self._owned:
            bucket = by_secondary[secondary]
        else:
            # New here, or possibly shared with a fork: copy on write.
            bucket = by_secondary[secondary] = list(by_secondary.get(secondary, ()))
            self._owned.add(key)
        bucket.append((self._next_seq, formula, proof))
        self._next_seq += 1
        if head in _KEY_BINDING_HEADS:
            self._key_bindings.clear()
        return proof

    def add_premise(self, formula: Formula, note: str = "") -> ProofStep:
        """Record an initial belief (an axiom of this principal's state)."""
        return self.add(ProofStep(conclusion=formula, rule="premise", note=note))

    # ------------------------------------------------------ index probes

    def _candidates(self, schema: object) -> List[_Entry]:
        """Index-ordered candidate beliefs for ``schema`` (superset of matches)."""
        key = _schema_key(schema)
        if key is None:
            self._stat_full_scans.inc()
            return [
                (seq, formula, proof)
                for seq, (formula, proof) in enumerate(self._beliefs.items())
            ]
        self._stat_probes.inc()
        head, secondary = key
        by_secondary = self._index.get(head)
        if not by_secondary:
            return []
        if secondary is None:
            buckets = list(by_secondary.values())
        else:
            buckets = [
                by_secondary.get(secondary, []),
                by_secondary.get(_WILDCARD, []),
            ]
        if len(buckets) == 1:
            return buckets[0]
        merged = [entry for bucket in buckets for entry in bucket]
        merged.sort(key=lambda entry: entry[0])  # global insertion order
        return merged

    # ----------------------------------------------------------- queries

    def query(
        self, schema: object
    ) -> List[Tuple[Formula, Bindings, ProofStep]]:
        """All beliefs unifying with ``schema`` (with their bindings)."""
        results = []
        for _seq, formula, proof in self._candidates(schema):
            self._stat_candidates.inc()
            bindings = match(schema, formula)
            if bindings is not None:
                results.append((formula, bindings, proof))
        return results

    def first(
        self, schema: object
    ) -> Optional[Tuple[Formula, Bindings, ProofStep]]:
        """The first belief unifying with ``schema``, if any."""
        for _seq, formula, proof in self._candidates(schema):
            self._stat_candidates.inc()
            bindings = match(schema, formula)
            if bindings is not None:
                return formula, bindings, proof
        return None

    def negations_of(self, schema: object) -> List[Tuple[Formula, ProofStep]]:
        """Beliefs of the form ``not(phi)`` whose phi unifies with schema.

        Used for believe-until-revoked: a revocation certificate plants
        ``not(CP_{m,n} => G)`` in the verifier's store, and membership
        queries consult these before trusting a cached certificate.
        """
        results = []
        for _seq, formula, proof in self._candidates(Not(schema)):
            self._stat_candidates.inc()
            if not isinstance(formula, Not):
                continue
            if match(schema, formula.body) is not None:
                results.append((formula, proof))
        return results

    def key_bindings(self, key: KeyRef) -> Tuple[KeyBinding, ...]:
        """Every believed ``key => S``, in insertion order, with the
        effective times of the believed revocations ``not(key => S)``.

        Memoized per key: the set changes only when a binding or a
        revocation of one is added, and :meth:`add` then empties the
        memo.  What a binding covers and whether a revocation defeats
        it at a given time is left to the caller
        (:meth:`~repro.core.derivation.DerivationEngine.find_key_binding`),
        which asks it on every request.  A memo hit counts the bindings
        it hands back as candidates examined.
        """
        found = self._key_bindings.get(key)
        if found is not None:
            self._stat_candidates.inc(len(found))
            return found
        found = tuple(
            (
                binding,
                proof,
                tuple(
                    negation.body.time.lo
                    for negation, _proof in self.negations_of(
                        KeySpeaksFor(key, AnyTime("t"), binding.subject)
                    )
                ),
            )
            for binding, _bindings, proof in self.query(
                KeySpeaksFor(key, AnyTime("t"), Var("subject"))
            )
        )
        self._key_bindings[key] = found
        return found

    def snapshot(self) -> List[Formula]:
        """The current belief set (insertion order), for tests and audit."""
        return list(self._beliefs)

    # -------------------------------------------------------------- forks

    def fork(self) -> "BeliefStore":
        """A copy-on-write clone of this store.

        The clone observes exactly the beliefs present now and diverges
        independently afterwards: adds on either side never appear on
        the other.  The belief map and the per-head bucket maps are
        copied (pointer copies in C); the entry lists are *shared*, and
        each side copies a bucket before its first post-fork append.
        Ownership is tracked the other way round, as the buckets each
        side has made or copied since: the fork clears the parent's
        owned set and starts the clone's empty, so it does no Python
        work per bucket.  The store holds standing beliefs only (see
        :class:`RequestBeliefs`), so a fork's cost follows the
        certificate population, not the traffic served.

        This is the primitive behind epoch snapshots in
        :mod:`repro.service`: publishing a policy epoch forks the
        epoch's store, applies the revocation to the fork, and swaps it
        in atomically, leaving in-flight evaluations on the old epoch
        untouched.
        """
        clone = BeliefStore.__new__(BeliefStore)
        clone._beliefs = dict(self._beliefs)
        clone._index = {
            head: dict(by_secondary) for head, by_secondary in self._index.items()
        }
        clone._next_seq = self._next_seq
        clone._key_bindings = dict(self._key_bindings)
        clone.metrics = self.metrics.fork()
        clone._bind_metrics()
        clone._owned = set()
        self._owned.clear()
        return clone

    # ------------------------------------------------------------- stats

    def stats(self) -> Dict[str, int]:
        """Index observability counters (cumulative since construction).

        A thin view over the unified metrics registry; the dict shape
        predates the registry and is kept stable for existing callers.
        """
        return {
            "beliefs": len(self._beliefs),
            "index_buckets": sum(len(v) for v in self._index.values()),
            "index_probes": self.index_probes,
            "full_scans": self._stat_full_scans.value,
            "candidates_examined": self._stat_candidates.value,
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """Registry snapshot with size gauges refreshed."""
        self._gauge_beliefs.set(len(self._beliefs))
        self._gauge_buckets.set(sum(len(v) for v in self._index.values()))
        return self.metrics.snapshot()


class RequestBeliefs:
    """The message receipts one request records, dropped with its decision.

    Step 3 admits each signed request part against the standing
    :class:`BeliefStore` but records only the part's receipt here: the
    A10/A19 steps it derives go straight into the returned proofs
    (:meth:`~repro.core.derivation.DerivationEngine.admit_signed_utterance`),
    because the receipts are all that :meth:`premises` and audits read.

    A receipt keeps its first proof within the request, so two
    identical parts cite one receipt.  It is never a standing belief:
    the store's receipts are of certificates, whose signed bodies are
    formulas, while a request part signs a data constant.  So receipts
    are told apart by equality alone, without hashing the freshly built
    formula or looking it up in the store.
    """

    def __init__(self) -> None:
        self._receipts: List[ProofStep] = []

    def add_premise(self, formula: Formula, note: str = "") -> ProofStep:
        for proof in self._receipts:
            if proof.conclusion == formula:
                return proof
        proof = ProofStep(conclusion=formula, rule="premise", note=note)
        self._receipts.append(proof)
        return proof

    def premises(self) -> Tuple[Formula, ...]:
        """The premises this request recorded: its message receipts."""
        return tuple(proof.conclusion for proof in self._receipts)
