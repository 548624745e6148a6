"""Index/oracle parity for the belief store.

The indexed :class:`BeliefStore` must be observationally identical to a
naive linear scan: same results, same ordering, same keep-first ``add``
semantics.  A seeded fuzzer drives randomized ``add``/``query``/
``first``/``negations_of`` sequences against both and asserts exact
equality, including insertion-order ``snapshot()``.
"""

import random

import pytest

from repro.core.formulas import (
    Controls,
    Has,
    KeySpeaksFor,
    Not,
    Says,
    SpeaksForGroup,
)
from repro.core.patterns import AnyTime, match
from repro.core.proofs import ProofStep
from repro.core.store import BeliefStore
from repro.core.temporal import Temporal
from repro.core.terms import (
    CompoundPrincipal,
    Group,
    KeyRef,
    Principal,
    Var,
)


class NaiveStore:
    """The pre-index reference implementation: scan everything, always."""

    def __init__(self):
        self._beliefs = {}

    def fork(self):
        clone = NaiveStore()
        clone._beliefs = dict(self._beliefs)
        return clone

    def add(self, proof):
        existing = self._beliefs.get(proof.conclusion)
        if existing is not None:
            return existing
        self._beliefs[proof.conclusion] = proof
        return proof

    def query(self, schema):
        results = []
        for formula, proof in self._beliefs.items():
            bindings = match(schema, formula)
            if bindings is not None:
                results.append((formula, bindings, proof))
        return results

    def first(self, schema):
        for formula, proof in self._beliefs.items():
            bindings = match(schema, formula)
            if bindings is not None:
                return formula, bindings, proof
        return None

    def negations_of(self, schema):
        results = []
        for formula, proof in self._beliefs.items():
            if not isinstance(formula, Not):
                continue
            if match(schema, formula.body) is not None:
                results.append((formula, proof))
        return results

    def snapshot(self):
        return list(self._beliefs)


class FormulaFuzzer:
    """Seeded generator of ground and schema-shaped formulas.

    Draws from small pools of principals/groups/keys so collisions (and
    therefore matches, duplicates, and shared buckets) are common.
    """

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def principal(self):
        return Principal(f"P{self.rng.randrange(4)}")

    def group(self, schema=False):
        if schema and self.rng.random() < 0.3:
            return Var("g")
        return Group(f"G{self.rng.randrange(3)}")

    def key(self, schema=False):
        if schema and self.rng.random() < 0.3:
            return Var("k")
        return KeyRef(f"k{self.rng.randrange(3)}")

    def subject(self, schema=False):
        if schema and self.rng.random() < 0.3:
            return Var("s")
        roll = self.rng.random()
        if roll < 0.5:
            return self.principal()
        if roll < 0.7:
            return self.principal().bound_to(self.key())
        members = [Principal(f"P{i}") for i in range(2 + self.rng.randrange(2))]
        compound = CompoundPrincipal.of(members)
        if roll < 0.85:
            return compound
        return compound.threshold(1 + self.rng.randrange(compound.size))

    def temporal(self, schema=False):
        if schema and self.rng.random() < 0.5:
            return AnyTime(self.rng.choice(["", "t"]))
        lo = self.rng.randrange(50)
        hi = lo + self.rng.randrange(50)
        kind = self.rng.choice(["point", "all", "some"])
        if kind == "point":
            return Temporal.point(lo)
        if kind == "all":
            return Temporal.all(lo, hi)
        return Temporal.some(lo, hi)

    def formula(self, schema=False):
        roll = self.rng.random()
        if roll < 0.3:
            inner = SpeaksForGroup(
                self.subject(schema), self.temporal(schema), self.group(schema)
            )
        elif roll < 0.55:
            inner = KeySpeaksFor(
                self.key(schema), self.temporal(schema), self.subject(schema)
            )
        elif roll < 0.7:
            inner = Controls(
                self.subject(schema),
                self.temporal(schema),
                SpeaksForGroup(Var("cp"), AnyTime("iv"), Var("g"))
                if self.rng.random() < 0.5
                else self.group(schema),
            )
        elif roll < 0.85:
            inner = Says(
                self.subject(schema), self.temporal(schema), self.group(schema)
            )
        else:
            inner = Has(
                self.subject(schema), self.temporal(schema), self.key(schema)
            )
        if self.rng.random() < 0.25:
            return Not(inner)
        return inner


@pytest.mark.parametrize("seed", range(8))
def test_randomized_parity(seed):
    fuzz = FormulaFuzzer(seed)
    rng = fuzz.rng
    indexed, naive = BeliefStore(), NaiveStore()
    added = []

    for step in range(400):
        op = rng.random()
        if op < 0.45 or not added:
            # Mostly ground beliefs, sometimes schema-shaped ones
            # (jurisdiction-style beliefs containing Vars), sometimes a
            # duplicate re-add with a different rule (keep-first check).
            if added and rng.random() < 0.2:
                formula = rng.choice(added)
                rule = "A22"
            else:
                formula = fuzz.formula(schema=rng.random() < 0.15)
                rule = "premise"
                added.append(formula)
            proof = ProofStep(conclusion=formula, rule=rule)
            kept_i = indexed.add(proof)
            kept_n = naive.add(proof)
            assert kept_i.rule == kept_n.rule
            assert kept_i.conclusion == kept_n.conclusion
        elif op < 0.7:
            schema = fuzz.formula(schema=True)
            assert indexed.query(schema) == naive.query(schema)
        elif op < 0.85:
            schema = fuzz.formula(schema=True)
            assert indexed.first(schema) == naive.first(schema)
        else:
            # negations_of takes the *inner* pattern, never a Not.
            schema = fuzz.formula(schema=True)
            while isinstance(schema, Not):
                schema = schema.body
            assert indexed.negations_of(schema) == naive.negations_of(schema)

    assert indexed.snapshot() == naive.snapshot()
    assert len(indexed) == len(naive.snapshot())


def _check_probe(fuzz, indexed, naive):
    rng = fuzz.rng
    schema = fuzz.formula(schema=True)
    op = rng.random()
    if op < 0.4:
        assert indexed.query(schema) == naive.query(schema)
    elif op < 0.7:
        assert indexed.first(schema) == naive.first(schema)
    else:
        while isinstance(schema, Not):
            schema = schema.body
        assert indexed.negations_of(schema) == naive.negations_of(schema)


@pytest.mark.parametrize("seed", range(8))
def test_randomized_parity_across_forks(seed):
    """Forks diverge exactly as independent copies of a naive store do.

    Every side of a growing family of forks gets its own adds (often
    to buckets it shares with its parent or child) and probes; each
    side stays in exact parity with a naive copy taken at fork time.
    """
    fuzz = FormulaFuzzer(100 + seed)
    rng = fuzz.rng
    sides = [(BeliefStore(), NaiveStore())]
    for _step in range(600):
        indexed, naive = rng.choice(sides)
        op = rng.random()
        if op < 0.08 and len(sides) < 12:
            sides.append((indexed.fork(), naive.fork()))
        elif op < 0.6:
            # Revocations and memberships share few keys, so the
            # (subject, group) buckets see repeated appends on both sides.
            proof = ProofStep(conclusion=fuzz.formula(schema=rng.random() < 0.1), rule="premise")
            kept_i, kept_n = indexed.add(proof), naive.add(proof)
            assert kept_i.conclusion == kept_n.conclusion
        else:
            _check_probe(fuzz, indexed, naive)
    for indexed, naive in sides:
        assert indexed.snapshot() == naive.snapshot()
        for _ in range(20):
            _check_probe(fuzz, indexed, naive)


def test_bare_var_schema_falls_back_to_full_scan():
    """A wildcard whose head is indeterminate still sees every belief."""
    indexed, naive = BeliefStore(), NaiveStore()
    for i in range(5):
        proof = ProofStep(
            SpeaksForGroup(Principal(f"P{i}"), Temporal.point(i), Group("G")),
            "premise",
        )
        indexed.add(proof)
        naive.add(proof)
    schema = Var("anything")
    assert indexed.query(schema) == naive.query(schema)
    assert indexed.first(schema) == naive.first(schema)
    assert indexed.stats()["full_scans"] > 0


def test_indexed_probes_avoid_unrelated_buckets():
    """A ground-keyed probe examines only same-bucket candidates."""
    store = BeliefStore()
    for i in range(200):
        store.add_premise(
            SpeaksForGroup(
                Principal(f"pad{i}"), Temporal.all(0, 10), Group(f"Gpad{i}")
            )
        )
    target = SpeaksForGroup(Principal("U"), Temporal.all(0, 10), Group("G"))
    store.add_premise(target)
    results = store.query(
        SpeaksForGroup(Var("s"), AnyTime(), Group("G"))
    )
    assert [f for f, _b, _p in results] == [target]
    stats = store.stats()
    assert stats["full_scans"] == 0
    # Only the G bucket was touched, not the 200 pad buckets.
    assert stats["candidates_examined"] == 1
