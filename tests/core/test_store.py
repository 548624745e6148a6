"""Tests for the belief store."""

from repro.core.formulas import KeySpeaksFor, Not, SpeaksForGroup
from repro.core.patterns import AnyTime
from repro.core.proofs import ProofStep
from repro.core.store import BeliefStore, RequestBeliefs
from repro.core.temporal import at, during
from repro.core.terms import Group, KeyRef, Principal, Var

P = Principal("P")
G = Group("G")
K = KeyRef("k")


def _membership(t=during(0, 10)):
    return SpeaksForGroup(P, t, G)


class TestAddAndLookup:
    def test_add_premise(self):
        store = BeliefStore()
        proof = store.add_premise(_membership(), note="initial")
        assert proof.rule == "premise"
        assert _membership() in store
        assert len(store) == 1

    def test_first_proof_kept(self):
        store = BeliefStore()
        first = store.add_premise(_membership())
        second = store.add(ProofStep(_membership(), "A22"))
        assert second is first
        assert first.rule == "premise"

    def test_iteration_order(self):
        store = BeliefStore()
        store.add_premise(_membership(at(1)))
        store.add_premise(_membership(at(2)))
        assert store.snapshot() == [_membership(at(1)), _membership(at(2))]


class TestQueries:
    def test_query_with_bindings(self):
        store = BeliefStore()
        store.add_premise(_membership())
        results = store.query(SpeaksForGroup(Var("s"), AnyTime(), Var("g")))
        assert len(results) == 1
        formula, bindings, proof = results[0]
        assert bindings["s"] == P
        assert bindings["g"] == G

    def test_query_no_match(self):
        store = BeliefStore()
        store.add_premise(_membership())
        assert store.query(KeySpeaksFor(K, AnyTime(), Var("p"))) == []

    def test_first(self):
        store = BeliefStore()
        store.add_premise(_membership(at(1)))
        store.add_premise(_membership(at(2)))
        found = store.first(SpeaksForGroup(P, AnyTime(), G))
        assert found is not None
        assert found[0] == _membership(at(1))

    def test_first_missing(self):
        assert BeliefStore().first(Var("anything")) is None


class TestNegations:
    def test_negations_found(self):
        store = BeliefStore()
        store.add_premise(Not(_membership(during(5, 10))))
        hits = store.negations_of(SpeaksForGroup(P, AnyTime(), G))
        assert len(hits) == 1
        negation, _proof = hits[0]
        assert isinstance(negation, Not)

    def test_positive_beliefs_not_matched(self):
        store = BeliefStore()
        store.add_premise(_membership())
        assert store.negations_of(SpeaksForGroup(P, AnyTime(), G)) == []

    def test_unrelated_negations_skipped(self):
        store = BeliefStore()
        other = SpeaksForGroup(Principal("Q"), during(0, 5), G)
        store.add_premise(Not(other))
        assert store.negations_of(SpeaksForGroup(P, AnyTime(), G)) == []


class TestRequestBeliefs:
    def test_identical_receipt_keeps_its_first_proof(self):
        beliefs = RequestBeliefs()
        first = beliefs.add_premise(_membership(), note="first")
        again = beliefs.add_premise(_membership(), note="again")
        other = beliefs.add_premise(_membership(during(0, 11)))
        assert again is first and other is not first
        assert beliefs.premises() == (_membership(), _membership(during(0, 11)))
