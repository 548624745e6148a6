"""Tests for the axiom functions A1-A38."""

import pytest

from repro.core import axioms
from repro.core.axioms import AxiomError
from repro.core.formulas import (
    At,
    Believes,
    Controls,
    Fresh,
    Has,
    Implies,
    KeySpeaksFor,
    Received,
    Said,
    Says,
    SpeaksForGroup,
)
from repro.core.messages import Data, Encrypted, MessageTuple, Signed
from repro.core.temporal import at, during
from repro.core.terms import (
    CompoundPrincipal,
    Group,
    KeyRef,
    Principal,
)

P = Principal("P")
Q = Principal("Q")
G = Group("G")
K = KeyRef("k", "K")
K2 = KeyRef("k2", "K2")
X = Data("x")


class TestBeliefAxioms:
    def test_a1_closure(self):
        b1 = Believes(P, at(1), X)
        b2 = Believes(P, at(1), Implies(X, Data("y")))
        result = axioms.a1_belief_closure(b1, b2)
        assert result == Believes(P, at(1), Data("y"))

    def test_a1_antecedent_mismatch(self):
        b1 = Believes(P, at(1), X)
        b2 = Believes(P, at(1), Implies(Data("z"), Data("y")))
        with pytest.raises(AxiomError):
            axioms.a1_belief_closure(b1, b2)

    def test_a1_subject_mismatch(self):
        b1 = Believes(P, at(1), X)
        b2 = Believes(Q, at(1), Implies(X, Data("y")))
        with pytest.raises(AxiomError):
            axioms.a1_belief_closure(b1, b2)

    def test_a1_non_implication(self):
        b1 = Believes(P, at(1), X)
        b2 = Believes(P, at(1), Data("y"))
        with pytest.raises(AxiomError):
            axioms.a1_belief_closure(b1, b2)

    def test_a2_introspection(self):
        b = Believes(P, at(1), X)
        assert axioms.a2_belief_introspection(b) == Believes(P, at(1), b)

    def test_a3_located_belief(self):
        b = Believes(P, at(1), X)
        result = axioms.a3_belief_at(b)
        assert result == Believes(P, at(1), At(X, P, at(1)))

    def test_a4_compound_closure(self):
        cp = CompoundPrincipal.of([P, Q])
        b1 = Believes(cp, at(1), X)
        b2 = Believes(cp, at(1), Implies(X, Data("y")))
        assert axioms.a1_belief_closure(b1, b2).subject == cp


class TestIntervalAndMonotonicity:
    def test_a7_instantiation(self):
        formula = Says(P, during(1, 5), X)
        result = axioms.a7_interval_instantiation(formula, 3)
        assert result == Says(P, at(3), X)

    def test_a7_out_of_range(self):
        with pytest.raises(AxiomError):
            axioms.a7_interval_instantiation(Says(P, during(1, 5), X), 9)

    def test_a7_out_of_range_message(self):
        with pytest.raises(AxiomError) as raised:
            axioms.a7_interval_instantiation(Says(P, during(1, 5), X), 9)
        assert str(raised.value) == "t=9 outside [1, 5]"

    def test_a7_requires_all_interval(self):
        with pytest.raises(AxiomError):
            axioms.a7_interval_instantiation(Says(P, at(3), X), 3)

    def test_a8_received(self):
        premise = Received(P, at(2), X)
        assert axioms.a8_monotonicity_received(premise, 5) == Received(P, at(5), X)

    def test_a8_received_backwards_rejected(self):
        with pytest.raises(AxiomError):
            axioms.a8_monotonicity_received(Received(P, at(5), X), 2)

    def test_a8_said(self):
        assert axioms.a8_monotonicity_said(Said(P, at(2), X), 7).time == at(7)

    def test_a8_has(self):
        assert axioms.a8_monotonicity_has(Has(P, at(2), K), 4).time == at(4)

    def test_a8_fresh_backwards(self):
        premise = Fresh(X, at(9))
        assert axioms.a8_monotonicity_fresh(premise, 3) == Fresh(X, at(3))

    def test_a8_fresh_forwards_rejected(self):
        with pytest.raises(AxiomError):
            axioms.a8_monotonicity_fresh(Fresh(X, at(3)), 9)


class TestReduction:
    def test_a9_reduces(self):
        phi = Says(Q, at(1), X)
        nested = At(At(phi, P, at(2)), P, at(5))
        assert axioms.a9_reduction(nested) == At(phi, P, at(5))

    def test_a9_place_mismatch(self):
        phi = Says(Q, at(1), X)
        nested = At(At(phi, P, at(2)), Q, at(5))
        with pytest.raises(AxiomError):
            axioms.a9_reduction(nested)

    def test_a9_time_order(self):
        phi = Says(Q, at(1), X)
        nested = At(At(phi, P, at(5)), P, at(2))
        with pytest.raises(AxiomError):
            axioms.a9_reduction(nested)

    def test_a9_restricted_bodies(self):
        nested = At(At(X, P, at(1)), P, at(2))  # Data body not reducible
        with pytest.raises(AxiomError):
            axioms.a9_reduction(nested)


class TestOriginatorIdentification:
    def test_a10_simple_principal(self):
        speaks = KeySpeaksFor(K, during(0, 10), Q)
        received = Received(P, at(5), Signed(X, K))
        said_body, said_signed = axioms.a10_originator_identification(
            speaks, received
        )
        assert said_body.subject == Q
        assert said_body.body == X
        assert said_signed.body == Signed(X, K)
        assert said_body.time.clock == P

    def test_a10_compound(self):
        cp = CompoundPrincipal.of([Principal("D1"), Principal("D2")])
        speaks = KeySpeaksFor(K, during(0, 10), cp)
        received = Received(P, at(5), Signed(X, K))
        said_body, _ = axioms.a10_originator_identification(speaks, received)
        assert said_body.subject == cp

    def test_a10_threshold_identifies_compound(self):
        cp = CompoundPrincipal.of([Principal("D1"), Principal("D2")])
        speaks = KeySpeaksFor(K, during(0, 10), cp.threshold(2))
        received = Received(P, at(5), Signed(X, K))
        said_body, _ = axioms.a10_originator_identification(speaks, received)
        assert said_body.subject == cp

    def test_a10_key_mismatch(self):
        speaks = KeySpeaksFor(K, during(0, 10), Q)
        received = Received(P, at(5), Signed(X, K2))
        with pytest.raises(AxiomError):
            axioms.a10_originator_identification(speaks, received)

    def test_a10_binding_expired(self):
        speaks = KeySpeaksFor(K, during(0, 3), Q)
        received = Received(P, at(5), Signed(X, K))
        with pytest.raises(AxiomError):
            axioms.a10_originator_identification(speaks, received)

    def test_a10_binding_expired_message(self):
        speaks = KeySpeaksFor(K, during(0, 3), Q)
        received = Received(P, at(5), Signed(X, K))
        with pytest.raises(AxiomError) as raised:
            axioms.a10_originator_identification(speaks, received)
        assert str(raised.value) == (
            "key binding [0,3] does not cover receive time 5"
        )

    def test_a10_unsigned_message(self):
        speaks = KeySpeaksFor(K, during(0, 10), Q)
        received = Received(P, at(5), X)
        with pytest.raises(AxiomError):
            axioms.a10_originator_identification(speaks, received)


class TestReceiving:
    def test_a11_decrypt(self):
        received = Received(P, at(3), Encrypted(X, K))
        has = Has(P, during(0, 10), K)
        assert axioms.a11_decrypt(received, has) == Received(P, at(3), X)

    def test_a11_wrong_holder(self):
        received = Received(P, at(3), Encrypted(X, K))
        has = Has(Q, during(0, 10), K)
        with pytest.raises(AxiomError):
            axioms.a11_decrypt(received, has)

    def test_a11_wrong_key(self):
        received = Received(P, at(3), Encrypted(X, K))
        has = Has(P, during(0, 10), K2)
        with pytest.raises(AxiomError):
            axioms.a11_decrypt(received, has)

    def test_a12_read_signed(self):
        received = Received(P, at(3), Signed(X, K))
        assert axioms.a12_read_signed(received) == Received(P, at(3), X)

    def test_a12_requires_signed(self):
        with pytest.raises(AxiomError):
            axioms.a12_read_signed(Received(P, at(3), X))


class TestSaying:
    def test_a15_projection(self):
        said = Said(P, at(1), MessageTuple((X, Data("y"))))
        assert axioms.a15_said_projection(said, 1) == Said(P, at(1), Data("y"))

    def test_a15_index_bounds(self):
        said = Said(P, at(1), MessageTuple((X,)))
        with pytest.raises(AxiomError):
            axioms.a15_said_projection(said, 2)

    def test_a16_projection(self):
        says = Says(P, at(1), MessageTuple((X, Data("y"))))
        assert axioms.a16_says_projection(says, 0) == Says(P, at(1), X)

    def test_a17_strip(self):
        said = Said(P, at(1), Signed(X, K))
        assert axioms.a17_said_strip_signature(said) == Said(P, at(1), X)

    def test_a18_strip(self):
        says = Says(P, at(1), Signed(X, K))
        assert axioms.a18_says_strip_signature(says) == Says(P, at(1), X)

    def test_a19_said_to_says(self):
        said = Said(P, at(5), X)
        assert axioms.a19_said_to_says(said, 5) == Says(P, at(5), X)

    def test_a19_witness_bound(self):
        with pytest.raises(AxiomError):
            axioms.a19_said_to_says(Said(P, at(5), X), 9)

    def test_a20_says_to_said(self):
        says = Says(P, at(5), X)
        assert axioms.a20_says_to_said(says) == Said(P, at(5), X)


class TestFreshness:
    def test_a21_lifts_to_tuple(self):
        fresh = Fresh(X, at(1))
        composite = MessageTuple((X, Data("pad")))
        assert axioms.a21_freshness(fresh, composite) == Fresh(composite, at(1))

    def test_a21_lifts_to_signed(self):
        fresh = Fresh(X, at(1))
        composite = Signed(X, K)
        assert axioms.a21_freshness(fresh, composite).message == composite

    def test_a21_requires_dependence(self):
        fresh = Fresh(X, at(1))
        with pytest.raises(AxiomError):
            axioms.a21_freshness(fresh, MessageTuple((Data("unrelated"),)))

    def test_a21_nested_dependence(self):
        fresh = Fresh(X, at(1))
        composite = MessageTuple((Signed(X, K), Data("pad")))
        assert axioms.a21_freshness(fresh, composite).message == composite


class TestJurisdiction:
    def test_a22_applies(self):
        controls = Controls(Q, during(0, 10), X)
        says = Says(Q, at(5), X)
        assert axioms.a22_jurisdiction(controls, says) == At(X, Q, at(5))

    def test_a22_controller_mismatch(self):
        controls = Controls(Q, during(0, 10), X)
        says = Says(P, at(5), X)
        with pytest.raises(AxiomError):
            axioms.a22_jurisdiction(controls, says)

    def test_a22_formula_mismatch(self):
        controls = Controls(Q, during(0, 10), X)
        says = Says(Q, at(5), Data("other"))
        with pytest.raises(AxiomError):
            axioms.a22_jurisdiction(controls, says)

    def test_a22_time_uncovered(self):
        controls = Controls(Q, during(0, 3), X)
        says = Says(Q, at(5), X)
        with pytest.raises(AxiomError):
            axioms.a22_jurisdiction(controls, says)


def _bound(name: str, key: KeyRef):
    return Principal(name).bound_to(key)


class TestGroupSays:
    def test_a34_simple(self):
        membership = SpeaksForGroup(Q, during(0, 10), G)
        says = Says(Q, at(5), X)
        assert axioms.a34_group_says(membership, says) == Says(G, at(5), X)

    def test_a34_membership_expired(self):
        membership = SpeaksForGroup(Q, during(0, 3), G)
        with pytest.raises(AxiomError):
            axioms.a34_group_says(membership, Says(Q, at(5), X))

    def test_a34_wrong_speaker(self):
        membership = SpeaksForGroup(Q, during(0, 10), G)
        with pytest.raises(AxiomError):
            axioms.a34_group_says(membership, Says(P, at(5), X))

    def test_a35_keybound(self):
        membership = SpeaksForGroup(_bound("Q", K), during(0, 10), G)
        speaks = KeySpeaksFor(K, during(0, 10), Q)
        says = Says(Q, at(5), Signed(X, K))
        result = axioms.a35_keybound_group_says(membership, speaks, says)
        assert result == Says(G, at(5), X)

    def test_a35_wrong_key_signature(self):
        membership = SpeaksForGroup(_bound("Q", K), during(0, 10), G)
        speaks = KeySpeaksFor(K, during(0, 10), Q)
        says = Says(Q, at(5), Signed(X, K2))
        with pytest.raises(AxiomError):
            axioms.a35_keybound_group_says(membership, speaks, says)

    def test_a35_unsigned_rejected(self):
        membership = SpeaksForGroup(_bound("Q", K), during(0, 10), G)
        speaks = KeySpeaksFor(K, during(0, 10), Q)
        with pytest.raises(AxiomError):
            axioms.a35_keybound_group_says(membership, speaks, Says(Q, at(5), X))

    def test_a36_compound(self):
        cp = CompoundPrincipal.of([P, Q])
        membership = SpeaksForGroup(cp, during(0, 10), G)
        says = Says(cp, at(5), X)
        assert axioms.a36_compound_group_says(membership, says) == Says(G, at(5), X)


class TestA38Threshold:
    def _membership(self, m=2):
        cp = CompoundPrincipal.of(
            [_bound("U1", KeyRef("k1")), _bound("U2", KeyRef("k2")),
             _bound("U3", KeyRef("k3"))]
        )
        return SpeaksForGroup(cp.threshold(m), during(0, 100), G)

    def _member_says(self, name, key_id, t=5):
        u = Principal(name)
        inner = Says(u, at(t), X)
        return Says(u, at(t), Signed(inner, KeyRef(key_id)))

    def test_two_of_three(self):
        membership = self._membership(2)
        says = [self._member_says("U1", "k1"), self._member_says("U2", "k2")]
        result = axioms.a38_threshold_group_says(membership, says)
        assert result == Says(G, at(5), X)

    def test_insufficient_signers(self):
        membership = self._membership(2)
        with pytest.raises(AxiomError, match="need 2"):
            axioms.a38_threshold_group_says(
                membership, [self._member_says("U1", "k1")]
            )

    def test_duplicate_signer_rejected(self):
        membership = self._membership(2)
        says = [self._member_says("U1", "k1"), self._member_says("U1", "k1")]
        with pytest.raises(AxiomError, match="duplicate"):
            axioms.a38_threshold_group_says(membership, says)

    def test_non_subject_rejected(self):
        membership = self._membership(2)
        says = [self._member_says("U1", "k1"), self._member_says("Mallory", "km")]
        with pytest.raises(AxiomError, match="not a subject"):
            axioms.a38_threshold_group_says(membership, says)

    def test_wrong_bound_key_rejected(self):
        """Selective distribution: U2 signing with U3's key is refused."""
        membership = self._membership(2)
        says = [self._member_says("U1", "k1"), self._member_says("U2", "k3")]
        with pytest.raises(AxiomError, match="other than its bound key"):
            axioms.a38_threshold_group_says(membership, says)

    def test_divergent_requests_rejected(self):
        membership = self._membership(2)
        u2 = Principal("U2")
        other = Says(u2, at(5), Data("different"))
        says = [
            self._member_says("U1", "k1"),
            Says(u2, at(5), Signed(other, KeyRef("k2"))),
        ]
        with pytest.raises(AxiomError, match="different requests"):
            axioms.a38_threshold_group_says(membership, says)

    def test_conclusion_time_is_latest(self):
        membership = self._membership(2)
        says = [
            self._member_says("U1", "k1", t=5),
            self._member_says("U2", "k2", t=9),
        ]
        result = axioms.a38_threshold_group_says(membership, says)
        assert result.time == at(9)

    def test_three_of_three(self):
        membership = self._membership(3)
        says = [
            self._member_says("U1", "k1"),
            self._member_says("U2", "k2"),
            self._member_says("U3", "k3"),
        ]
        assert axioms.a38_threshold_group_says(membership, says).subject == G

    @pytest.mark.parametrize(
        "signers, message",
        [
            ([("U1", "k1")], "need 2 member utterances, got 1"),
            (
                [("U1", "k1"), ("Mallory", "km")],
                "Mallory is not a subject of the AC",
            ),
            ([("U1", "k1"), ("U1", "k1")], "duplicate utterance by U1"),
            (
                [("U1", "k1"), ("U2", "k3")],
                "U2 signed with a key other than its bound key",
            ),
        ],
    )
    def test_failure_messages(self, signers, message):
        """Deny reasons carry these texts byte for byte."""
        says = [self._member_says(name, key) for name, key in signers]
        with pytest.raises(AxiomError) as raised:
            axioms.a38_threshold_group_says(self._membership(2), says)
        assert str(raised.value) == message

    def test_unbound_subjects_rejected(self):
        cp = CompoundPrincipal.of([Principal("U1"), Principal("U2")])
        membership = SpeaksForGroup(cp.threshold(1), during(0, 10), G)
        with pytest.raises(AxiomError, match="key-bound"):
            axioms.a38_threshold_group_says(
                membership, [self._member_says("U1", "k1")]
            )
