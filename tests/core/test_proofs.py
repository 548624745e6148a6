"""Tests for proof trees."""

import dataclasses
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formulas import Says
from repro.core.messages import Data
from repro.core.proofs import ProofStep, render_proof
from repro.core.temporal import at
from repro.core.terms import Principal


def _tree():
    leaf1 = ProofStep(Data("p1"), "premise", note="initial belief")
    leaf2 = ProofStep(Data("p2"), "premise")
    mid = ProofStep(Data("mid"), "A10", (leaf1, leaf2))
    return ProofStep(Says(Principal("G"), at(3), Data("x")), "A38", (mid,))


class TestProofStep:
    def test_walk_preorder(self):
        root = _tree()
        rules = [step.rule for step in root.walk()]
        assert rules == ["A38", "A10", "premise", "premise"]

    def test_axioms_used_dedup(self):
        assert _tree().axioms_used() == ["A38", "A10", "premise"]

    def test_depth(self):
        assert _tree().depth() == 3

    def test_size(self):
        assert _tree().size() == 4

    def test_leaf(self):
        leaf = ProofStep(Data("x"), "premise")
        assert leaf.depth() == 1
        assert leaf.size() == 1


class TestRender:
    def test_render_contains_rules_and_notes(self):
        text = render_proof(_tree())
        assert "[A38]" in text
        assert "[A10]" in text
        assert "initial belief" in text

    def test_indentation(self):
        lines = render_proof(_tree()).splitlines()
        assert lines[0].startswith("[")
        assert lines[1].startswith("  [")
        assert lines[2].startswith("    [")


def _walk_count(step):
    return sum(1 for _ in step.walk())


# Trees of up to ~40 nodes; ``st.recursive`` may hand the same child
# object out twice, so shared premises (a DAG) are generated as well.
_rules = st.sampled_from(["premise", "A10", "A22", "A38"])
_leaves = st.builds(lambda rule: ProofStep(Data("leaf"), rule), _rules)
_trees = st.recursive(
    _leaves,
    lambda children: st.builds(
        lambda rule, premises: ProofStep(Data("node"), rule, tuple(premises)),
        _rules,
        st.lists(children, max_size=3),
    ),
    max_leaves=40,
)


class TestRecordedSize:
    """``size()`` is recorded at construction and always matches ``walk()``."""

    @settings(max_examples=60, deadline=None)
    @given(_trees)
    def test_size_matches_walk(self, tree):
        assert tree.size() == _walk_count(tree)

    @settings(max_examples=60, deadline=None)
    @given(_trees, _trees)
    def test_size_after_replace(self, tree, other):
        for changed in (
            dataclasses.replace(tree, premises=(other, tree)),
            dataclasses.replace(tree, premises=()),
            dataclasses.replace(tree, rule="A10", note="renamed"),
        ):
            assert changed.size() == _walk_count(changed)

    @settings(max_examples=60, deadline=None)
    @given(_trees)
    def test_size_after_pickle(self, tree):
        clone = pickle.loads(pickle.dumps(tree))
        assert clone == tree
        assert clone.size() == _walk_count(clone) == tree.size()

    def test_shared_premise_counts_each_time(self):
        leaf = ProofStep(Data("p"), "premise")
        root = ProofStep(Data("r"), "A38", (leaf, leaf))
        assert root.size() == _walk_count(root) == 3

    def test_size_stays_out_of_eq_and_repr(self):
        assert "_size" not in repr(_tree())
        assert _tree() == _tree() and hash(_tree()) == hash(_tree())


class TestMerkleDigest:
    """``digest()`` is a Merkle root over rules, conclusions and premises."""

    def test_equal_trees_equal_roots(self):
        assert _tree().digest() == _tree().digest()
        assert len(_tree().digest()) == 32

    def test_conclusion_rule_and_premise_order_change_the_root(self):
        root = _tree()
        mid = root.premises[0]
        leaf1, leaf2 = mid.premises
        variants = [
            dataclasses.replace(root, conclusion=Data("y")),
            dataclasses.replace(root, rule="A37"),
            dataclasses.replace(
                root, premises=(dataclasses.replace(mid, premises=(leaf2, leaf1)),)
            ),
            dataclasses.replace(
                root,
                premises=(
                    dataclasses.replace(
                        mid, premises=(leaf1, dataclasses.replace(leaf2, conclusion=Data("p3")))
                    ),
                ),
            ),
        ]
        digests = {root.digest(), *(v.digest() for v in variants)}
        assert len(digests) == len(variants) + 1

    def test_note_is_not_digested(self):
        root = _tree()
        assert dataclasses.replace(root, note="commentary").digest() == root.digest()

    def test_rule_and_conclusion_boundary_is_unambiguous(self):
        a = ProofStep(Data("1:x"), "A")
        b = ProofStep(Data("x"), "A1:")
        assert str(a.conclusion) != str(b.conclusion)
        assert a.digest() != b.digest()

    def test_memo_is_per_object_and_replace_drops_it(self):
        root = _tree()
        first = root.digest()
        assert root.__dict__["_memo_digest"] == first
        changed = dataclasses.replace(root, rule="A37")
        assert "_memo_digest" not in changed.__dict__
        assert changed.digest() != first

    def test_memo_stays_out_of_eq_and_repr(self):
        root = _tree()
        root.digest()
        assert root == _tree()
        assert "_memo_digest" not in repr(root)

    @settings(max_examples=40, deadline=None)
    @given(_trees)
    def test_pickled_root_matches(self, tree):
        tree.digest()
        clone = pickle.loads(pickle.dumps(tree))
        assert clone.digest() == tree.digest()
        assert clone.digest() == dataclasses.replace(tree).digest()
