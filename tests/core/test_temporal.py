"""Tests for temporal annotations."""

import pickle

import pytest

from repro.core.temporal import (
    FOREVER,
    Temporal,
    TemporalKind,
    at,
    during,
    sometime,
)
from repro.core.terms import Principal


class TestConstruction:
    def test_point(self):
        t = at(5)
        assert t.kind is TemporalKind.POINT
        assert t.lo == t.hi == 5
        assert t.is_point

    def test_all_interval(self):
        t = during(1, 9)
        assert t.kind is TemporalKind.ALL
        assert (t.lo, t.hi) == (1, 9)

    def test_some_interval(self):
        t = sometime(1, 9)
        assert t.kind is TemporalKind.SOME

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            during(5, 4)

    def test_point_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Temporal(TemporalKind.POINT, 1, 2)

    def test_clock_owner(self):
        p = Principal("P")
        t = at(5, p)
        assert t.clock == p


class TestInternedPoints:
    def test_same_instant_and_clock_share_one_node(self):
        p = Principal("P")
        assert Temporal.point(5) is at(5) is Temporal.point(5, None)
        assert Temporal.point(5, p) is at(5, Principal("P"))
        assert at(5, p) is not at(5)
        assert at(5) is not at(6)

    def test_equal_and_hash_equal_to_a_built_node(self):
        p = Principal("P")
        built = Temporal(TemporalKind.POINT, 7, 7, p)
        assert at(7, p) == built
        assert hash(at(7, p)) == hash(built)

    def test_bool_and_int_never_share_an_entry(self):
        assert at(1) == at(True)
        assert at(1) is not at(True)
        assert type(at(True).lo) is bool
        assert type(at(1).lo) is int
        assert at(0).lo is not False

    def test_pickle_round_trip(self):
        original = at(9, Principal("P"))
        hash(original)
        loaded = pickle.loads(pickle.dumps(original))
        assert loaded == original
        assert hash(loaded) == hash(original)


class TestCovers:
    def test_point_covers_itself(self):
        assert at(5).covers(5)
        assert not at(5).covers(6)

    def test_all_covers_interval(self):
        t = during(2, 8)
        assert t.covers(2) and t.covers(5) and t.covers(8)
        assert not t.covers(1) and not t.covers(9)

    def test_some_covers_nothing(self):
        assert not sometime(2, 8).covers(5)

    def test_covers_interval(self):
        t = during(0, 10)
        assert t.covers_interval(2, 8)
        assert not t.covers_interval(5, 11)
        assert not sometime(0, 10).covers_interval(2, 3)

    def test_forever(self):
        t = during(0, FOREVER)
        assert t.covers(10**9)


class TestClockManipulation:
    def test_on_clock(self):
        p = Principal("P")
        t = during(1, 5).on_clock(p)
        assert t.clock == p
        assert (t.lo, t.hi) == (1, 5)

    def test_without_clock(self):
        p = Principal("P")
        t = at(3, p).without_clock()
        assert t.clock is None

    def test_clock_affects_equality(self):
        assert at(3) != at(3, Principal("P"))


class TestStr:
    def test_renderings(self):
        assert str(at(5)) == "5"
        assert str(during(1, 2)) == "[1,2]"
        assert str(sometime(1, 2)) == "<1,2>"
        assert "P" in str(at(5, Principal("P")))
