"""Unit and property tests for the commutative value algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import Assign, Increment, Record, Unrecord


def apply_all(state, operations):
    """Fold a sequence of operations over a state."""
    for operation in operations:
        state = operation.apply(state)
    return state


class TestIncrement:
    def test_apply_to_number(self):
        assert Increment(5).apply(10) == 15

    def test_apply_to_none_starts_at_zero(self):
        assert Increment(7).apply(None) == 7

    def test_apply_to_non_number_raises(self):
        with pytest.raises(StorageError):
            Increment(1).apply("text")

    def test_inverse_cancels(self):
        op = Increment(3.5)
        assert op.inverse().apply(op.apply(10.0)) == 10.0

    def test_commutes_flag(self):
        assert Increment(1).commutes

    def test_equality(self):
        assert Increment(2) == Increment(2)
        assert Increment(2) != Increment(3)


class TestRecord:
    def test_apply_inserts_observation(self):
        state = Record("call-1").apply(None)
        assert state == ("call-1",)

    def test_insertion_order_does_not_matter(self):
        a_then_b = Record("b").apply(Record("a").apply(None))
        b_then_a = Record("a").apply(Record("b").apply(None))
        assert a_then_b == b_then_a

    def test_duplicates_kept(self):
        state = Record("x").apply(Record("x").apply(None))
        assert state == ("x", "x")

    def test_apply_to_non_multiset_raises(self):
        with pytest.raises(StorageError):
            Record("x").apply(42)

    def test_inverse_removes_one_instance(self):
        state = Record("x").apply(Record("x").apply(None))
        assert Record("x").inverse().apply(state) == ("x",)

    def test_unrecord_absent_raises(self):
        with pytest.raises(StorageError):
            Unrecord("ghost").apply(())


class TestAssign:
    def test_apply_overwrites(self):
        assert Assign(99).apply(5) == 99

    def test_not_commuting(self):
        assert not Assign(1).commutes

    def test_no_state_independent_inverse(self):
        with pytest.raises(StorageError):
            Assign(1).inverse()

    def test_undo_restores_previous_state(self):
        op = Assign(99)
        undo = op.undo_for(5)
        assert undo.apply(op.apply(5)) == 5
        assert not undo.commutes

    def test_assign_undo_has_no_inverse(self):
        with pytest.raises(StorageError):
            Assign(1).undo_for(0).inverse()


class TestCommutativityProperties:
    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000), max_size=20),
        st.randoms(use_true_random=False),
    )
    def test_increments_commute(self, deltas, rng):
        """Any permutation of increments yields the same final state."""
        ops = [Increment(d) for d in deltas]
        shuffled = list(ops)
        rng.shuffle(shuffled)
        assert apply_all(0, ops) == apply_all(0, shuffled)

    @given(
        st.lists(st.text(max_size=5), max_size=15),
        st.randoms(use_true_random=False),
    )
    def test_records_commute(self, observations, rng):
        ops = [Record(obs) for obs in observations]
        shuffled = list(ops)
        rng.shuffle(shuffled)
        assert apply_all((), ops) == apply_all((), shuffled)

    @given(st.lists(st.integers(min_value=-100, max_value=100), max_size=15))
    def test_compensation_is_exact(self, deltas):
        """Applying ops then all inverses returns to the initial state."""
        ops = [Increment(d) for d in deltas]
        state = apply_all(123, ops)
        restored = apply_all(state, [op.inverse() for op in ops])
        assert restored == 123

    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=10)
    )
    def test_record_compensation_is_exact(self, observations):
        ops = [Record(obs) for obs in observations]
        state = apply_all((), ops)
        restored = apply_all(state, [op.inverse() for op in reversed(ops)])
        assert restored == ()

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), max_size=8),
        st.integers(min_value=-50, max_value=50),
    )
    def test_assign_does_not_commute_with_increment(self, deltas, value):
        """Documents *why* Assign is excluded from well-behaved sets."""
        if sum(deltas) == 0:
            return
        ops = [Increment(d) for d in deltas]
        assign_first = apply_all(0, [Assign(value)] + ops)
        assign_last = apply_all(0, ops + [Assign(value)])
        assert assign_first != assign_last


class SameRepr:
    """Distinct observations that all print alike (equal sort keys)."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return "same"


#: Heterogeneous observations: ints, strings whose repr collides with an
#: int's, tuples like the workload's ``(name, tag)``, and equal-repr objects.
observations = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.sampled_from(["1", "10", "'1'", "", "a"]),
    st.tuples(st.sampled_from(["t1", "t2"]), st.integers(0, 2)),
    st.builds(SameRepr, st.integers(0, 3)),
)


def reference_record_apply(state, observation):
    """``Record.apply`` as it was: re-sort the whole log on every insert."""
    if state is None:
        state = ()
    return tuple(sorted(state + (observation,), key=repr))


class TestRecordInsertMatchesFullSort:
    """The binary-search insert against the sort it replaced."""

    @given(st.lists(st.tuples(st.booleans(), observations), max_size=40),
           st.randoms(use_true_random=False))
    def test_any_interleaving_of_record_and_unrecord(self, steps, rng):
        state = expected = None
        for insert, observation in steps:
            if insert or not state:
                state = Record(observation).apply(state)
                expected = reference_record_apply(expected, observation)
            else:
                victim = rng.choice(state)
                state = Unrecord(victim).apply(state)
                expected = Unrecord(victim).apply(expected)
            assert len(state) == len(expected)
            # Identity, not ==: equal-repr entries must keep their order.
            assert all(a is b for a, b in zip(state, expected))

    @given(st.lists(observations, max_size=12), observations, observations)
    def test_two_records_still_commute(self, log, first, second):
        state = apply_all(None, [Record(obs) for obs in log])
        a_then_b = Record(second).apply(Record(first).apply(state))
        b_then_a = Record(first).apply(Record(second).apply(state))
        if repr(first) != repr(second):
            assert all(a is b for a, b in zip(a_then_b, b_then_a))
        assert [repr(obs) for obs in a_then_b] == [
            repr(obs) for obs in b_then_a]
