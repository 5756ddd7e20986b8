"""Unit and property tests for the commutative value algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import (
    Assign,
    Increment,
    MVStore,
    ObservationLog,
    Record,
    Unrecord,
)
from repro.storage import values


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

    def test_unrecord_absent_from_a_chained_state_raises(self):
        state = Record("a").apply(Record("b").apply(()))
        assert isinstance(state, ObservationLog)
        with pytest.raises(StorageError):
            Unrecord("ghost").apply(state)
        assert state == ("a", "b")

    def test_unrecord_returns_the_plain_canonical_tuple(self):
        state = Record("b").apply(Record("a").apply(Record("b").apply(None)))
        assert Unrecord("b").apply(state).__class__ is tuple
        assert Unrecord("b").apply(state) == ("a", "b")


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
    """The log insert against the sort it replaced."""

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


class CountedRepr:
    """An observation that counts the calls to its ``repr`` (the sort key)."""

    calls = 0

    def __init__(self, number):
        self.number = number

    def __repr__(self):
        CountedRepr.calls += 1
        return f"obs-{self.number:05d}"


class TestInsertWork:
    """An insert orders nothing; the first read sorts once."""

    N = 2_000

    def test_inserts_make_no_sort_key_call_and_a_read_one_sort(
            self, monkeypatch):
        sorts = []

        def counted_sorted(*args, **kwargs):
            sorts.append(len(args[0]))
            return sorted(*args, **kwargs)

        monkeypatch.setattr(values, "sorted", counted_sorted, raising=False)
        monkeypatch.setattr(CountedRepr, "calls", 0)
        state = ()
        for number in range(self.N):
            state = Record(CountedRepr((number * 7919) % self.N)).apply(state)
        assert CountedRepr.calls == 0 and sorts == []
        assert len(state) == self.N
        assert CountedRepr.calls == 0 and sorts == []

        assert state[0].number == 0
        assert sorts == [self.N]
        assert CountedRepr.calls == self.N
        # The canonical tuple is cached: a second read sorts nothing.
        assert [obs.number for obs in state] == list(range(self.N))
        assert sorts == [self.N] and CountedRepr.calls == self.N

    def test_a_read_walks_back_only_to_the_last_read(self):
        state = apply_all((), [Record(n) for n in (3, 1, 2)])
        assert tuple(state) == (1, 2, 3)
        later = apply_all(state, [Record(0), Record(2)])
        assert tuple(later) == (0, 1, 2, 2, 3)
        # The earlier log still reads what it read, and is shared as is.
        assert tuple(state) == (1, 2, 3)


#: Observations whose ``repr``s are distinct, each recorded up to three
#: times as the same object: the workload's ``(name, slot)`` pairs are
#: unique, and equal-``repr`` entries keep their arrival order, which is
#: the one thing two delivery orders may differ in.
distinct_observations = st.lists(
    st.tuples(observations, st.integers(1, 3)), max_size=30,
).map(lambda drawn: [observation
                     for observation, times in {
                         repr(obs): (obs, times) for obs, times in drawn
                     }.values()
                     for _ in range(times)])


def deliver(order, cut_first, cut_straggler):
    """One store's run: ``order[:cut_first]`` at version 1, then version 2
    opens with the middle's first write and takes the middle, then the
    tail straggles in at version 1 (a dual write to 1 and 2, once version
    2 exists), then version 1 is collected."""
    store = MVStore(three_slots=True)
    store.load("log", (), version=0)
    for observation in order[:cut_first]:
        assert store.write("log", 1, Record(observation)) == (1,)
    for observation in order[cut_first:cut_straggler]:
        assert store.write("log", 2, Record(observation)) == (2,)
    straggled = (1, 2) if cut_straggler > cut_first else (1,)
    for observation in order[cut_straggler:]:
        assert store.write("log", 1, Record(observation)) == straggled
    store.collect(2)
    assert store.versions("log") == [2]
    return store.get_exact("log", 2)


class TestDeliveryOrder:
    @given(distinct_observations, st.randoms(use_true_random=False),
           st.floats(0, 1), st.floats(0, 1))
    def test_two_orders_leave_one_version(self, records, rng, first,
                                          straggler):
        cut_first = int(first * len(records))
        cut_straggler = cut_first + int(straggler * (len(records) - cut_first))
        other = list(records)
        rng.shuffle(other)
        a = deliver(records, cut_first, cut_straggler)
        b = deliver(other, cut_first, cut_straggler)
        assert a == b and hash(a) == hash(b)
        assert len(a) == len(b) == len(records)
        assert all(x is y for x, y in zip(a, b))
        assert a == apply_all((), [Record(obs) for obs in records]) == (
            tuple(sorted(records, key=repr)))
