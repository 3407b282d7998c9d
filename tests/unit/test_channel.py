"""Unit tests for the master->slave outcome queue and counter order."""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.channel import (
    OutcomeQueue,
    SyscallRecord,
    counter_geq,
    counter_less,
)


def record(counter, name="read", args=(1, 4), result="x"):
    return SyscallRecord(counter, name, args, result, None)


def test_counter_less_basics():
    assert counter_less((1,), (2,))
    assert not counter_less((2,), (1,))
    assert not counter_less((2,), (2,))
    assert counter_less((2,), (2, 1))  # prefix before extension
    assert counter_less((2, 9), (3,))


def test_counter_infinity():
    assert counter_less((5,), None)
    assert not counter_less(None, (5,))
    assert counter_geq(None, (5,))
    assert not counter_less(None, None)


def test_find_by_counter_and_name():
    queue = OutcomeQueue()
    queue.add(record((1,), "open"))
    queue.add(record((2,), "read"))
    assert queue.find((2,), "read") is not None
    assert queue.find((2,), "write") is None
    assert queue.find((3,), "read") is None


def test_consumed_records_not_found_again():
    queue = OutcomeQueue()
    queue.add(record((1,)))
    found = queue.find((1,), "read")
    found.consumed = True
    assert queue.find((1,), "read") is None


def test_duplicate_counters_served_in_order():
    queue = OutcomeQueue()
    first = record((1,), result="a")
    second = record((1,), result="b")
    queue.add(first)
    queue.add(second)
    assert queue.find((1,), "read").result == "a"
    first.consumed = True
    assert queue.find((1,), "read").result == "b"


def test_prune_iteration_drops_only_this_iterations_records():
    queue = OutcomeQueue()
    queue.add(record((2,), "open"))  # before the loop (<= reset)
    queue.add(record((5,), "read"))  # inside the iteration
    inside = record((6,), "close")
    inside.consumed = True
    queue.add(inside)
    dropped = queue.prune_iteration(barrier_counter=(8,), reset_to=3)
    assert [r.counter for r in dropped] == [(5,)]  # unconsumed only
    assert queue.find((2,), "open") is not None
    assert len(queue) == 1


def test_prune_iteration_covers_scoped_records():
    queue = OutcomeQueue()
    queue.add(record((5, 2), "read"))  # inside a scoped call this iteration
    queue.add(record((2, 9), "read"))  # scoped call before the loop
    dropped = queue.prune_iteration(barrier_counter=(8,), reset_to=3)
    assert [r.counter for r in dropped] == [(5, 2)]


def test_prune_passed():
    queue = OutcomeQueue()
    queue.add(record((1,), "open"))
    queue.add(record((4,), "read"))
    dropped = queue.prune_passed((3,))
    assert [r.counter for r in dropped] == [(1,)]
    assert len(queue) == 1


def test_earliest_publication_after():
    queue = OutcomeQueue()
    queue.add(SyscallRecord((2,), "a", (), None, None, published_at=10.0))
    queue.add(SyscallRecord((5,), "b", (), None, None, published_at=50.0))
    queue.add(SyscallRecord((7,), "c", (), None, None, published_at=30.0))
    assert queue.earliest_publication_after((3,)) == 30.0
    assert queue.earliest_publication_after((8,)) is None


def test_drain_unconsumed():
    queue = OutcomeQueue()
    consumed = record((1,))
    consumed.consumed = True
    queue.add(consumed)
    queue.add(record((2,)))
    remaining = queue.drain_unconsumed()
    assert [r.counter for r in remaining] == [(2,)]
    assert len(queue) == 0


def test_signature_default():
    rec = SyscallRecord((1,), "write", (1, "x"), 1, None)
    assert rec.signature == ("write", 1, "x")


# -- the indexed queue against a list model -----------------------------------


class ListQueue:
    """The outcome queue as a plain arrival-ordered list: every query
    scans, every prune rebuilds.  The semantics the index must keep."""

    def __init__(self):
        self.records = []

    def add(self, record):
        self.records.append(record)

    def find(self, counter, name):
        for record in self.records:
            if not record.consumed and record.counter == counter and record.name == name:
                return record
        return None

    def earliest_publication_after(self, counter):
        times = [r.published_at for r in self.records if counter_less(counter, r.counter)]
        return min(times) if times else None

    def _drop(self, doomed):
        dropped = [r for r in self.records if doomed(r) and not r.consumed]
        self.records = [r for r in self.records if not doomed(r)]
        return dropped

    def prune_iteration(self, barrier_counter, reset_to):
        prefix = barrier_counter[:-1]
        return self._drop(
            lambda r: len(r.counter) >= len(barrier_counter)
            and r.counter[: len(prefix)] == prefix
            and r.counter[len(prefix)] > reset_to
        )

    def prune_passed(self, position):
        return self._drop(lambda r: counter_less(r.counter, position))

    def drain_unconsumed(self):
        return self._drop(lambda r: True)


# Short counters over a small alphabet: duplicates and prefix pairs such
# as (2,) and (2, 1) come up constantly.
COUNTERS = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)
NAMES = st.sampled_from(("read", "write"))


class OutcomeQueueModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.queue = OutcomeQueue()
        self.model = ListQueue()

    @rule(counter=COUNTERS, name=NAMES, published=st.integers(0, 40))
    def add(self, counter, name, published):
        rec = SyscallRecord(counter, name, (), None, None, published_at=float(published))
        self.queue.add(rec)
        self.model.add(rec)

    @rule(counter=COUNTERS, name=NAMES, consume=st.booleans())
    def find(self, counter, name, consume):
        found = self.model.find(counter, name)
        assert self.queue.find(counter, name) is found
        if found is not None and consume:
            found.consumed = True

    @rule(counter=COUNTERS)
    def earliest_publication_after(self, counter):
        assert self.queue.earliest_publication_after(
            counter
        ) == self.model.earliest_publication_after(counter)

    @rule(position=COUNTERS)
    def prune_passed(self, position):
        assert self.queue.prune_passed(position) == self.model.prune_passed(position)

    @rule(barrier_counter=COUNTERS, reset_to=st.integers(-1, 3))
    def prune_iteration(self, barrier_counter, reset_to):
        assert self.queue.prune_iteration(
            barrier_counter, reset_to
        ) == self.model.prune_iteration(barrier_counter, reset_to)

    @rule()
    def drain_unconsumed(self):
        assert self.queue.drain_unconsumed() == self.model.drain_unconsumed()

    @invariant()
    def same_length(self):
        assert len(self.queue) == len(self.model.records)


TestOutcomeQueueModel = OutcomeQueueModel.TestCase
TestOutcomeQueueModel.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
