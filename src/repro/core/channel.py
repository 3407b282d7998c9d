"""Master->slave syscall outcome queue and counter ordering.

The master appends the outcome of every executed syscall keyed by its
counter stack (Algorithm 2's ``Q``); the slave looks outcomes up by its
own counter stack.  Loop back-edge barriers prune the entries of the
completed iteration so repeated counter values across iterations cannot
be confused (Section 5's iteration-level alignment).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import inf
from typing import List, Optional, Tuple

Counter = Tuple[int, ...]

# Sentinel: "infinitely far ahead" (finished execution / absent thread).
INFINITY: Counter = None


def counter_less(a: Optional[Counter], b: Optional[Counter]) -> bool:
    """Strict progress order.  None means infinity.

    Lexicographic on the stacks; a proper prefix orders *before* its
    extensions (the extension is inside a counter scope entered at the
    prefix point, hence at least as far along).
    """
    if a is None:
        return False
    if b is None:
        return True
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return len(a) < len(b)


def counter_geq(a: Optional[Counter], b: Optional[Counter]) -> bool:
    """a >= b under the progress order."""
    return not counter_less(a, b)


class SyscallRecord:
    """One recorded master syscall outcome."""

    __slots__ = (
        "counter",
        "name",
        "args",
        "result",
        "consumed",
        "resource",
        "signature",
        "published_at",
    )

    def __init__(
        self,
        counter: Counter,
        name: str,
        args: tuple,
        result,
        resource: Optional[str],
        signature: tuple = None,
        published_at: float = 0.0,
    ) -> None:
        self.counter = counter
        self.name = name
        self.args = args
        self.result = result
        self.resource = resource
        self.signature = signature if signature is not None else (name,) + tuple(args)
        # Master virtual time when this outcome became visible — the
        # earliest moment a waiting slave can consume it.
        self.published_at = published_at
        self.consumed = False

    def __repr__(self) -> str:
        flag = "*" if self.consumed else ""
        return f"<Rec{flag} {self.name}@{self.counter}>"


class OutcomeQueue:
    """Per-thread-pair outcome queue with iteration pruning.

    Records are kept sorted by (counter, arrival), so lookups bisect: a
    counter's records keep arrival order, the records a slave passed are
    a prefix, and a loop iteration's are a contiguous run.  Dropped
    records are returned in arrival order."""

    def __init__(self) -> None:
        self._keys: List[Tuple[Counter, int]] = []
        self._records: List[SyscallRecord] = []
        self._arrivals = 0
        # While records arrive in counter order with non-decreasing
        # publication times, a suffix's first record published first.
        self._ordered = True
        self._latest = -inf

    def add(self, record: SyscallRecord) -> None:
        key = (record.counter, self._arrivals)
        self._arrivals += 1
        keys = self._keys
        at = bisect_right(keys, key) if keys and key < keys[-1] else len(keys)
        self._ordered &= at == len(keys) and record.published_at >= self._latest
        self._latest = record.published_at
        keys.insert(at, key)
        self._records.insert(at, record)

    def find(self, counter: Counter, name: str) -> Optional[SyscallRecord]:
        """First unconsumed record at *counter* with the same syscall."""
        keys = self._keys
        at = bisect_left(keys, (counter,))
        while at < len(keys) and keys[at][0] == counter:
            record = self._records[at]
            if not record.consumed and record.name == name:
                return record
            at += 1
        return None

    def earliest_publication_after(self, counter: Counter) -> Optional[float]:
        """Publication time of the first record past *counter* — when a
        waiting slave could have learned the master took another path."""
        at = bisect_right(self._keys, (counter, inf))
        if at == len(self._records):
            return None
        if self._ordered:
            return self._records[at].published_at
        return min(record.published_at for record in self._records[at:])

    def prune_iteration(
        self, barrier_counter: Counter, reset_to: int
    ) -> List[SyscallRecord]:
        """Drop records belonging to the loop iteration that just ended.

        A record belongs to the iteration when its counter stack has the
        same scope prefix as the barrier's and its top value is above
        the loop-head reset value.  Returns the *unconsumed* droppees —
        master-only syscalls, i.e. syscall differences.
        """
        prefix = barrier_counter[:-1]
        depth = len(prefix)
        keys = self._keys
        low = bisect_left(keys, (prefix + (reset_to + 1,),))
        high = low
        while high < len(keys) and keys[high][0][:depth] == prefix:
            high += 1
        return self._cut(low, high)

    def prune_passed(self, slave_position: Counter) -> List[SyscallRecord]:
        """Drop records strictly before the slave's position.

        Consumed records are forgotten silently; unconsumed ones are
        master-only syscalls (path differences) and are returned.
        """
        keys = self._keys
        if not keys or not keys[0][0] < slave_position:
            return []
        return self._cut(0, bisect_left(keys, (slave_position,)))

    def drain_unconsumed(self) -> List[SyscallRecord]:
        """All remaining unconsumed records (used at end of execution)."""
        return self._cut(0, len(self._keys))

    def _cut(self, low: int, high: int) -> List[SyscallRecord]:
        """Remove positions [low, high); the unconsumed ones, in arrival
        order."""
        if low >= high:
            return []
        cut = sorted(
            zip(self._keys[low:high], self._records[low:high]), key=lambda kr: kr[0][1]
        )
        del self._keys[low:high]
        del self._records[low:high]
        return [record for _key, record in cut if not record.consumed]

    def __len__(self) -> int:
        return len(self._records)
