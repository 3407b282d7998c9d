"""Master->slave syscall outcome queue and counter ordering.

The master appends the outcome of every executed syscall keyed by its
counter stack (Algorithm 2's ``Q``); the slave looks outcomes up by its
own counter stack.  Loop back-edge barriers prune the entries of the
completed iteration so repeated counter values across iterations cannot
be confused (Section 5's iteration-level alignment).
"""

from __future__ import annotations

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
    """Per-thread-pair outcome queue with iteration pruning."""

    def __init__(self) -> None:
        self._records: List[SyscallRecord] = []

    def add(self, record: SyscallRecord) -> None:
        self._records.append(record)

    def find(self, counter: Counter, name: str) -> Optional[SyscallRecord]:
        """First unconsumed record at *counter* with the same syscall."""
        for record in self._records:
            if not record.consumed and record.counter == counter and record.name == name:
                return record
        return None

    def earliest_publication_after(self, counter: Counter) -> Optional[float]:
        """Publication time of the first record past *counter* — when a
        waiting slave could have learned the master took another path."""
        times = [
            record.published_at
            for record in self._records
            if counter_less(counter, record.counter)
        ]
        return min(times) if times else None

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
        kept: List[SyscallRecord] = []
        dropped: List[SyscallRecord] = []
        for record in self._records:
            stack = record.counter
            in_iteration = (
                len(stack) >= len(barrier_counter)
                and stack[: len(prefix)] == prefix
                and stack[len(prefix)] > reset_to
            )
            if in_iteration:
                if not record.consumed:
                    dropped.append(record)
            else:
                kept.append(record)
        self._records = kept
        return dropped

    def prune_passed(self, slave_position: Counter) -> List[SyscallRecord]:
        """Drop records strictly before the slave's position.

        Consumed records are forgotten silently; unconsumed ones are
        master-only syscalls (path differences) and are returned.
        """
        kept: List[SyscallRecord] = []
        dropped: List[SyscallRecord] = []
        for record in self._records:
            if counter_less(record.counter, slave_position):
                if not record.consumed:
                    dropped.append(record)
            else:
                kept.append(record)
        self._records = kept
        return dropped

    def drain_unconsumed(self) -> List[SyscallRecord]:
        """All remaining unconsumed records (used at end of execution)."""
        remaining = [r for r in self._records if not r.consumed]
        self._records = []
        return remaining

    def __len__(self) -> int:
        return len(self._records)
