"""Virtual wall clock and deterministic PRNG.

``time()`` and ``rand()`` are the canonical nondeterministic syscalls
(the paper's ``rdtsc`` analogue): their outcomes differ between two
otherwise identical runs, so LDX shares them from master to slave.  The
virtual versions are deterministic *given a seed*, which lets tests
inject controlled nondeterminism (different seeds = different runs).
"""

from __future__ import annotations


class VirtualClock:
    """Monotonic clock; every read advances it (like reading rdtsc)."""

    def __init__(self, start: int = 1_000_000, step: int = 7) -> None:
        self._now = start
        self._step = step

    def read(self) -> int:
        self._now += self._step
        return self._now

    def advance(self, amount: int) -> None:
        self._now += max(0, amount)

    def peek(self) -> int:
        return self._now

    def clone(self) -> "VirtualClock":
        copy = VirtualClock(self._now, self._step)
        return copy


class DeterministicRng:
    """A small LCG — reproducible randomness for rand() and schedulers."""

    MODULUS = 2**31 - 1
    MULTIPLIER = 48271

    def __init__(self, seed: int = 1) -> None:
        self._state = (seed % self.MODULUS) or 1

    def next_int(self, bound: int = 2**30) -> int:
        """Next value in [0, bound).

        The LCG state lives in [1, MODULUS), so a *bound* above the
        modulus is unsatisfiable — values in [MODULUS, bound) would
        never be drawn, silently narrowing the range.  Reject it
        instead of returning biased values.
        """
        if bound > self.MODULUS:
            raise ValueError(
                f"bound {bound} exceeds the LCG modulus {self.MODULUS}; "
                "values at or above the modulus are unreachable"
            )
        self._state = (self._state * self.MULTIPLIER) % self.MODULUS
        return self._state % max(1, bound)

    def clone(self) -> "DeterministicRng":
        copy = DeterministicRng(1)
        copy._state = self._state
        return copy
