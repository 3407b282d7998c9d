"""Per-workload circuit breakers.

A workload whose engine keeps failing (supervisor-swallowed engine
failures, not program crashes — a slave crashing under an attack input
is a *result*) should stop consuming service capacity: the breaker
trips **open** after ``FAILURE_THRESHOLD`` consecutive failures,
fast-fails requests for that module key with an ``unavailable``
response while open, and **half-opens** after ``COOLDOWN_S``
seconds — exactly one probe request is let through; success closes
the breaker, failure re-opens it for another cooldown.

The clock is injectable so tests drive state transitions without
sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict

# Consecutive engine failures that open a breaker.
FAILURE_THRESHOLD = 3
# Seconds an open breaker waits before admitting a half-open probe.
COOLDOWN_S = 30.0

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """One module key's breaker state machine (its board locks it)."""

    __slots__ = ("_clock", "state", "failures", "opened_at", "trips")

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self.state = CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.trips = 0

    def allow(self) -> bool:
        """May a request proceed now?  While open, exactly one caller
        per cooldown expiry gets True (the half-open probe)."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self._clock() - self.opened_at >= COOLDOWN_S:
                self.state = HALF_OPEN
                return True  # this caller is the probe
            return False
        # HALF_OPEN: a probe is already in flight.
        return False

    def record_success(self) -> None:
        self.state = CLOSED
        self.failures = 0

    def record_failure(self) -> None:
        if self.state == HALF_OPEN:
            # The probe failed: straight back to open.
            self.state = OPEN
            self.opened_at = self._clock()
            self.trips += 1
            return
        self.failures += 1
        if self.failures >= FAILURE_THRESHOLD:
            self.state = OPEN
            self.opened_at = self._clock()
            self.trips += 1
            self.failures = 0

    def snapshot(self) -> dict:
        return {"state": self.state, "failures": self.failures,
                "trips": self.trips}


class BreakerBoard:
    """Breakers keyed by module key.  Only a key with failures on
    record has one: a breaker is made on a key's first failure and
    forgotten once it is closed with no failures, because a fresh
    breaker behaves the same."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def allow(self, key: str) -> bool:
        with self._lock:
            breaker = self._breakers.get(key)
            return breaker is None or breaker.allow()

    def record(self, key: str, failed: bool) -> None:
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                if not failed:
                    return
                breaker = self._breakers[key] = CircuitBreaker(self._clock)
            if failed:
                breaker.record_failure()
            else:
                breaker.record_success()
            if breaker.state == CLOSED and breaker.failures == 0:
                del self._breakers[key]

    def snapshot(self) -> Dict[str, dict]:
        with self._lock:
            return {
                key: breaker.snapshot()
                for key, breaker in sorted(self._breakers.items())
            }
