"""Admission control: a bounded FIFO gate with watermark shedding.

Every request runs on the thread that received it, and enters through
exactly one gate.  At most ``slots`` requests run at once; later ones
wait in arrival order.  Three regimes, by the number waiting (the
depth):

* **below the high watermark** (¾ of capacity) — everything is
  admitted;
* **at or above the high watermark** — *cold* requests (those whose
  artifact is not already cached, i.e. the expensive ones) are shed
  with an ``overloaded`` response and a ``retry_after`` hint, while
  warm requests still ride — load sheds the costly tail first;
* **at capacity** — everything is shed.  The wait never grows without
  bound, so backpressure is always explicit: a client sees
  ``overloaded``, not a hang.

Once draining starts, new offers shed; a waiter already admitted still
runs.
"""

from __future__ import annotations

import threading
from typing import Optional


class ShedReason:
    """Why an offer was refused (also the response's `reason` text)."""

    QUEUE_FULL = "queue full"
    WATERMARK_COLD = "high watermark: cold request shed"
    DRAINING = "draining: not admitting new work"


class AdmissionQueue:
    """Bounded, watermark-shedding FIFO gate in front of ``slots``
    concurrent runs."""

    def __init__(self, capacity: int = 64, slots: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.high_watermark = max(1, capacity * 3 // 4)
        self.slots = max(1, slots)
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        # Turns in arrival order: admitted waiters hold the numbers
        # [_next_turn, _issued); the holder of _next_turn runs next.
        self._issued = 0
        self._next_turn = 0
        self._running = 0
        self._draining = False
        # Shed accounting, by reason.
        self.shed = {
            ShedReason.QUEUE_FULL: 0,
            ShedReason.WATERMARK_COLD: 0,
            ShedReason.DRAINING: 0,
        }
        self.admitted = 0

    def enter(self, warm: bool) -> Optional[str]:
        """Admit the caller and block until it may run, or return the
        shed reason at once.  None means admitted: the caller must
        :meth:`leave` when its run ends."""
        with self._lock:
            if self._draining:
                self.shed[ShedReason.DRAINING] += 1
                return ShedReason.DRAINING
            depth = self._issued - self._next_turn
            if depth >= self.capacity:
                self.shed[ShedReason.QUEUE_FULL] += 1
                return ShedReason.QUEUE_FULL
            if depth >= self.high_watermark and not warm:
                self.shed[ShedReason.WATERMARK_COLD] += 1
                return ShedReason.WATERMARK_COLD
            turn = self._issued
            self._issued += 1
            self.admitted += 1
            while turn != self._next_turn or self._running >= self.slots:
                self._changed.wait()
            self._next_turn += 1
            self._running += 1
            # The next in line may find a free slot too.
            self._changed.notify_all()
            return None

    def leave(self) -> None:
        """Release the slot an admitted caller ran in."""
        with self._lock:
            self._running -= 1
            self._changed.notify_all()

    def begin_drain(self) -> None:
        """Stop admitting; admitted waiters still run."""
        with self._lock:
            self._draining = True

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing runs or waits; False on timeout."""
        with self._lock:
            return self._changed.wait_for(
                lambda: self._running == 0 and self._issued == self._next_turn,
                timeout,
            )

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    @property
    def depth(self) -> int:
        with self._lock:
            return self._issued - self._next_turn

    @property
    def saturated(self) -> bool:
        """Readiness-probe input: at/above the high watermark."""
        return self.depth >= self.high_watermark

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "depth": self._issued - self._next_turn,
                "capacity": self.capacity,
                "high_watermark": self.high_watermark,
                "admitted": self.admitted,
                "shed": dict(self.shed),
                "draining": self._draining,
            }
