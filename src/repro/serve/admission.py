"""Admission control: a bounded FIFO queue with watermark shedding.

The daemon admits work through exactly one gate.  Three regimes, by
queue depth:

* **below the high watermark** (¾ of capacity) — everything is
  admitted;
* **at or above the high watermark** — *cold* requests (those whose
  artifact is not already cached, i.e. the expensive ones) are shed
  with an ``overloaded`` response and a ``retry_after`` hint, while
  warm requests still ride — load sheds the costly tail first;
* **at capacity** — everything is shed.  The queue never blocks a
  producer and never grows without bound, so backpressure is always
  explicit: a client sees ``overloaded``, not a hang.

Workers take entries in arrival order.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional


class Admitted:
    """One queue entry: the request plus its admission metadata."""

    __slots__ = ("request", "module_key", "warm", "enqueued_at")

    def __init__(self, request, module_key: str, warm: bool, enqueued_at: float) -> None:
        self.request = request
        self.module_key = module_key
        self.warm = warm
        self.enqueued_at = enqueued_at


class ShedReason:
    """Why an offer was refused (also the response's `reason` text)."""

    QUEUE_FULL = "queue full"
    WATERMARK_COLD = "high watermark: cold request shed"
    DRAINING = "draining: not admitting new work"


class AdmissionQueue:
    """Bounded, watermark-shedding FIFO request queue."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.high_watermark = max(1, capacity * 3 // 4)
        self._entries: deque = deque()
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._draining = False
        self._closed = False
        # Shed accounting, by reason.
        self.shed = {
            ShedReason.QUEUE_FULL: 0,
            ShedReason.WATERMARK_COLD: 0,
            ShedReason.DRAINING: 0,
        }
        self.admitted = 0

    # -- producer side ---------------------------------------------------------

    def offer(self, entry: Admitted) -> Optional[str]:
        """Admit *entry*, or return the shed reason (None = admitted)."""
        with self._lock:
            if self._draining or self._closed:
                self.shed[ShedReason.DRAINING] += 1
                return ShedReason.DRAINING
            depth = len(self._entries)
            if depth >= self.capacity:
                self.shed[ShedReason.QUEUE_FULL] += 1
                return ShedReason.QUEUE_FULL
            if depth >= self.high_watermark and not entry.warm:
                self.shed[ShedReason.WATERMARK_COLD] += 1
                return ShedReason.WATERMARK_COLD
            self._entries.append(entry)
            self.admitted += 1
            self._available.notify()
            return None

    # -- consumer side ---------------------------------------------------------

    def take(self, timeout: Optional[float] = None) -> Optional[Admitted]:
        """The oldest entry, or None on timeout / after close with an
        empty queue."""
        with self._lock:
            while not self._entries:
                if self._closed or self._draining:
                    return None
                if not self._available.wait(timeout):
                    return None
            return self._entries.popleft()

    # -- lifecycle -------------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting; queued entries remain to be drained."""
        with self._lock:
            self._draining = True
            self._available.notify_all()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._available.notify_all()

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def saturated(self) -> bool:
        """Readiness-probe input: at/above the high watermark."""
        with self._lock:
            return len(self._entries) >= self.high_watermark

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "depth": len(self._entries),
                "capacity": self.capacity,
                "high_watermark": self.high_watermark,
                "admitted": self.admitted,
                "shed": dict(self.shed),
                "draining": self._draining,
            }
