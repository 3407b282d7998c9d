"""Host speed: a fixed pure-Python kernel timed all through a run.

The benchmark's times scale with how fast the host runs Python, and on
a shared host that speed drifts: on the 2-vCPU machine the baseline was
taken on, serve latency and this kernel both rose about 2x together for
minutes at a time (see "Noise" in README.md).  So every CPU-bound time
the benchmark gates is reported at a fixed reference speed: the raw
time multiplied by ``REFERENCE_MS / mean kernel time`` over the run.

A sampler process times the kernel (about 3 ms) every ``PERIOD_S``
while the run measures.  One sample lands in either of two speeds that
alternate within tens of milliseconds, so only the mean of many short
samples taken while the program runs tracks the speed the program saw.
The kernel lives here, outside ``src/``, so no change to the program
under test can make it faster or slower.

Run as a script, this file is the sampler: it prints one kernel time in
ms per line until its stdin closes.
"""

from __future__ import annotations

import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

# A round mean kernel time, in ms: the baseline machine's run means
# ranged from 1.8 to 3.2 ms.  Only a scale: both sides of a comparison
# divide by the same constant.
REFERENCE_MS = 3.0
# Time between samples: about a tenth of one CPU goes to the kernel.
PERIOD_S = 0.03
STOP_TIMEOUT_S = 10.0


def kernel() -> int:
    """Interpreter-bound work of a fixed size: dict updates, integer
    arithmetic and ``str`` conversions."""
    table: dict = {}
    total = 0
    for i in range(8000):
        key = i & 255
        table[key] = table.get(key, 0) + (i % 7)
        total += len(str(i))
    return total


class HostSpeed:
    """The sampler process for the duration of a ``with`` block, and
    the speed factor its samples give.  Samples go to *log_path*."""

    def __init__(self, log_path: Path) -> None:
        self._log_path = log_path
        self._proc: Optional[subprocess.Popen] = None
        self.samples_ms: List[float] = []

    def __enter__(self) -> "HostSpeed":
        with open(self._log_path, "wb") as log:
            self._proc = subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE, stdout=log
            )
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self.samples_ms = [float(line) for line in self._log_path.read_text().split()]

    def factor(self) -> float:
        """Multiply a raw time by this to get it at the reference speed."""
        if not self.samples_ms:
            raise RuntimeError(f"host-speed sampler left no samples in {self._log_path}")
        return REFERENCE_MS / statistics.mean(self.samples_ms)

    def extras(self) -> dict:
        return {
            "kernel_mean_ms": [statistics.mean(self.samples_ms), len(self.samples_ms)],
            "speed_factor": self.factor(),
        }


def sample_until_stdin_closes() -> None:
    """At least one sample, however short the ``with`` block was."""
    while True:
        start = time.perf_counter()
        kernel()
        print(f"{(time.perf_counter() - start) * 1000:.4f}", flush=True)
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            return


if __name__ == "__main__":
    sample_until_stdin_closes()
