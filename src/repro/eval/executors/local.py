"""Single-host executors: in-process serial and the process pool.

Each executor takes its cells when constructed, yields ``(index,
result)`` pairs from :meth:`stream` in **completion order** (*index* is
the cell's position in the list it was given), and releases its
workers on :meth:`close`.  Streaming is the interrupt-safety contract:
the caller persists each completed cell the moment it arrives, so a
Ctrl-C never discards finished work.  Callers reassemble in plan order,
so completion order never leaks into reports.

:class:`SerialExecutor` runs each cell in the calling process and
yields it immediately — the backend for ``--jobs 1`` (an interrupt
loses at most the cell currently executing).

:class:`LocalPoolExecutor` is a :class:`ProcessPoolExecutor` whose
workers configure their process-global artifact cache and interpreter
backend once at spawn, then pull cells one at a time.  It streams
futures as they complete, so the caller can persist finished cells
while slower ones are still running.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.eval.parallel import Cell


class SerialExecutor:
    """Run cells in the calling process, one at a time, in plan order."""

    def __init__(self, cells: Sequence[Cell]) -> None:
        self._cells: List[Cell] = list(cells)

    def stream(self) -> Iterator[Tuple[int, object]]:
        from repro.eval.parallel import run_cell

        for index, cell in enumerate(self._cells):
            yield index, run_cell(cell)

    def close(self) -> None:
        """Nothing to release: cells run in the caller's process."""


class LocalPoolExecutor:
    """Fan cells out over a process pool on this machine.

    The pool is created lazily on the first :meth:`stream` call, so its
    workers inherit the cache/backend configuration current at run
    time, not at construction.
    """

    def __init__(self, cells: Sequence[Cell], jobs: int) -> None:
        self._cells: List[Cell] = list(cells)
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None

    def stream(self) -> Iterator[Tuple[int, object]]:
        from repro import cache
        from repro.eval.parallel import _worker_init, run_cell
        from repro.interp import get_default_backend, relevance_enabled

        parent_cache = cache.get_cache()
        self._pool = ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=_worker_init,
            initargs=(
                parent_cache.cache_dir, parent_cache.enabled,
                get_default_backend(), relevance_enabled(),
            ),
        )
        pending = {
            self._pool.submit(run_cell, cell): index
            for index, cell in enumerate(self._cells)
        }
        while pending:
            done, _running = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                yield pending.pop(future), future.result()

    def close(self) -> None:
        if self._pool is not None:
            # Abandon queued cells instead of waiting for them; running
            # workers finish their current cell and exit.
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
