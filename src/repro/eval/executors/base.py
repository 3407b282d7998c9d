"""The executor interface: *where* eval/chaos cells run.

:mod:`repro.eval.parallel` decomposes every experiment into
deterministic cells; this package decides where those cells execute.
The contract is deliberately tiny — three methods — so a backend can
be anything from a plain in-process loop to a fan-out across machines
without the planners or the results store caring:

* :meth:`CellExecutor.submit` opens a **round**: the executor takes
  ownership of a cell list.  A new round may start once the previous
  one is drained.
* :meth:`CellExecutor.stream` yields ``(index, result)`` pairs in
  **completion order**, where *index* is the cell's position in the
  submitted list.  Streaming is the interrupt-safety contract: the
  caller persists each completed cell the moment it arrives, so a
  Ctrl-C never discards finished work.  Callers reassemble in plan
  order, so completion order never leaks into reports.
* :meth:`CellExecutor.close` releases workers.  It is idempotent and
  safe mid-round (the round is abandoned).

Backends: :class:`~repro.eval.executors.local.SerialExecutor` (in
process) and :class:`~repro.eval.executors.local.LocalPoolExecutor`
(a process pool on this machine); ``--jobs`` picks between them in
:func:`repro.eval.parallel.run_cells`.  Both produce byte-identical
reports: cells are pure functions of their spec.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from repro.errors import ReproError

# A cell is (kind, payload-of-primitives); see repro.eval.parallel.
Cell = Tuple[str, tuple]


class ExecutorError(ReproError):
    """An executor could not run its cells (bad spec, round misuse)."""


class CellExecutor:
    """Abstract cell-execution backend; see the module docstring."""

    def submit(self, cells: Sequence[Cell]) -> None:
        """Open a round over *cells* (the previous round must be drained)."""
        raise NotImplementedError

    def stream(self) -> Iterator[Tuple[int, object]]:
        """Yield ``(index, result)`` in completion order until the
        round is drained."""
        raise NotImplementedError

    def close(self) -> None:
        """Release workers; idempotent, safe mid-round."""

    def __enter__(self) -> "CellExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
