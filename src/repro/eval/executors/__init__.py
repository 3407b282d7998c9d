"""Pluggable cell-execution backends for the eval/chaos fan-out.

See :mod:`repro.eval.executors.base` for the ``submit/stream/close``
contract and :mod:`.local` for the serial and process-pool backends.
"""

from repro.eval.executors.base import Cell, CellExecutor, ExecutorError
from repro.eval.executors.local import LocalPoolExecutor, SerialExecutor

__all__ = [
    "Cell",
    "CellExecutor",
    "ExecutorError",
    "LocalPoolExecutor",
    "SerialExecutor",
]
