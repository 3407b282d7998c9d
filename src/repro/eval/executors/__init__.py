"""Cell-execution backends for the eval/chaos fan-out.

See :mod:`.local` for the serial and process-pool backends and their
``stream/close`` contract; :func:`repro.eval.parallel.run_cells` picks
one from ``--jobs``.
"""

from repro.eval.executors.local import LocalPoolExecutor, SerialExecutor

__all__ = ["LocalPoolExecutor", "SerialExecutor"]
