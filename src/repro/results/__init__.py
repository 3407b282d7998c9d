"""Results store + incremental reporting (``repro report``).

See :mod:`repro.results.store` for the storage model and
:mod:`repro.results.report` for the store-backed report renderers;
cells are keyed by :func:`repro.eval.parallel.cell_key`.
"""

from repro.results.report import chaos_report_from_store, eval_report_from_store
from repro.results.store import DEFAULT_STORE_PATH, ResultsError, ResultsStore

__all__ = [
    "DEFAULT_STORE_PATH",
    "ResultsError",
    "ResultsStore",
    "chaos_report_from_store",
    "eval_report_from_store",
]
