"""Columnar results store + incremental reporting (``repro report``).

See :mod:`repro.results.store` for the storage model,
:mod:`repro.results.keys` for cell keying and
:mod:`repro.results.report` for the store-backed report renderers.
"""

from repro.results.keys import spec_for_cell
from repro.results.report import chaos_report_from_store, eval_report_from_store
from repro.results.store import (
    DEFAULT_STORE_PATH,
    CellSpec,
    ResultsError,
    ResultsStore,
)

__all__ = [
    "DEFAULT_STORE_PATH",
    "CellSpec",
    "ResultsError",
    "ResultsStore",
    "chaos_report_from_store",
    "eval_report_from_store",
    "spec_for_cell",
]
