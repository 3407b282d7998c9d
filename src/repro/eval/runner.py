"""Run the complete evaluation and produce an EXPERIMENTS-style report."""

from __future__ import annotations

from typing import Optional

from repro.eval.parallel import (
    TABLE4_CHUNK,
    assemble_report,
    plan_eval_cells,
    run_cells,
    table5_rows,
)


class EvalResult:
    """The combined report plus the ``--check-static`` verdict."""

    def __init__(self, report: str, static_ok: bool = True) -> None:
        self.report = report
        self.static_ok = static_ok


def run_all(
    table4_runs: int = 100,
    jobs: int = 1,
    check_static: bool = False,
    table5_path: Optional[str] = None,
    store_path: Optional[str] = None,
) -> EvalResult:
    """Run every experiment; return the combined plain-text report.

    The evaluation is planned as independent cells
    (:func:`repro.eval.parallel.plan_eval_cells`), run by
    :func:`repro.eval.parallel.run_cells` — in process for one job, over
    a process pool for ``jobs > 1`` — and reassembled in plan order, so
    the report is byte-identical for any job count.

    With ``store_path`` the run is **incremental** against the columnar
    results store (``repro.results``): every completed cell persists
    there keyed by its content address, cells whose key is already
    present are reused instead of re-executed (a warm re-run executes
    zero cells), and the invocation is recorded so ``repro report``
    re-renders the byte-identical report from the store alone.

    ``check_static=True`` adds the Table 5 cells — every workload
    dual-executed with the static causality analysis installed as the
    engine's soundness oracle — to the same plan, and
    ``EvalResult.static_ok`` reports whether any dynamic detection
    escaped the static may-depend set.  ``table5_path`` optionally
    writes the machine-readable Table 5 JSON artifact for CI.
    """
    store = None
    if store_path is not None:
        from repro.results import ResultsStore

        store = ResultsStore(store_path)
    try:
        cells = plan_eval_cells(table4_runs, TABLE4_CHUNK, check_static)
        results, stats = run_cells(cells, jobs, store=store, label="eval")
        result = EvalResult(assemble_report(cells, results, table4_runs))
        if check_static:
            from repro.eval.table5 import soundness_ok, table5_json

            rows = table5_rows(cells, results)
            result.static_ok = soundness_ok(rows)
            if table5_path:
                with open(table5_path, "w") as handle:
                    handle.write(table5_json(rows))
        if store is not None:
            store.record_run(
                "eval",
                {
                    "table4_runs": table4_runs,
                    "table4_chunk": TABLE4_CHUNK,
                    "check_static": check_static,
                },
                **stats,
            )
    finally:
        if store is not None:
            store.close()
    return result
