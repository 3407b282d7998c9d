"""Run the complete evaluation and produce an EXPERIMENTS-style report."""

from __future__ import annotations

from typing import List, Optional

from repro.eval.figure6 import render_figure6, run_figure6
from repro.eval.mutation_study import render_mutation_study, run_mutation_study
from repro.eval.table1 import render_table1, run_table1
from repro.eval.table2 import render_table2, run_table2
from repro.eval.table3 import render_table3, run_table3
from repro.eval.table4 import render_table4, run_table4


class EvalResult:
    """The combined report plus the ``--check-static`` verdict."""

    def __init__(self, report: str, static_ok: bool = True) -> None:
        self.report = report
        self.static_ok = static_ok

    def __str__(self) -> str:  # keeps ``print(run_all(...))`` callers working
        return self.report

    def __eq__(self, other: object) -> bool:
        # Callers predating check_static compare reports directly.
        if isinstance(other, EvalResult):
            return self.report == other.report
        if isinstance(other, str):
            return self.report == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.report)


def run_all(
    table4_runs: int = 100,
    verbose: bool = False,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: Optional[bool] = None,
    check_static: bool = False,
    table5_path: Optional[str] = None,
    store_path: Optional[str] = None,
) -> EvalResult:
    """Run every experiment; return the combined plain-text report.

    With ``jobs > 1`` the experiments fan out over a process pool
    (``repro.eval.parallel``); the report is byte-identical to the
    serial path for any job count.

    With ``store_path`` the run is **incremental** against the columnar
    results store (``repro.results``): every completed cell persists
    there keyed by its content address, cells whose key is already
    present are reused instead of re-executed (a warm re-run executes
    zero cells), and the invocation is recorded so ``repro report``
    re-renders the byte-identical report from the store alone.

    ``check_static=True`` appends Table 5 — every workload dual-executed
    with the static causality analysis installed as the engine's
    soundness oracle — and ``EvalResult.static_ok`` reports whether any
    dynamic detection escaped the static may-depend set.  Table 5 runs
    serially regardless of ``jobs``: each cell already reuses the cached
    instrumentation artifacts, and the oracle check must observe the
    exact detections of a normal engine run.  ``table5_path`` optionally
    writes the machine-readable JSON artifact for CI.
    """
    store = None
    if store_path is not None:
        from repro.results import ResultsStore

        store = ResultsStore(store_path)

    stats = {"planned": 0, "executed": 0, "reused": 0}
    if jobs > 1 or store is not None:
        from repro.eval.parallel import (
            TABLE4_CHUNK,
            assemble_report,
            plan_eval_cells,
            run_cells,
        )

        cells = plan_eval_cells(table4_runs, TABLE4_CHUNK)
        results, stats = run_cells(
            cells, jobs, cache_dir, use_cache, store=store, label="eval"
        )
        result = EvalResult(assemble_report(cells, results, table4_runs))
    else:
        sections: List[str] = []

        def add(text: str) -> None:
            sections.append(text)
            if verbose:
                print(text)
                print()

        add(render_table1(run_table1()))
        add(render_figure6(run_figure6()))
        add(render_table2(run_table2()))
        add(render_table3(run_table3()))
        add(render_table4(run_table4(runs=table4_runs), table4_runs))
        add(render_mutation_study(run_mutation_study()))
        result = EvalResult("\n\n\n".join(sections))

    if check_static:
        from repro.eval.table5 import (
            render_table5,
            run_table5,
            soundness_ok,
            table5_json,
        )

        if store is not None:
            from repro.eval.parallel import plan_table5_cells, run_cells

            table5_cells = plan_table5_cells()
            rows, table5_stats = run_cells(
                table5_cells, 1, cache_dir, use_cache, store=store,
                label="eval",
            )
            for name in stats:
                stats[name] += table5_stats[name]
        else:
            rows = run_table5()
        section = render_table5(rows)
        if verbose:
            print(section)
            print()
        result.report = result.report + "\n\n\n" + section
        result.static_ok = soundness_ok(rows)
        if table5_path:
            with open(table5_path, "w") as handle:
                handle.write(table5_json(rows))

    if store is not None:
        from repro.eval.parallel import TABLE4_CHUNK

        store.record_run(
            "eval",
            {
                "table4_runs": table4_runs,
                "table4_chunk": TABLE4_CHUNK,
                "check_static": check_static,
            },
            **stats,
        )
        store.close()
    return result


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run_all(verbose=False))
