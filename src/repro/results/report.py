"""``repro report`` — render tables straight from the results store.

Three views, all sub-second because nothing executes:

* the **eval report** — Tables 1-4, Figure 6 and the mutation study
  (plus Table 5 when the recorded run checked the static oracle),
  reassembled from stored cells byte-identically to the ``repro eval``
  run that produced them;
* the **chaos report** — the latest recorded chaos sweep's rows;
* the **trend view** — every (bench, metric) series from the
  benchmark history, first/last/best/worst per series: the perf
  trajectory over runs as a query.

The eval and chaos views re-derive the exact cell plan from the
recorded run parameters and load each cell by key.  A missing cell is
a hard error naming the gap — a report must never silently render from
a partial store.
"""

from __future__ import annotations

from typing import List, Optional

from repro.eval.reporting import format_table
from repro.results.keys import spec_for_cell
from repro.results.store import ResultsError, ResultsStore


def _load_cells(store: ResultsStore, cells, what: str) -> List[object]:
    """Every cell's stored result, in plan order; raises on any gap."""
    specs = [spec_for_cell(cell) for cell in cells]
    found = store.get_cells([spec.key for spec in specs])
    results = [found.get(spec.key) for spec in specs]
    missing = [
        spec for spec, result in zip(specs, results) if result is None
    ]
    if missing:
        preview = ", ".join(
            f"{spec.kind}:{spec.workload}" for spec in missing[:5]
        )
        if len(missing) > 5:
            preview += ", ..."
        raise ResultsError(
            f"{len(missing)} of {len(specs)} {what} cells missing from "
            f"{store.path} ({preview}); run `repro {what} "
            f"--store-path {store.path}` to fill the store"
        )
    return results


def eval_report_from_store(store: ResultsStore) -> str:
    """The full eval report, byte-identical to the recorded run."""
    from repro.eval.parallel import (
        TABLE4_CHUNK,
        assemble_report,
        plan_eval_cells,
    )

    run = store.latest_run("eval")
    if run is None:
        raise ResultsError(
            f"no eval run recorded in {store.path}; run `repro eval "
            f"--store-path {store.path}` first"
        )
    params = run["params"]
    table4_runs = int(params.get("table4_runs", 100))
    cells = plan_eval_cells(
        table4_runs,
        int(params.get("table4_chunk", TABLE4_CHUNK)),
        bool(params.get("check_static")),
    )
    results = _load_cells(store, cells, "eval")
    return assemble_report(cells, results, table4_runs)


def chaos_report_from_store(store: ResultsStore) -> str:
    """The latest recorded chaos sweep, re-rendered from its cells."""
    from repro.eval.parallel import CHAOS_CHUNK, plan_chaos_cells
    from repro.eval.robustness import merge_chaos_rows, render_chaos

    run = store.latest_run("chaos")
    if run is None:
        raise ResultsError(
            f"no chaos run recorded in {store.path}; run `repro chaos "
            f"--store-path {store.path}` first"
        )
    params = run["params"]
    cells = plan_chaos_cells(
        names=list(params["names"]),
        seeds=int(params["seeds"]),
        rate=float(params["rate"]),
        watchdog_deadline=float(params["watchdog_deadline"]),
        seed_chunk=int(params.get("seed_chunk", CHAOS_CHUNK)),
    )
    rows = merge_chaos_rows(cells, _load_cells(store, cells, "chaos"))
    return render_chaos(rows, int(params["seeds"]), float(params["rate"]))


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def trend_report(store: ResultsStore, bench: Optional[str] = None) -> str:
    """The perf trajectory: one row per recorded (bench, metric)."""
    series = store.bench_series(bench)
    if not series:
        scope = f" for {bench!r}" if bench else ""
        raise ResultsError(
            f"no benchmark history{scope} in {store.path}; benchmark runs "
            "and `repro serve-chaos` record samples automatically"
        )
    rows = []
    for entry in series:
        values = entry["values"]
        first, last = values[0], values[-1]
        if first:
            delta = f"{(last - first) / abs(first) * 100.0:+.1f}%"
        else:
            # No percentage from a zero baseline; don't fake +0.0%.
            delta = "n/a" if last != first else "+0.0%"
        rows.append([
            entry["bench"],
            entry["metric"],
            len(values),
            _fmt(first),
            _fmt(last),
            _fmt(min(values)),
            _fmt(max(values)),
            delta,
        ])
    return format_table(
        ["Bench", "Metric", "Samples", "First", "Last", "Min", "Max", "Delta"],
        rows,
        title="Perf trajectory: benchmark history over recorded runs",
    )
