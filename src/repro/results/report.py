"""``repro report`` — render tables straight from the results store.

Two views, both sub-second because nothing executes:

* the **eval report** — Tables 1-4, Figure 6 and the mutation study
  (plus Table 5 when the recorded run checked the static oracle),
  reassembled from stored cells byte-identically to the ``repro eval``
  run that produced them;
* the **chaos report** — the latest recorded chaos sweep's rows.

The eval and chaos views re-derive the exact cell plan from the
recorded run parameters and load each cell by key.  A missing cell is
a hard error naming the gap — a report must never silently render from
a partial store.
"""

from __future__ import annotations

from typing import List

from repro.results.store import ResultsError, ResultsStore


def _load_cells(store: ResultsStore, cells, what: str) -> List[object]:
    """Every cell's stored result, in plan order; raises on any gap."""
    from repro.eval.parallel import cell_key

    keys = [cell_key(cell) for cell in cells]
    found = store.get_cells(keys)
    missing = [cell for cell, key in zip(cells, keys) if key not in found]
    if missing:
        preview = ", ".join(
            f"{kind}:{payload[0]}" for kind, payload in missing[:5]
        )
        if len(missing) > 5:
            preview += ", ..."
        raise ResultsError(
            f"{len(missing)} of {len(cells)} {what} cells missing from "
            f"{store.path} ({preview}); run `repro {what} "
            f"--store-path {store.path}` to fill the store"
        )
    return [found[key] for key in keys]


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
