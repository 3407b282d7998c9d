"""The eval path: every report is plan → :func:`run_cells` → assemble.

Every experiment in the harness decomposes into independent cells:

* Table 1 / Figure 6 / Table 2 / Table 3 / Table 5 — one cell per
  workload;
* Table 4 — one cell per (workload, chunk of seeded runs): the
  schedule seeds are a pure function of the run index, so any chunk
  reproduces its slice of the whole sweep exactly;
* the mutation study — one cell per strategy (the stateful ``random``
  mutator's RNG stream flows across workloads *within* a strategy, so
  a strategy is the smallest split that preserves its results);
* the chaos sweep — one cell per (workload, chunk of fault seeds).

Cells are plain tuples of primitives.  Workers rebuild everything they
need — the workload, its :class:`World`, seeds, fault plans — from the
cell spec via the registry, so no mutable state crosses process
boundaries; the only shared objects are immutable instrumentation
artifacts served by :mod:`repro.cache` (each worker holds its own
cache instance, warmed from the same on-disk layer when one is
configured).

*Where* cells run is an executor (:mod:`repro.eval.executors`):
:func:`run_cells` — the one stream loop, with or without a results
store — runs them in process for one job and over a process pool
otherwise.  Executors stream ``(index, result)`` pairs back in
completion order; :func:`run_cells` persists each completed cell in the
results store the moment it arrives and reassembles **in plan order**,
so the rendered report is byte-identical for any job count or
interleaving, and an interrupt never discards finished work —
re-running the same command reuses every persisted cell.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple

# A cell is (kind, payload-of-primitives); see _CELL_RUNNERS.
Cell = Tuple[str, tuple]

# Runs per Table 4 cell / fault seeds per chaos cell.  Small enough to
# load-balance across workers, large enough to amortize task dispatch.
TABLE4_CHUNK = 10
CHAOS_CHUNK = 5


# -- cell execution (runs inside pool workers) ---------------------------------


def _worker_init(
    cache_dir: Optional[str], cache_enabled: bool, backend: str,
    relevance: bool,
) -> None:
    """Configure the worker's process-global artifact cache and
    interpreter backend.

    Workers spawned fresh (no fork inheritance) warm up from the
    on-disk layer instead of re-lowering every workload, and inherit
    the parent's dispatch strategy so an ``--interp-backend`` or
    ``--no-relevance`` choice applies to every cell regardless of
    --jobs.
    """
    from repro import cache
    from repro.interp import set_default_backend, set_relevance_enabled

    cache.configure(cache_dir=cache_dir, enabled=cache_enabled)
    set_default_backend(backend)
    set_relevance_enabled(relevance)


def _cell_table1(name: str):
    from repro.eval.table1 import measure_workload

    return measure_workload(name)


def _cell_figure6(name: str, with_heavy_baselines: bool):
    from repro.eval.figure6 import measure_workload

    return measure_workload(name, with_heavy_baselines)


def _cell_table2(name: str):
    from repro.eval.table2 import measure_workload

    return measure_workload(name)


def _cell_table3(name: str):
    from repro.eval.table3 import measure_workload

    return measure_workload(name)


def _cell_table4(name: str, start: int, stop: int):
    from repro.eval.table4 import measure_run

    return [measure_run(name, run) for run in range(start, stop)]


def _cell_mutation(strategy: str, names: Tuple[str, ...]):
    from repro.eval.mutation_study import run_strategy

    return run_strategy(strategy, list(names))


def _cell_chaos(
    name: str, seeds: Tuple[int, ...], rate: float, watchdog_deadline: float
):
    from repro.eval.robustness import chaos_workload

    return chaos_workload(name, seeds, rate, watchdog_deadline)


def _cell_table5(name: str):
    from repro.eval.table5 import measure_workload

    return measure_workload(name)


def _cell_serve_baseline(
    name: str, seed: int, deadline: float, fault_seed: int, fault_rate: float
):
    from repro.eval.serve_chaos import baseline_for

    return baseline_for(name, seed, deadline, fault_seed, fault_rate)


def _cell_serve_faultfree(name: str, seed: int):
    from repro.eval.serve_chaos import faultfree_baseline

    return faultfree_baseline(name, seed)


_CELL_RUNNERS = {
    "table1": _cell_table1,
    "figure6": _cell_figure6,
    "table2": _cell_table2,
    "table3": _cell_table3,
    "table4": _cell_table4,
    "table5": _cell_table5,
    "mutation": _cell_mutation,
    "chaos": _cell_chaos,
    "serve_baseline": _cell_serve_baseline,
    "serve_faultfree": _cell_serve_faultfree,
}


def run_cell(cell: Cell):
    """Execute one cell (the task function of every executor)."""
    kind, payload = cell
    return _CELL_RUNNERS[kind](*payload)


# -- scheduling ----------------------------------------------------------------


def _executor_for(cells: Sequence[Cell], jobs: int):
    """The one executor choice: in process for one job or one cell, a
    local process pool otherwise."""
    from repro.eval.executors import LocalPoolExecutor, SerialExecutor

    if jobs <= 1 or len(cells) <= 1:
        return SerialExecutor(cells)
    return LocalPoolExecutor(cells, jobs=min(jobs, len(cells)))


def run_cells(
    cells: Sequence[Cell],
    jobs: int,
    store=None,
    label: str = "eval",
) -> Tuple[List[object], Dict[str, int]]:
    """Run *cells*; results in cell order regardless of completion order.

    With a results *store*, cells whose content-address key is already
    present are served from it; only absent (or superseded-fingerprint)
    cells execute, and every freshly executed cell **persists the
    moment its result streams back** — an interrupt mid-run keeps every
    finished cell, and re-running the same command reuses them.  The
    {planned, executed, reused} counts are returned and, with a store,
    printed to stderr — CI greps that line to prove a warm re-run
    executed zero cells.  With no (or a disabled) store every cell is a
    miss and nothing is written.
    """
    if store is not None and not store.enabled:
        store = None
    results: List[object] = [None] * len(cells)
    if store is not None:
        from repro.results import spec_for_cell

        specs = [spec_for_cell(cell) for cell in cells]
        found = store.get_cells([spec.key for spec in specs])
        results = [found.get(spec.key) for spec in specs]
    miss_indices = [i for i, result in enumerate(results) if result is None]
    reused = len(cells) - len(miss_indices)
    executed = 0
    if miss_indices:
        executor = _executor_for([cells[i] for i in miss_indices], jobs)
        try:
            for position, result in executor.stream():
                index = miss_indices[position]
                results[index] = result
                if store is not None:
                    store.put_cell(specs[index], result)
                executed += 1
        except KeyboardInterrupt:
            # Every cell that finished is already in the store; account
            # for the partial run before re-raising so the user knows
            # what a re-run will reuse.
            if store is not None:
                print(
                    f"{label}: results store: interrupted — {executed} "
                    f"executed, {reused} reused of {len(cells)} cells "
                    f"persisted ({store.path})",
                    file=sys.stderr,
                )
            raise
        finally:
            # Abandons queued cells on an interrupt instead of awaiting them.
            executor.close()
    stats = {
        "planned": len(cells),
        "executed": len(miss_indices),
        "reused": reused,
    }
    if store is not None:
        print(
            f"{label}: results store: {stats['executed']} executed, "
            f"{stats['reused']} reused of {stats['planned']} cells "
            f"({store.path})",
            file=sys.stderr,
        )
    return results, stats


def _chunks(count: int, size: int) -> List[Tuple[int, int]]:
    return [(start, min(start + size, count)) for start in range(0, count, size)]


def plan_eval_cells(
    table4_runs: int = 100,
    table4_chunk: int = TABLE4_CHUNK,
    check_static: bool = False,
) -> List[Cell]:
    """Decompose the full evaluation into independent cells.

    Cell order is the reassembly order: table order, then workload
    order, then run order.  ``check_static`` appends the Table 5 cells.
    """
    from repro.eval.mutation_study import STUDY_WORKLOADS, strategies_under_study
    from repro.workloads import (
        ALL_WORKLOADS,
        PERF_SUBSET,
        TABLE2_SUBSET,
        TABLE3_SUBSET,
        workloads_by_category,
    )

    cells: List[Cell] = []
    cells += [("table1", (w.name,)) for w in ALL_WORKLOADS]
    cells += [("figure6", (name, True)) for name in PERF_SUBSET]
    cells += [("table2", (name,)) for name in TABLE2_SUBSET]
    cells += [("table3", (name,)) for name in TABLE3_SUBSET]
    for workload in workloads_by_category("concurrency"):
        for start, stop in _chunks(table4_runs, table4_chunk):
            cells.append(("table4", (workload.name, start, stop)))
    for strategy in strategies_under_study():
        cells.append(("mutation", (strategy, tuple(STUDY_WORKLOADS))))
    if check_static:
        cells += plan_table5_cells()
    return cells


def plan_table5_cells(names: Optional[List[str]] = None) -> List[Cell]:
    """One Table 5 cell per workload, in ``run_table5`` order."""
    from repro.workloads import ALL_WORKLOADS

    names = names or [w.name for w in ALL_WORKLOADS]
    return [("table5", (name,)) for name in names]


def plan_chaos_cells(
    names: List[str],
    seeds: int,
    rate: float,
    watchdog_deadline: float,
    seed_chunk: int = CHAOS_CHUNK,
) -> List[Cell]:
    """Decompose a chaos sweep into (workload, seed-chunk) cells.

    Cell order is the merge order; it reproduces the serial sweep.
    """
    cells: List[Cell] = []
    for name in names:
        for start, stop in _chunks(seeds, seed_chunk):
            cells.append(
                ("chaos", (name, tuple(range(start, stop)), rate, watchdog_deadline))
            )
    return cells


def assemble_report(
    cells: Sequence[Cell], results: Sequence[object], table4_runs: int
) -> str:
    """Reassemble per-cell results into the report, byte for byte.

    Table 5 is rendered when the plan holds table5 cells.
    """
    from repro.eval.figure6 import render_figure6
    from repro.eval.mutation_study import render_mutation_study
    from repro.eval.table1 import render_table1
    from repro.eval.table2 import render_table2
    from repro.eval.table3 import render_table3
    from repro.eval.table4 import Table4Row, render_table4

    by_kind: Dict[str, List[Tuple[tuple, object]]] = {}
    for (kind, payload), result in zip(cells, results):
        by_kind.setdefault(kind, []).append((payload, result))

    table4_rows: List[Table4Row] = []
    order: List[str] = []
    per_name: Dict[str, List[Tuple[int, int]]] = {}
    for (name, _start, _stop), chunk in by_kind.get("table4", []):
        if name not in per_name:
            per_name[name] = []
            order.append(name)
        per_name[name].extend(chunk)  # cells arrive in run order
    for name in order:
        measurements = per_name[name]
        table4_rows.append(
            Table4Row(
                name,
                [diff for diff, _sink in measurements],
                [sink for _diff, sink in measurements],
            )
        )

    outcomes = {
        payload[0]: result for payload, result in by_kind.get("mutation", [])
    }

    sections = [
        render_table1([r for _p, r in by_kind.get("table1", [])]),
        render_figure6([r for _p, r in by_kind.get("figure6", [])]),
        render_table2([r for _p, r in by_kind.get("table2", [])]),
        render_table3([r for _p, r in by_kind.get("table3", [])]),
        render_table4(table4_rows, table4_runs),
        render_mutation_study(outcomes),
    ]
    if "table5" in by_kind:
        from repro.eval.table5 import render_table5

        sections.append(render_table5(table5_rows(cells, results)))
    return "\n\n\n".join(sections)


def table5_rows(cells: Sequence[Cell], results: Sequence[object]) -> list:
    """The Table 5 rows among *results*, in plan order."""
    return [
        result for (kind, _payload), result in zip(cells, results)
        if kind == "table5"
    ]
