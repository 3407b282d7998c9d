"""Cell-spec derivation: (kind, payload) cells -> content-addressed keys.

Every eval and chaos cell planned by :mod:`repro.eval.parallel` maps to
a :class:`~repro.results.store.CellSpec` here.  The key is
:func:`repro.cache.result_cell_key` over:

* the MiniC **source** of the workload(s) the cell executes — editing
  a program orphans its cells, exactly like the artifact cache;
* the cell's **coordinates** (workload, variant, schedule-seed chunk,
  fault-seed chunk) — each slice of a sweep is its own cell;
* the cell's **config fingerprint** — the non-coordinate parameters
  (fault rate, watchdog deadline, heavy-baseline switch, ...) hashed
  separately and also stored as a column, so "same coordinates, new
  config" both misses the lookup *and* supersedes the stale row.

Interpreter backend and job count are deliberately excluded: reports
are byte-identical across both, so cells are shareable across them.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.cache import result_cell_key
from repro.results.store import CellSpec


def _sources_for(names: Sequence[str]) -> str:
    """The concatenated sources of *names*, in order (multi-workload
    cells depend on every program they run)."""
    from repro.workloads import get_workload

    return "\0".join(get_workload(name).source for name in names)


def _spec(
    kind: str,
    source: str,
    workload: str,
    variant: str,
    coords: Dict[str, object],
    config: Dict[str, object],
    schedule_seed: Optional[int] = None,
    fault_seed: Optional[int] = None,
) -> CellSpec:
    fingerprint = result_cell_key(source, {"kind": kind, **config})
    key = result_cell_key(source, {"kind": kind, **coords, **config})
    return CellSpec(
        key=key,
        kind=kind,
        workload=workload,
        variant=variant,
        schedule_seed=schedule_seed,
        fault_seed=fault_seed,
        fingerprint=fingerprint,
    )


def spec_for_cell(cell: Tuple[str, tuple]) -> CellSpec:
    """The :class:`CellSpec` identifying one eval/chaos cell."""
    kind, payload = cell
    if kind == "table1":
        (name,) = payload
        return _spec(kind, _sources_for([name]), name, "default",
                     {"workload": name}, {})
    if kind == "figure6":
        name, heavy = payload
        return _spec(kind, _sources_for([name]), name, "figure6",
                     {"workload": name}, {"heavy_baselines": bool(heavy)})
    if kind == "table2":
        (name,) = payload
        return _spec(kind, _sources_for([name]), name, "leak+noleak",
                     {"workload": name}, {})
    if kind == "table3":
        (name,) = payload
        return _spec(kind, _sources_for([name]), name, "table3",
                     {"workload": name}, {})
    if kind == "table4":
        name, start, stop = payload
        return _spec(kind, _sources_for([name]), name, "default",
                     {"workload": name, "start": start, "stop": stop}, {},
                     schedule_seed=start)
    if kind == "table5":
        (name,) = payload
        return _spec(kind, _sources_for([name]), name, "leak+noleak",
                     {"workload": name}, {})
    if kind == "mutation":
        strategy, names = payload
        return _spec(kind, _sources_for(names), "<study>", strategy,
                     {"strategy": strategy, "workloads": tuple(names)}, {})
    if kind == "chaos":
        name, seeds, rate, watchdog_deadline = payload
        return _spec(kind, _sources_for([name]), name, "chaos",
                     {"workload": name, "seeds": tuple(seeds)},
                     {"rate": rate, "watchdog_deadline": watchdog_deadline},
                     fault_seed=seeds[0] if seeds else None)
    raise ValueError(f"unknown cell kind {kind!r}")
