"""The chaos harness — robustness evaluation under injected faults.

Sweeps deterministic transient-fault schedules (one per seed) across
the 28 workloads, running three variants per (workload, seed):

* **unmutated** — sources disabled, the two executions should agree;
* **leak**      — the Table 2 "Input 1" mutation, which must keep
  reporting causality (faults must never mask a real leak);
* **no-leak**   — the Table 2 "Input 2" mutation (when one exists),
  which must stay silent (faults must never fabricate a leak).

The robustness invariants, checked per run and summarized per
workload:

1. every dual run completes: no uncaught exceptions (the supervisor's
   ``engine_failures`` stays empty), no hangs (the watchdog bound is
   respected in virtual time);
2. deterministic (single-threaded) unmutated duals stay *fully
   coupled*: zero detections, zero syscall diffs, zero tainted
   resources — injected transient faults change timing, never
   outcomes;
3. lock-disciplined threaded workloads report no causality on
   unmutated inputs; the racy-sink pair (axel, x264 — the rows Table 4
   marks as varying run-to-run) is exempt from sink assertions since
   their races flip sinks even without faults;
4. every injected fault is accounted for in the degradation report.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import LdxConfig, SourceSpec
from repro.core.engine import run_dual
from repro.eval.parallel import CHAOS_CHUNK, Cell, plan_chaos_cells, run_cells
from repro.eval.reporting import format_table
from repro.vos.faults import FaultConfig
from repro.workloads import ALL_WORKLOADS, get_workload

# Sinks of these workloads legitimately vary run-to-run (low-level
# races reach the output; Table 4's "slightly varying" rows), so the
# chaos harness only asserts completion and degradation accounting.
RACY_SINKS = frozenset({"axel", "x264"})

DEFAULT_SEEDS = 50
DEFAULT_RATE = 0.1

# Violations rendered in full before the report switches to a count.
MAX_RENDERED_VIOLATIONS = 20


class ChaosRow:
    """One workload's aggregate results across the fault-seed sweep."""

    def __init__(self, name: str, threads: int) -> None:
        self.name = name
        self.threads = threads
        self.runs = 0
        self.faults_injected = 0
        self.retries = 0
        self.short_reads = 0
        self.lock_delays = 0
        self.degraded_runs = 0
        self.violations: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "ChaosRow") -> "ChaosRow":
        """Fold another chunk of the same workload's sweep into this row.

        Chunks must be merged in ascending seed order for the violation
        list (and thus the rendered report) to match a serial sweep.
        """
        if other.name != self.name:
            # A real error, not an assert: under ``python -O`` an assert
            # vanishes and a mis-planned merge would silently fold one
            # workload's counts into another's row.
            raise ValueError(
                f"cannot merge chaos row for workload {other.name!r} "
                f"into row for {self.name!r}"
            )
        self.runs += other.runs
        self.faults_injected += other.faults_injected
        self.retries += other.retries
        self.short_reads += other.short_reads
        self.lock_delays += other.lock_delays
        self.degraded_runs += other.degraded_runs
        self.violations.extend(other.violations)
        return self

    def as_list(self) -> List[object]:
        return [
            self.name,
            self.runs,
            self.faults_injected,
            self.retries,
            self.short_reads,
            self.lock_delays,
            self.degraded_runs,
            "ok" if self.ok else f"{len(self.violations)} VIOLATIONS",
        ]


HEADERS = [
    "Program",
    "runs",
    "faults",
    "retries",
    "short reads",
    "lock delays",
    "degraded",
    "invariants",
]


def _unmutated_config(config: LdxConfig) -> LdxConfig:
    return LdxConfig(sources=SourceSpec(), sinks=config.sinks, mutation=config.mutation)


def _absorb(row: ChaosRow, result) -> None:
    degradation = result.degradation
    row.runs += 1
    row.faults_injected += len(degradation.faults_injected)
    row.retries += degradation.retries
    row.short_reads += degradation.short_reads
    row.lock_delays += degradation.lock_delays
    if degradation.degraded:
        row.degraded_runs += 1


def _check_complete(row: ChaosRow, result, label: str) -> bool:
    if result.degradation.engine_failures:
        row.violations.append(f"{label}: engine failure {result.degradation.engine_failures}")
        return False
    if not (result.master.finished and result.slave.finished):
        row.violations.append(f"{label}: dual run did not complete")
        return False
    return True


def chaos_workload(
    name: str,
    seeds: Sequence[int],
    rate: float = DEFAULT_RATE,
    watchdog_deadline: float = 25_000.0,
) -> ChaosRow:
    """Run one workload's chaos sweep and check its invariants."""
    workload = get_workload(name)
    row = ChaosRow(name, workload.threads)
    unmutated = _unmutated_config(workload.config())
    racy = name in RACY_SINKS
    for seed in seeds:
        faults = FaultConfig(seed=seed, rate=rate)
        kwargs = dict(faults=faults, watchdog_deadline=watchdog_deadline)

        result = run_dual(
            workload.instrumented, workload.build_world(1), unmutated, **kwargs
        )
        _absorb(row, result)
        if _check_complete(row, result, f"unmutated seed {seed}") and not racy:
            if workload.threads == 1:
                if (
                    result.report.causality_detected
                    or result.report.syscall_diffs
                    or result.report.tainted_resources
                ):
                    row.violations.append(
                        f"unmutated seed {seed}: coupling broken "
                        f"({result.report.summary()})"
                    )
            elif result.report.causality_detected:
                row.violations.append(f"unmutated seed {seed}: false causality")

        result = run_dual(
            workload.instrumented,
            workload.build_world(1),
            workload.leak_variant(),
            **kwargs,
        )
        _absorb(row, result)
        if _check_complete(row, result, f"leak seed {seed}") and not racy:
            if not result.report.causality_detected:
                row.violations.append(f"leak seed {seed}: real leak masked by faults")

        noleak = workload.noleak_variant()
        if noleak is not None:
            result = run_dual(
                workload.instrumented, workload.build_world(1), noleak, **kwargs
            )
            _absorb(row, result)
            if _check_complete(row, result, f"noleak seed {seed}"):
                if result.report.causality_detected:
                    row.violations.append(
                        f"noleak seed {seed}: faults fabricated a leak"
                    )
    return row


def run_chaos(
    names: Optional[List[str]] = None,
    seeds: int = DEFAULT_SEEDS,
    rate: float = DEFAULT_RATE,
    watchdog_deadline: float = 25_000.0,
    jobs: int = 1,
    store=None,
    seed_chunk: int = CHAOS_CHUNK,
) -> List[ChaosRow]:
    """Sweep fault seeds across workloads; one row per workload.

    The sweep is planned as (workload, seed-chunk) cells and run by
    :func:`repro.eval.parallel.run_cells`: in process for one job, over
    a process pool for ``jobs > 1``.  With *store* (a
    :class:`repro.results.ResultsStore`) each finished cell persists as
    it streams back, cells already stored are reused instead of re-run —
    an interrupted sweep re-run with the same arguments executes only
    the missing cells — and the sweep is recorded for ``repro report
    --chaos``.  Cells merge in plan order, so the rows are
    byte-identical for any job count, chunk size or mix of reused and
    executed cells.
    """
    names = names or [workload.name for workload in ALL_WORKLOADS]
    cells = plan_chaos_cells(names, seeds, rate, watchdog_deadline, seed_chunk)
    results, stats = run_cells(cells, jobs, store=store, label="chaos")
    if store is not None and store.enabled:
        store.record_run(
            "chaos",
            {
                "names": list(names),
                "seeds": seeds,
                "rate": rate,
                "watchdog_deadline": watchdog_deadline,
                "seed_chunk": seed_chunk,
            },
            **stats,
        )
    return merge_chaos_rows(cells, results)


def merge_chaos_rows(
    cells: Sequence[Cell], chunk_rows: Sequence[ChaosRow]
) -> List[ChaosRow]:
    """Fold per-chunk rows into one row per workload, in plan order.

    Chunks were planned in seed order, so merging in plan order
    reproduces a one-chunk sweep's violation list exactly.
    """
    rows: List[ChaosRow] = []
    by_name: Dict[str, ChaosRow] = {}
    for (_kind, payload), chunk_row in zip(cells, chunk_rows):
        name = payload[0]
        if name not in by_name:
            by_name[name] = chunk_row
            rows.append(chunk_row)
        else:
            by_name[name].merge(chunk_row)
    return rows


def chaos_ok(rows: List[ChaosRow]) -> bool:
    return all(row.ok for row in rows)


def render_chaos(rows: List[ChaosRow], seeds: int, rate: float) -> str:
    text = format_table(
        HEADERS,
        [row.as_list() for row in rows],
        title=(
            f"Robustness: chaos sweep over {seeds} fault seeds "
            f"(rate {rate:.2f} per eligible syscall)"
        ),
    )
    total_faults = sum(row.faults_injected for row in rows)
    total_runs = sum(row.runs for row in rows)
    violations = [v for row in rows for v in row.violations]
    text += (
        f"\n\n{total_runs} dual runs, {total_faults} faults injected, "
        f"{len(violations)} invariant violations"
    )
    shown = violations[:MAX_RENDERED_VIOLATIONS]
    for violation in shown:
        text += f"\n  VIOLATION: {violation}"
    if len(violations) > len(shown):
        # No silent caps: say how much of the list the cut hides.
        text += f"\n  ... and {len(violations) - len(shown)} more violations"
    return text
