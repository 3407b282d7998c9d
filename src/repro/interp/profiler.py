"""The opcode profiler and its reports.

:class:`OpcodeProfiler` is a machine :class:`~repro.interp.machine.Observer`
that records, per opcode, how many instructions executed and how much
virtual time their execution charged (the instruction cost plus any
edge actions applied on the instruction's outgoing transfer; barrier
waits resumed later by the driver are not attributed).  An observed
machine runs one instruction per step on either backend, so both
backends produce bit-identical histograms — the profile is a property
of the execution, not of the dispatch strategy.  ``run_native``, the
LDX engine and the CLI build one per machine when asked to profile.

The rest of this module turns those histograms into the
``repro profile`` top-N text report and the JSON artifact.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.interp.machine import MachineStats, Observer


class OpcodeProfiler(Observer):
    """Fills the observed machine's per-opcode histograms."""

    def attach(self, machine) -> None:
        stats = machine.stats
        self.counts = stats.opcode_counts = defaultdict(int)
        self.times = stats.opcode_time = defaultdict(float)
        self.elided = stats.opcode_elided = defaultdict(int)
        # Per-function elidable index sets (which executed instructions
        # the relevance pass would let a backend skip counter work for).
        relevance = getattr(machine.plan, "relevance", None)
        self.elidable: Optional[Dict[str, FrozenSet[int]]] = (
            {name: fn.elidable for name, fn in relevance.functions.items()}
            if relevance is not None
            else None
        )

    def on_instruction(self, thread, frame, instr) -> None:
        opname = instr.opname
        self.counts[opname] += 1
        if self.elidable is not None:
            fn_elidable = self.elidable.get(frame.function.name)
            if fn_elidable is not None and frame.index in fn_elidable:
                self.elided[opname] += 1

    def on_step(self, instr, vtime: float) -> None:
        self.times[instr.opname] += vtime


def profile_rows(stats: MachineStats) -> List[Tuple[str, int, float, int]]:
    """(opcode, count, virtual_time, elided) rows, busiest first.

    Sorted by count, then virtual time, then name, so the report is
    deterministic even for opcodes that tie.  ``elided`` counts the
    executed instructions of that opcode the sink-relevance pass
    classified outcome-irrelevant (zero without a relevance-carrying
    plan).
    """
    if not stats.profiled:
        return []
    counts = stats.opcode_counts
    times = stats.opcode_time
    elided = stats.opcode_elided or {}
    return sorted(
        (
            (op, counts[op], times.get(op, 0.0), elided.get(op, 0))
            for op in counts
        ),
        key=lambda row: (-row[1], -row[2], row[0]),
    )


def render_profile(stats: MachineStats, title: str, top: int = 10) -> str:
    """A top-N text table for one machine's opcode histogram."""
    rows = profile_rows(stats)
    lines = [f"{title} — {stats.instructions} instructions"]
    if not rows:
        lines.append("  (no profile recorded — run with profiling enabled)")
        return "\n".join(lines)
    total_count = sum(count for _op, count, _t, _e in rows)
    total_time = sum(time for _op, _count, time, _e in rows)
    lines.append(
        f"  {'opcode':<12} {'count':>10} {'%':>6}   {'vtime':>12} {'%':>6}"
        f"   {'elided':>7}"
    )
    for op, count, time, elided in rows[:top]:
        count_share = 100.0 * count / total_count if total_count else 0.0
        time_share = 100.0 * time / total_time if total_time else 0.0
        elided_share = 100.0 * elided / count if count else 0.0
        lines.append(
            f"  {op:<12} {count:>10} {count_share:>5.1f}%   "
            f"{time:>12.2f} {time_share:>5.1f}%   {elided_share:>6.1f}%"
        )
    hidden = len(rows) - min(top, len(rows))
    if hidden > 0:
        lines.append(f"  ... {hidden} more opcode(s)")
    return "\n".join(lines)


def profile_payload(stats: MachineStats) -> Dict[str, object]:
    """JSON-ready summary of one machine's histogram."""
    return {
        "instructions": stats.instructions,
        "edge_actions": stats.edge_actions,
        "syscalls": stats.syscalls,
        "barriers": stats.barriers,
        "opcodes": {
            op: {"count": count, "vtime": time, "elided": elided}
            for op, count, time, elided in profile_rows(stats)
        },
    }


def render_profiles(
    sections: List[Tuple[str, MachineStats]], top: int = 10
) -> str:
    """Concatenated reports for several executions (native/master/slave)."""
    return "\n\n".join(render_profile(stats, title, top) for title, stats in sections)


def profiles_payload(
    sections: List[Tuple[str, MachineStats]],
    workload: Optional[str] = None,
    backend: Optional[str] = None,
) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "schema": "ldx-profile-v2",
        "executions": {title: profile_payload(stats) for title, stats in sections},
    }
    if workload is not None:
        payload["workload"] = workload
    if backend is not None:
        payload["backend"] = backend
    return payload
