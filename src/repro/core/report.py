"""Causality detection records and the dual-execution result."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import DegradedResult

# Detection kinds, mirroring the cases in Algorithm 2's discussion:
SINK_MISSING_IN_SLAVE = "sink-missing-in-slave"  # case 1
SINK_DIFFERENT_SYSCALL = "sink-different-syscall"  # case 2
SINK_ARGS_DIFFER = "sink-args-differ"  # case 3
SINK_ONLY_IN_SLAVE = "sink-only-in-slave"  # symmetric to case 1


class Detection:
    """One causality detection at a sink."""

    __slots__ = ("kind", "counter", "syscall", "master_args", "slave_args", "where")

    def __init__(
        self,
        kind: str,
        counter,
        syscall: str,
        master_args: Optional[tuple],
        slave_args: Optional[tuple],
        where: str,
    ) -> None:
        self.kind = kind
        self.counter = counter
        self.syscall = syscall
        self.master_args = master_args
        self.slave_args = slave_args
        self.where = where

    def __repr__(self) -> str:
        return f"<Detection {self.kind} {self.syscall}@{self.counter} in {self.where}>"


class CausalityReport:
    """Everything observed during one dual execution."""

    def __init__(self) -> None:
        self.detections: List[Detection] = []
        # Misaligned non-sink syscalls (Table 2's "# of syscall diffs").
        self.syscall_diffs = 0
        # Sink events observed in the master (Table 3's "total sinks").
        self.sinks_total = 0
        self.mutated_source_reads = 0
        self.tainted_resources: List[str] = []
        self.tainted_locks = 0
        self.stall_breaks = 0
        # (role, message) for executions that died on a runtime error.
        self.crashes: List[Tuple[str, str]] = []
        # Detections the static may-depend oracle rejects (only
        # populated when the engine runs with a static_oracle).  A
        # sound static analysis over-approximates the engine, so any
        # entry here is an engine bug, not a program property.
        self.soundness_violations: List[str] = []

    @property
    def causality_detected(self) -> bool:
        return bool(self.detections)

    @property
    def sequence_diffs(self) -> int:
        """All syscall-sequence divergences, including sink events that
        exist in only one execution (Table 2's diff counting)."""
        sequence_kinds = (
            SINK_MISSING_IN_SLAVE,
            SINK_ONLY_IN_SLAVE,
            SINK_DIFFERENT_SYSCALL,
        )
        divergent_sinks = sum(
            1 for d in self.detections if d.kind in sequence_kinds
        )
        return self.syscall_diffs + divergent_sinks

    @property
    def tainted_sinks(self) -> int:
        """Number of sink events with cross-execution differences."""
        return len(self.detections)

    def add(self, detection: Detection) -> None:
        self.detections.append(detection)

    def summary(self) -> str:
        verdict = "CAUSALITY" if self.causality_detected else "no causality"
        return (
            f"{verdict}: {self.tainted_sinks}/{self.sinks_total} sinks differ, "
            f"{self.syscall_diffs} syscall diffs, "
            f"{len(self.tainted_resources)} tainted resources"
        )


class DegradationReport:
    """Self-healing bookkeeping for one dual execution.

    Present on every :class:`DualResult`; empty for a clean run.  It
    records what the fault-injection layer did (injected faults, retry
    work, short-read completions, lock delays), what the watchdog did
    (fires, abandoned threads), and anything the supervisor had to
    swallow — so a caller can always tell which causality verdicts
    remain trustworthy.
    """

    def __init__(self) -> None:
        # (role, syscall, errno) per injected fault.
        self.faults_injected: List[Tuple[str, str, str]] = []
        self.retries = 0
        self.short_reads = 0
        self.lock_delays = 0
        # (role, syscall) for faults that outlasted the retry budget.
        self.exhausted_syscalls: List[Tuple[str, str]] = []
        self.watchdog_fires = 0
        # (role, tid, reason) per thread the watchdog gave up on.
        self.abandoned_threads: List[Tuple[str, int, str]] = []
        # (role, cap) per machine whose instruction budget ran out —
        # the run was cut short by its deadline, not by program logic.
        self.budget_exhausted: List[Tuple[str, int]] = []
        # Errors the supervisor converted into a degraded result.
        self.engine_failures: List[str] = []
        # Resources no longer coupled once degradation set in.
        self.decoupled_resources: List[str] = []

    @property
    def faults_masked(self) -> int:
        """Injected faults fully hidden by retry/continuation."""
        return len(self.faults_injected) - len(self.exhausted_syscalls)

    @property
    def degraded(self) -> bool:
        """True when any fault escaped the self-healing layer."""
        return bool(
            self.exhausted_syscalls
            or self.abandoned_threads
            or self.engine_failures
            or self.budget_exhausted
        )

    @property
    def verdict_confidence(self) -> str:
        """Which causality verdicts remain trustworthy.

        ``full``     — every verdict stands (all faults masked);
        ``degraded`` — verdicts touching decoupled resources weakened
                       (some syscalls surfaced errno failures);
        ``partial``  — one side did not complete normally; only the
                       detections already recorded are meaningful.
        """
        if self.engine_failures or self.abandoned_threads or self.budget_exhausted:
            return "partial"
        if self.exhausted_syscalls:
            return "degraded"
        return "full"

    def summary(self) -> str:
        text = (
            f"confidence={self.verdict_confidence}: "
            f"{len(self.faults_injected)} faults injected "
            f"({self.faults_masked} masked, {self.retries} retries, "
            f"{self.short_reads} short reads, {self.lock_delays} lock delays), "
            f"{len(self.exhausted_syscalls)} exhausted, "
            f"{self.watchdog_fires} watchdog fires, "
            f"{len(self.abandoned_threads)} threads abandoned, "
            f"{len(self.engine_failures)} engine failures"
        )
        # Only mentioned when present, so summaries of runs within
        # budget stay byte-identical to earlier versions.
        if self.budget_exhausted:
            text += f", {len(self.budget_exhausted)} budgets exhausted"
        return text


class FsDivergence:
    """A filesystem-state difference found by offline differencing."""

    __slots__ = ("path", "kind", "master", "slave")

    def __init__(self, path: str, kind: str, master, slave) -> None:
        self.path = path
        self.kind = kind  # "content" | "metadata" | "only-in-master" | "only-in-slave"
        self.master = master
        self.slave = slave

    def __repr__(self) -> str:
        return f"<FsDivergence {self.kind} {self.path}>"


class DualResult:
    """Outcome of a complete LDX dual execution."""

    def __init__(
        self,
        master,
        slave,
        report: CausalityReport,
        degradation: Optional[DegradationReport] = None,
    ) -> None:
        self.master = master  # Machine
        self.slave = slave  # Machine
        self.report = report
        self.degradation = degradation if degradation is not None else DegradationReport()

    def raise_if_degraded(self) -> "DualResult":
        """Guard for callers that require full-confidence verdicts."""
        if self.degradation.degraded:
            raise DegradedResult(self.degradation.summary())
        return self

    @property
    def dual_time(self) -> float:
        """Wall time with master and slave on separate CPUs."""
        return max(self.master.time, self.slave.time)

    @property
    def master_stdout(self) -> str:
        return "".join(self.master.kernel.stdout)

    @property
    def slave_stdout(self) -> str:
        return "".join(self.slave.kernel.stdout)

    def fs_divergences(self, include_metadata: bool = False) -> List[FsDivergence]:
        """Offline filesystem differencing — an *extension* beyond the
        paper's online sink comparison.

        The paper's limitations section notes that leaks through file
        metadata (e.g. modification times) are future work; with
        ``include_metadata=True`` this reports exactly those, alongside
        content and existence divergences between the two executions'
        final filesystem states.
        """
        master_fs = self.master.kernel.world.fs
        slave_fs = self.slave.kernel.world.fs
        divergences: List[FsDivergence] = []
        master_paths = set(master_fs.paths())
        slave_paths = set(slave_fs.paths())
        for path in sorted(master_paths - slave_paths):
            divergences.append(
                FsDivergence(path, "only-in-master", master_fs.read_file(path).content, None)
            )
        for path in sorted(slave_paths - master_paths):
            divergences.append(
                FsDivergence(path, "only-in-slave", None, slave_fs.read_file(path).content)
            )
        for path in sorted(master_paths & slave_paths):
            master_file = master_fs.read_file(path)
            slave_file = slave_fs.read_file(path)
            if master_file.content != slave_file.content:
                divergences.append(
                    FsDivergence(
                        path, "content", master_file.content, slave_file.content
                    )
                )
            elif include_metadata and master_file.mtime != slave_file.mtime:
                divergences.append(
                    FsDivergence(path, "metadata", master_file.mtime, slave_file.mtime)
                )
        return divergences
