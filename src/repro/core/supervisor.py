"""Engine supervision: stall watchdog, escalation policy, run budgets.

The engine's discrete-event loop can stop making progress for reasons
the paper's happy path never sees: divergent lock orders that resist
stall-breaking, a fault schedule that wedges one side, or an outcome
queue corrupted by a crashed execution.  The watchdog observes forward
progress (instructions, edge actions, syscalls, barriers across both
machines) and drives a three-rung degradation ladder:

1. **decoupled resolution** — the existing ``_break_stall`` behaviour:
   resolve the earliest blocked event independently, tainting what it
   touches;
2. **abandonment** — a thread that keeps stalling with no global
   progress is declared dead after the configured virtual-time
   deadline: its clock is charged the deadline, its resources are
   tainted, its mutexes released, and its joiners resume;
3. **termination** — if the loop still cannot converge the engine
   raises :class:`EngineStallError`, which the supervisor in
   ``LdxEngine.run`` converts into a diagnosed, degraded
   :class:`DualResult` instead of a traceback.

All of this is bounded in *virtual* time, so a dual run can never hang:
every blocked thread is resolved or abandoned within ``deadline``
virtual units of the stall being detected.
"""

from __future__ import annotations

from typing import Dict, Tuple

# Consecutive stall breaks of the same thread, with zero global
# progress in between, before the watchdog abandons it.
ESCALATION_LIMIT = 3

# Hard bound on total stall-break rounds per run — a convergence
# backstop far above anything a real workload needs.
MAX_STALL_ROUNDS = 100_000

# Default per-run budgets (mirrors the LdxEngine defaults).
DEFAULT_DEADLINE = 25_000.0
DEFAULT_MAX_INSTRUCTIONS = 50_000_000

# Instruction ceiling per virtual-time unit of deadline.  The watchdog
# only observes *stalls*; a program that computes forever without
# quiescing never trips it, so a deadline must also bound raw
# instruction throughput.  One virtual unit of syscall-free execution
# covers roughly a thousand instructions under the default cost model.
INSTRUCTIONS_PER_UNIT = 1_000


class RunBudget:
    """A per-request execution budget for one supervised dual run.

    Two bounds together guarantee a run always terminates with a
    diagnosed result instead of hanging:

    * ``watchdog_deadline`` — virtual time the watchdog waits on a
      stalled thread before climbing the degradation ladder;
    * ``max_instructions`` — a hard ceiling on interpreted
      instructions per machine; exhaustion ends that execution as a
      diagnosed crash (``CausalityReport.crashes``), never a hang.

    :meth:`from_deadline` derives both from a single caller-facing
    deadline in virtual-time units — the unit the service API exposes.
    """

    __slots__ = ("watchdog_deadline", "max_instructions")

    # Floors keep a pathologically small deadline from making even a
    # trivial run un-runnable.
    MIN_DEADLINE = 10.0
    MIN_INSTRUCTIONS = 10_000

    def __init__(
        self,
        watchdog_deadline: float = DEFAULT_DEADLINE,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> None:
        self.watchdog_deadline = max(float(watchdog_deadline), self.MIN_DEADLINE)
        self.max_instructions = max(int(max_instructions), self.MIN_INSTRUCTIONS)

    @classmethod
    def from_deadline(cls, deadline: float) -> "RunBudget":
        """Budget for a request-level deadline in virtual-time units."""
        deadline = max(float(deadline), cls.MIN_DEADLINE)
        instructions = min(
            DEFAULT_MAX_INSTRUCTIONS, int(deadline * INSTRUCTIONS_PER_UNIT)
        )
        return cls(watchdog_deadline=deadline, max_instructions=instructions)

    def engine_kwargs(self) -> Dict[str, object]:
        """Keyword arguments for :class:`LdxEngine` / ``run_dual``."""
        return {
            "watchdog_deadline": self.watchdog_deadline,
            "max_instructions": self.max_instructions,
        }

    def __repr__(self) -> str:
        return (
            f"<RunBudget deadline={self.watchdog_deadline} "
            f"max_instructions={self.max_instructions}>"
        )


class EngineWatchdog:
    """Virtual-time stall detector for one dual execution."""

    def __init__(
        self,
        deadline: float = 25_000.0,
        escalation_limit: int = ESCALATION_LIMIT,
        max_rounds: int = MAX_STALL_ROUNDS,
    ) -> None:
        self.deadline = deadline
        self.escalation_limit = escalation_limit
        self.max_rounds = max_rounds
        self.fires = 0
        self._rounds = 0
        self._last_progress: object = None
        # (role, tid) -> consecutive stall breaks without progress.
        self._stall_counts: Dict[Tuple[str, int], int] = {}

    def note_progress(self, marker: object) -> None:
        """Feed the current progress marker; any advance resets the
        per-thread escalation counters."""
        if marker != self._last_progress:
            self._last_progress = marker
            self._stall_counts.clear()

    def record_stall_break(self, role: str, tid: int) -> bool:
        """Count one stall break for a thread; True when the ladder has
        reached abandonment for it."""
        self._rounds += 1
        key = (role, tid)
        self._stall_counts[key] = self._stall_counts.get(key, 0) + 1
        if self._stall_counts[key] > self.escalation_limit:
            self.fires += 1
            self._stall_counts[key] = 0
            return True
        return False

    def exhausted(self) -> bool:
        """True when stall breaking has provably failed to converge."""
        return self._rounds > self.max_rounds
