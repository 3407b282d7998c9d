"""TightLip baseline (Yumerefendi et al. 2007).

TightLip also runs a master ("original") and a slave ("doppelganger"
with scrubbed/mutated sensitive inputs), but has **no execution
alignment**: syscalls are matched positionally, with a small tolerance
window.  Any divergence in the syscall *sequence* is reported as a
potential leak and the doppelganger is terminated — which is exactly
why Table 2 shows TightLip reporting leakage for mutations that cause
benign path differences.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.config import LdxConfig
from repro.interp.costs import CostModel
from repro.interp.events import BarrierEvent, SyscallEvent
from repro.interp.machine import Machine
from repro.interp.resolve import resolve_syscall_locally
from repro.ir.function import IRModule
from repro.vos.kernel import Kernel, ProgramExit
from repro.vos.syscalls import OUTPUT_SYSCALLS, THREAD_SYSCALLS
from repro.vos.world import World


class TightLipResult:
    """Outcome of one TightLip run."""

    def __init__(self) -> None:
        self.leak_reported = False
        self.divergence_position: Optional[int] = None
        self.divergence_reason = ""
        self.syscalls_compared = 0
        self.terminated_early = False
        self.master_time = 0.0
        self.slave_time = 0.0

    @property
    def time(self) -> float:
        return max(self.master_time, self.slave_time)


def _collect_syscalls(
    module: IRModule,
    world: World,
    config: Optional[LdxConfig],
    mutate: bool,
    costs: Optional[CostModel],
    max_instructions: int,
) -> Tuple[List[Tuple[str, tuple]], Machine]:
    """Run one execution, returning its syscall trace (name, args)."""
    machine = Machine(
        module,
        Kernel(world),
        plan=None,
        costs=costs,
        name="tightlip-slave" if mutate else "tightlip-master",
        max_instructions=max_instructions,
    )
    trace: List[Tuple[str, tuple]] = []
    while True:
        event = machine.next_event()
        if event is None:
            break
        if isinstance(event, BarrierEvent):  # pragma: no cover - no plan
            machine.complete_barrier(event)
            continue
        if event.name in THREAD_SYSCALLS:
            resolve_syscall_locally(machine, event)
            continue
        trace.append((event.name, event.args))
        try:
            result = machine.kernel.execute(event.name, event.args)
        except ProgramExit as program_exit:
            machine.terminate(program_exit.code)
            break
        machine.charge(event.thread_id, machine.costs.syscall)
        if mutate and config is not None:
            source = config.sources.matches(
                event, machine.kernel.resource_of(event.name, event.args)
            )
            if source is not None:
                mutator = config.sources.mutator_for(source) or config.mutation
                result = mutator(result)
        machine.complete_syscall(event, result)
    return trace, machine


def run_tightlip(
    module: IRModule,
    world: World,
    config: LdxConfig,
    window: int = 2,
    costs: Optional[CostModel] = None,
    max_instructions: int = 50_000_000,
) -> TightLipResult:
    """Run master and doppelganger; compare syscall sequences.

    ``window`` is the positional tolerance: a syscall may match any
    entry within +/- window positions of the expected index.
    """
    result = TightLipResult()
    master_trace, master = _collect_syscalls(
        module, world, None, False, costs, max_instructions
    )
    slave_trace, slave = _collect_syscalls(
        module, world.clone(), config, True, costs, max_instructions
    )
    result.master_time = master.time
    result.slave_time = slave.time

    for position, (name, args) in enumerate(slave_trace):
        result.syscalls_compared += 1
        low = max(0, position - window)
        high = min(len(master_trace), position + window + 1)
        candidates = master_trace[low:high]
        if not any(c[0] == name for c in candidates):
            # Syscall sequence diverged: report and terminate.
            result.leak_reported = True
            result.terminated_early = True
            result.divergence_position = position
            result.divergence_reason = f"no {name} near position {position}"
            return result
        if name in OUTPUT_SYSCALLS:
            if not any(c == (name, args) for c in candidates):
                # Output content differs: leak.
                result.leak_reported = True
                result.divergence_position = position
                result.divergence_reason = f"output {name} differs at {position}"
                return result
    if len(slave_trace) != len(master_trace):
        result.leak_reported = True
        result.divergence_position = min(len(slave_trace), len(master_trace))
        result.divergence_reason = "trace lengths differ"
    return result
