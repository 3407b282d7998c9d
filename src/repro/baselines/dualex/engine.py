"""DualEx baseline (Kim et al. 2015): dual execution aligned by full
Execution Indexing through a monitor process.

Detection power is equivalent to LDX (both compare perturbed and
original executions at sinks); the difference is cost — the monitor
processes every instruction to maintain the index, charged through
``CostModel.dualex_per_instruction``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.baselines.dualex.indexing import IndexTracker
from repro.core.config import LdxConfig
from repro.interp.costs import CostModel
from repro.interp.events import BarrierEvent, SyscallEvent
from repro.interp.machine import Machine
from repro.interp.resolve import resolve_syscall_locally
from repro.ir.function import IRModule
from repro.vos.kernel import Kernel, ProgramExit
from repro.vos.syscalls import THREAD_SYSCALLS
from repro.vos.world import World


class DualExResult:
    """Outcome of one DualEx run."""

    def __init__(self) -> None:
        self.detections: List[Tuple[str, str]] = []  # (kind, syscall)
        self.sinks_total = 0
        self.master_time = 0.0
        self.slave_time = 0.0

    @property
    def causality_detected(self) -> bool:
        return bool(self.detections)

    @property
    def time(self) -> float:
        # Master and slave run in lockstep through the monitor; the
        # slower side dominates.
        return max(self.master_time, self.slave_time)


def _trace_execution(
    module: IRModule,
    world: World,
    config: Optional[LdxConfig],
    mutate: bool,
    costs: Optional[CostModel],
    max_instructions: int,
) -> Tuple[List[Tuple[Tuple, str, tuple]], Machine]:
    """Run once, returning [(execution index, syscall, args)]."""
    tracker = IndexTracker()
    machine = Machine(
        module,
        Kernel(world),
        plan=None,
        costs=costs,
        name="dualex-slave" if mutate else "dualex-master",
        max_instructions=max_instructions,
        observer=tracker,
    )
    trace: List[Tuple[Tuple, str, tuple]] = []
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
        index = tracker.index_of(event.thread_id, event.index)
        resource = machine.kernel.resource_of(event.name, event.args)
        signature = machine.kernel.signature_of(event.name, event.args, resource)
        trace.append((index, event.name, event.args, signature))
        try:
            result = machine.kernel.execute(event.name, event.args)
        except ProgramExit as program_exit:
            machine.terminate(program_exit.code)
            break
        machine.charge(event.thread_id, machine.costs.syscall)
        if mutate and config is not None:
            source = config.sources.matches(event, resource)
            if source is not None:
                mutator = config.sources.mutator_for(source) or config.mutation
                result = mutator(result)
        machine.complete_syscall(event, result)
    return trace, machine


def run_dualex(
    module: IRModule,
    world: World,
    config: LdxConfig,
    costs: Optional[CostModel] = None,
    max_instructions: int = 50_000_000,
) -> DualExResult:
    """Run DualEx: two executions aligned offline by execution index."""
    result = DualExResult()
    master_trace, master = _trace_execution(
        module, world, None, False, costs, max_instructions
    )
    slave_trace, slave = _trace_execution(
        module, world.clone(), config, True, costs, max_instructions
    )
    result.master_time = master.time
    result.slave_time = slave.time

    def is_sink(name: str, args: tuple) -> bool:
        probe = SyscallEvent(None, 0, "", 0, (), name, args)
        return config.sinks.matches(probe)

    slave_by_index: Dict[Tuple, tuple] = {
        index: signature for index, _name, _args, signature in slave_trace
    }
    master_indices = {index for index, _, _, _ in master_trace}

    for index, name, args, signature in master_trace:
        if not is_sink(name, args):
            continue
        result.sinks_total += 1
        partner = slave_by_index.get(index)
        if partner is None:
            result.detections.append(("sink-missing-in-slave", name))
        elif partner != signature:
            result.detections.append(("sink-args-differ", name))
    for index, name, args, _signature in slave_trace:
        if is_sink(name, args) and index not in master_indices:
            result.detections.append(("sink-only-in-slave", name))
    return result
