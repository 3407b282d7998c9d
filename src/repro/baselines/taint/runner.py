"""Single-execution dynamic-taint runner (LIBDFT / TaintGrind models).

Runs a program once with a taint tracker attached, introducing taint at
the configured sources and checking the configured sinks.  Reports the
tainted-sink count compared against LDX in Table 3 and the slowdown
plotted around Figure 6.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from repro.baselines.taint.tracker import (
    LIBDFT_POLICY,
    TAINTGRIND_POLICY,
    TaintPolicy,
    TaintTracker,
)
from repro.core.config import LdxConfig
from repro.interp.costs import CostModel
from repro.interp.events import BarrierEvent, SyscallEvent
from repro.interp.machine import Machine
from repro.interp.resolve import resolve_event_locally, resolve_syscall_locally
from repro.ir.function import IRModule
from repro.vos.kernel import Kernel, ProgramExit
from repro.vos.syscalls import INPUT_SYSCALLS, OUTPUT_SYSCALLS, THREAD_SYSCALLS
from repro.vos.world import World


class TaintResult:
    """Outcome of one tainted execution."""

    def __init__(self, machine: Machine, tracker: TaintTracker) -> None:
        self.machine = machine
        self.tracker = tracker
        self.time = machine.time
        self.tainted_sinks = tracker.tainted_sink_events
        self.sinks_total = tracker.sink_events
        self.stdout = "".join(machine.kernel.stdout)


class TaintRunner:
    """Drives one machine with taint introduction/checking."""

    def __init__(
        self,
        module: IRModule,
        world: World,
        config: LdxConfig,
        policy: TaintPolicy,
        costs: Optional[CostModel] = None,
        max_instructions: int = 50_000_000,
    ) -> None:
        self.config = config
        self.tracker = TaintTracker(policy)
        self.machine = Machine(
            module,
            Kernel(world),
            plan=None,  # taint tools run the uninstrumented binary
            costs=costs,
            name=policy.name,
            max_instructions=max_instructions,
            observer=self.tracker,
        )

    def run(self) -> TaintResult:
        machine = self.machine
        try:
            while True:
                event = machine.next_event()
                if event is None:
                    break
                if isinstance(event, BarrierEvent):  # pragma: no cover - no plan
                    machine.complete_barrier(event)
                    continue
                self._resolve(event)
        finally:
            # The machine keeps the tracker as its observer; dropping
            # the tracker's back-reference lets reference counting free
            # a finished run without the cyclic collector.
            self.tracker.machine = None
        return TaintResult(machine, self.tracker)

    def _resolve(self, event: SyscallEvent) -> None:
        machine = self.machine
        tracker = self.tracker
        kernel = machine.kernel
        name = event.name
        if name in THREAD_SYSCALLS:
            resolve_syscall_locally(machine, event)
            return
        args_taint = tracker.args_taint(event)
        resource = kernel.resource_of(name, event.args)
        # Sink check happens before execution, like a real tool's hook.
        if self.config.sinks.matches(event):
            tracker.sink_events += 1
            if args_taint:
                tracker.tainted_sink_events += 1
        # Output syscalls transfer taint onto their resource.
        if name in OUTPUT_SYSCALLS and resource is not None and args_taint:
            tracker.resource_taint[resource] = (
                tracker.resource_taint.get(resource, frozenset()) | args_taint
            )
        machine.charge(event.thread_id, machine.costs.syscall)
        # Capture the destination register before completion advances
        # the frame past the syscall node.
        frame = machine.threads[event.thread_id].frames[-1]
        dst = frame.function.instrs[frame.index].dst
        # Input syscalls introduce taint: from a matched source, or from
        # a resource previously written with tainted data.
        result_taint: FrozenSet[str] = frozenset()
        source = self.config.sources.matches(event, resource)
        if source is not None:
            result_taint = frozenset({source})
        elif name in INPUT_SYSCALLS and resource is not None:
            result_taint = tracker.resource_taint.get(resource, frozenset())
        try:
            result = kernel.execute(name, event.args)
        except ProgramExit as program_exit:
            machine.terminate(program_exit.code)
            return
        machine.complete_syscall(event, result)
        tracker.write_taint(frame, dst, result_taint)


def run_taint(
    module: IRModule,
    world: World,
    config: LdxConfig,
    tool: str = "taintgrind",
    costs: Optional[CostModel] = None,
    max_instructions: int = 50_000_000,
) -> TaintResult:
    """Run the LIBDFT or TaintGrind model over one execution."""
    policy = LIBDFT_POLICY if tool == "libdft" else TAINTGRIND_POLICY
    runner = TaintRunner(
        module, world, config, policy, costs=costs, max_instructions=max_instructions
    )
    return runner.run()
