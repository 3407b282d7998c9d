"""Native execution: run one program over a world, no coupling.

This is the paper's uninstrumented baseline (the denominator of every
overhead number) and the workhorse the test suite uses to execute MiniC
programs.  With ``plan`` supplied it becomes "instrumented but
uncoupled", which isolates pure counter-maintenance cost.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.instrument.plan import ModulePlan
from repro.interp.costs import CostModel
from repro.interp.machine import Machine
from repro.interp.profiler import OpcodeProfiler
from repro.interp.resolve import resolve_event_locally
from repro.ir.function import IRModule
from repro.vos.kernel import Kernel
from repro.vos.world import World


class RunResult:
    """Outcome of one complete execution."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.exit_code = machine.exit_code
        self.time = machine.time
        self.stdout = "".join(machine.kernel.stdout)
        self.output_log = list(machine.kernel.output_log)
        self.observations = list(machine.kernel.observations)
        self.allocations = list(machine.kernel.allocations)
        self.stats = machine.stats

    @property
    def result(self):
        """Return value of main()."""
        return self.machine.threads[0].result

    def sink_values(self) -> List[Tuple[str, tuple]]:
        """(syscall name, args) pairs of all output syscalls."""
        return [(name, args) for name, args, _ in self.output_log]


def run_native(
    module: IRModule,
    world: World,
    plan: Optional[ModulePlan] = None,
    costs: Optional[CostModel] = None,
    seed: int = 0,
    name: str = "native",
    max_instructions: int = 50_000_000,
    backend: Optional[str] = None,
    profile: bool = False,
) -> RunResult:
    """Execute *module* to completion against *world*."""
    machine = Machine(
        module,
        Kernel(world),
        plan=plan,
        costs=costs,
        name=name,
        schedule_seed=seed,
        max_instructions=max_instructions,
        backend=backend,
        observer=OpcodeProfiler() if profile else None,
    )
    while True:
        event = machine.next_event()
        if event is None:
            if not machine.finished:
                # Cannot happen with local resolution: every event is
                # resolved before the next call.
                raise RuntimeError("native run stalled with unresolved events")
            break
        resolve_event_locally(machine, event)
    return RunResult(machine)
