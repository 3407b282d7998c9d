"""LDX counter instrumentation (paper Algorithms 1 and 3 + Section 6)."""

from repro.instrument.counter import CounterSolution, compute_counters
from repro.instrument.loops import build_loop_transform, plan_function
from repro.instrument.pipeline import (
    InstrumentedModule,
    compute_may_reach_syscall,
    instrument_module,
    relevance_enabled,
    set_relevance_enabled,
)
from repro.instrument.plan import (
    CounterAdd,
    EdgeAction,
    ElidedAdd,
    FunctionPlan,
    LoopSync,
    ModulePlan,
)

__all__ = [
    "CounterSolution",
    "compute_counters",
    "build_loop_transform",
    "plan_function",
    "InstrumentedModule",
    "compute_may_reach_syscall",
    "instrument_module",
    "relevance_enabled",
    "set_relevance_enabled",
    "CounterAdd",
    "EdgeAction",
    "ElidedAdd",
    "FunctionPlan",
    "LoopSync",
    "ModulePlan",
]
