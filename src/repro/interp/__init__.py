"""The MiniC interpreter: machine, events, builtins and cost model."""

# The relevance switch lives with its reader, the instrumenter; it stays
# importable here for existing callers.
from repro.instrument.pipeline import relevance_enabled, set_relevance_enabled
from repro.interp.compile import (
    BACKEND_SWITCH,
    BACKEND_THREADED,
    BACKENDS,
    CompiledModule,
    compile_module,
    compiled_for_module,
    get_default_backend,
    resolve_backend,
    set_default_backend,
)
from repro.interp.costs import DEFAULT_COSTS, CostModel
from repro.interp.events import BarrierEvent, Event, SyscallEvent
from repro.interp.machine import Machine, MachineStats, ThreadState
from repro.interp.profiler import (
    profile_payload,
    profile_rows,
    profiles_payload,
    render_profile,
    render_profiles,
)
from repro.interp.resolve import resolve_event_locally, resolve_syscall_locally

__all__ = [
    "BACKEND_SWITCH",
    "BACKEND_THREADED",
    "BACKENDS",
    "CompiledModule",
    "DEFAULT_COSTS",
    "CostModel",
    "BarrierEvent",
    "Event",
    "SyscallEvent",
    "Machine",
    "MachineStats",
    "ThreadState",
    "compile_module",
    "compiled_for_module",
    "get_default_backend",
    "profile_payload",
    "profile_rows",
    "profiles_payload",
    "relevance_enabled",
    "render_profile",
    "render_profiles",
    "resolve_backend",
    "resolve_event_locally",
    "resolve_syscall_locally",
    "set_default_backend",
    "set_relevance_enabled",
]
