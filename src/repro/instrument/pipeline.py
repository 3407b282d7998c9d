"""Whole-program instrumentation pipeline (INSTRUMENTPROG of Algorithm 1).

Processes functions in reverse topological order of the call graph so
``FCNT`` of every non-recursive callee is known before its callers are
planned, then derives static statistics (the left half of Table 1).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.cfg.callgraph import CallGraph
from repro.instrument.loops import plan_function
from repro.instrument.plan import ModulePlan
from repro.ir import instructions as ins
from repro.ir.function import IRModule

# -- relevance switch --------------------------------------------------------------
#
# The sink-relevance classification always rides the plan; this
# process-wide switch decides whether the instrumenter *acts* on it by
# pruning counter-elidable edges (``--no-relevance`` emits full plans).
# Both settings are byte-identical by contract; the switch exists so CI
# can diff them.  The artifact cache keys on it too.

_RELEVANCE_ENABLED = True


def set_relevance_enabled(enabled: bool) -> None:
    """Toggle plan pruning for subsequently instrumented modules."""
    global _RELEVANCE_ENABLED
    _RELEVANCE_ENABLED = bool(enabled)


def relevance_enabled() -> bool:
    return _RELEVANCE_ENABLED


def compute_may_reach_syscall(module: IRModule, callgraph: CallGraph) -> Set[str]:
    """Functions whose execution may perform a syscall.

    Indirect calls are conservatively assumed to reach syscalls (their
    targets are unknown at compile time, exactly the paper's problem
    with indirect calls).
    """
    reaches: Set[str] = set()
    for name, function in module.functions.items():
        for instr in function.instrs:
            if isinstance(instr, (ins.Syscall, ins.CallIndirect)):
                reaches.add(name)
                break
    changed = True
    while changed:
        changed = False
        for name, function in module.functions.items():
            if name in reaches:
                continue
            for instr in function.instrs:
                if isinstance(instr, ins.CallDirect) and instr.func in reaches:
                    reaches.add(name)
                    changed = True
                    break
    return reaches


class InstrumentedModule:
    """An IR module paired with its instrumentation plan."""

    def __init__(self, module: IRModule, plan: ModulePlan, callgraph: CallGraph) -> None:
        self.module = module
        self.plan = plan
        self.callgraph = callgraph

    def static_stats(self) -> Dict[str, int]:
        """Static instrumentation statistics (Table 1, columns 2-9)."""
        total_instructions = self.module.total_instructions
        inserted = self.plan.instrumented_instruction_count
        return {
            "loc": self.module.source_lines,
            "total_instructions": total_instructions,
            "instrumented_sites": inserted,
            "instrumented_pct": (
                round(100.0 * inserted / total_instructions, 2)
                if total_instructions
                else 0.0
            ),
            "instrumented_loops": self.plan.instrumented_loop_count,
            "recursive_functions": len(self.plan.recursive_functions),
            "indirect_call_sites": self.plan.scoped_call_count
            - self._recursive_direct_call_sites(),
            "scoped_call_sites": self.plan.scoped_call_count,
            "max_static_counter": self.plan.max_static_counter,
            "syscall_sites": sum(
                len(function.syscall_indices())
                for function in self.module.functions.values()
            ),
            # Counter updates on counter-elidable edges.  Derived from
            # the relevance classification, never from what pruning
            # physically did, so the value (and Table 1) is identical
            # across both relevance settings.
            "prunable_counter_sites": (
                self.plan.relevance.prunable_count
                if self.plan.relevance is not None
                else 0
            ),
        }

    def _recursive_direct_call_sites(self) -> int:
        count = 0
        for name, plan in self.plan.functions.items():
            function = self.module.functions[name]
            for index in plan.scoped_calls:
                if isinstance(function.instrs[index], ins.CallDirect):
                    count += 1
        return count


def instrument_module(
    module: IRModule, prune: Optional[bool] = None
) -> InstrumentedModule:
    """Instrument every function of *module* (Algorithm 1's top level).

    *prune* selects instrumentation-time counter pruning: the plan's
    counter-elidable edges (see ``analysis/relevance.py``) carry an
    accounting-only ghost instead of their ``CounterAdd`` runs, so both
    backends execute (and the artifact cache stores) smaller plans.
    None follows the process-wide :func:`relevance_enabled` switch,
    which ``--no-relevance`` turns off to emit full plans.
    """
    callgraph = CallGraph(module)
    plan = ModulePlan()
    plan.recursive_functions = set(callgraph.recursive_functions)
    plan.may_reach_syscall = compute_may_reach_syscall(module, callgraph)

    def may_reach(name: str) -> bool:
        return name in plan.may_reach_syscall

    for name in callgraph.reverse_topological_order():
        function = module.functions[name]
        function_plan = plan_function(
            function,
            fcnt=plan.fcnt,
            recursive_functions=plan.recursive_functions,
            may_reach_syscall=may_reach,
        )
        plan.functions[name] = function_plan
        if name not in plan.recursive_functions:
            plan.fcnt[name] = function_plan.fcnt
    # Classify sink relevance against the finished plan (imported
    # lazily: relevance rides the analysis package, which consumes this
    # module in turn).
    from repro.analysis.relevance import compute_relevance

    plan.relevance = compute_relevance(module, plan)
    if prune is None:
        prune = _RELEVANCE_ENABLED
    if prune:
        plan.prune_counter_adds()
    return InstrumentedModule(module, plan, callgraph)
