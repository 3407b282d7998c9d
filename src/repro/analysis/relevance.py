"""Sink-relevance analysis: the paper's Algorithm 2 as a classifier.

LDX's instrumentation is only *needed* where it can change an outcome:
the paper's Algorithm 2 observes that counting can be elided on
instructions that never influence a sink.  This module computes that
classification statically.  Starting from every outcome sink — each
``Syscall`` site is one: output/network/FS effects, aborts (``exit``),
schedule-divergence points (``thread_*``/locks), and the explicit
``sink_observe`` annotation — it propagates *backwards* over the
may-depend relation:

* **data dependence** — an instruction is demanded when a value it
  defines (or mutates in place) can flow into a demanded use, including
  through list aliasing, module globals, call arguments, returned
  values and mutating builtins (``push``/``pop``/``list_fill``);
* **control dependence** — the branches governing whether a relevant
  instruction executes (via :mod:`repro.analysis.controldep`, which
  rides :mod:`repro.cfg.dominators`) are themselves relevant;
* **call reachability** — a call site that can reach observable work
  (any relevant instruction in any transitive callee) is relevant.

Everything not reached is **elidable**: provably outside the static
may-depend set of every sink.  The classification is deliberately a
pure function of the IR module — no seed configuration — so it can ride
the instrumentation plan through the artifact cache unchanged.

Three consumers exist, and none may change observables:

* the instrumenter (:mod:`repro.instrument.pipeline`) consults the
  edge-level refinement below (:func:`prunable_counter_edges`) at
  plan-construction time and replaces the ``CounterAdd`` runs on
  **counter-elidable edges** with accounting-only ghosts, so both
  backends execute pruned plans;
* the threaded backend (:mod:`repro.interp.compile`) widens
  superinstruction fusion across the **fusible** set — instructions
  proven event-free whose plan edges are absent or pure folded
  ``CounterAdd`` runs — and batches each region's counter effect into
  one precomputed aggregate add per executed path;
* reporting (``repro analyze --relevance``, Table 1's PrunedCnt and
  Table 5's elision columns, ``repro profile``) attributes the win.

**Counter-elidable edges.**  A counter value is observable only at an
event boundary: every :class:`SyscallEvent` and :class:`BarrierEvent`
snapshots the thread's *whole* counter stack.  A ``CounterAdd`` on edge
``src -> dst`` is therefore unobservable exactly when no event can
occur between crossing the edge and the death of the stack entry it
mutates (the entry is popped by a scoped return, overwritten never —
LoopSync resets are themselves barrier events — or discarded at thread
end).  :func:`prunable_counter_edges` computes this as a backwards
"observation tail" fixpoint: an instruction observes if it is a
syscall, an indirect call, a direct call into ``may_reach_syscall``, or
a return from a frame whose counter-scope survives it; an edge observes
if it carries a barrier.  On top of that proof obligation, pruning is
restricted to edges whose endpoints Algorithm 2 classified elidable, so
the pruned set stays inside the classification the soundness oracle
reasons about.

The dynamic soundness contract: a causality detection can only ever
fire at a *relevant* syscall site.  :class:`ModuleRelevance` exposes
``relevant_site`` so the dual-execution engine can check every
detection against the static classification and report a soundness
violation if one lands on an instruction the analysis called elidable.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.controldep import control_dependence
from repro.analysis.lockset import address_taken
from repro.instrument.plan import (
    CounterAdd,
    LoopSync,
    ModulePlan,
    fold_counter_adds,
)
from repro.ir import instructions as ins
from repro.ir.function import IRFunction, IRModule
from repro.ir.ops import BINOP_FUNCS, UNOP_FUNCS
from repro.lang.intrinsics import PURE_BUILTINS

# Builtins that mutate their first argument in place.  ``pop`` is
# included on top of the taint baselines' MUTATING_BUILTINS set: it
# changes the list's future contents even though taint never enters.
_MUTATING_BUILTINS = frozenset({"push", "pop", "list_fill"})

# Builtins whose result can alias (share mutable structure with) one of
# their arguments; scalar/string results never do (strings are
# immutable MiniC values).
_ALIASING_BUILTINS = frozenset(
    {"push", "pop", "list_fill", "sort", "slice", "concat", "reverse"}
)


class RegionSummary:
    """One statically summarizable region: a connected set of fusible
    instructions whose counter/clock effect is a compile-time constant
    per executed path."""

    __slots__ = ("head", "size", "counter_delta", "action_count")

    def __init__(
        self, head: int, size: int, counter_delta: int, action_count: int
    ) -> None:
        self.head = head
        self.size = size
        self.counter_delta = counter_delta
        self.action_count = action_count

    def as_dict(self) -> Dict[str, int]:
        return {
            "head": self.head,
            "size": self.size,
            "counter_delta": self.counter_delta,
            "action_count": self.action_count,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RegionSummary(head={self.head}, size={self.size}, "
            f"counter_delta={self.counter_delta}, "
            f"action_count={self.action_count})"
        )


class FunctionRelevance:
    """Per-function classification of every instruction index."""

    __slots__ = (
        "name", "total", "relevant", "elidable", "fusible", "regions",
        "prunable_edges",
    )

    def __init__(
        self,
        name: str,
        total: int,
        relevant: FrozenSet[int],
        elidable: FrozenSet[int],
        fusible: FrozenSet[int],
        regions: Tuple[RegionSummary, ...],
        prunable_edges: Optional[Dict[Tuple[int, int], int]] = None,
    ) -> None:
        self.name = name
        self.total = total
        self.relevant = relevant
        self.elidable = elidable
        self.fusible = fusible
        self.regions = regions
        # Counter-elidable edges: (src, dst) -> number of CounterAdd
        # actions the instrumenter may prune there (proof: no event can
        # sample the mutated stack entry before it dies).
        self.prunable_edges = dict(prunable_edges or {})

    @property
    def summarizable_instructions(self) -> int:
        return sum(region.size for region in self.regions)

    @property
    def prunable_count(self) -> int:
        """Counter updates on this function's counter-elidable edges."""
        return sum(self.prunable_edges.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            "function": self.name,
            "instructions": self.total,
            "relevant": len(self.relevant),
            "elidable": len(self.elidable),
            "fusible": len(self.fusible),
            "regions": [region.as_dict() for region in self.regions],
            "prunable_edges": [
                [src, dst, count]
                for (src, dst), count in sorted(self.prunable_edges.items())
            ],
        }


class ModuleRelevance:
    """Whole-module relevance classification plus region summaries."""

    __slots__ = ("functions", "relevant_syscalls")

    def __init__(
        self,
        functions: Dict[str, FunctionRelevance],
        relevant_syscalls: FrozenSet[Tuple[str, str]],
    ) -> None:
        self.functions = functions
        self.relevant_syscalls = relevant_syscalls

    @property
    def total_instructions(self) -> int:
        return sum(f.total for f in self.functions.values())

    @property
    def relevant_count(self) -> int:
        return sum(len(f.relevant) for f in self.functions.values())

    @property
    def elidable_count(self) -> int:
        return sum(len(f.elidable) for f in self.functions.values())

    @property
    def fusible_count(self) -> int:
        return sum(len(f.fusible) for f in self.functions.values())

    @property
    def region_count(self) -> int:
        return sum(len(f.regions) for f in self.functions.values())

    @property
    def summarizable_count(self) -> int:
        return sum(f.summarizable_instructions for f in self.functions.values())

    @property
    def prunable_count(self) -> int:
        """Total counter updates on counter-elidable edges, module-wide.

        Purely derived from the classification, so it is identical
        whether or not the instrumenter actually applied the pruning —
        Table 1's PrunedCnt column relies on that invariance.
        """
        return sum(f.prunable_count for f in self.functions.values())

    def relevant_site(self, function: str, syscall: str) -> bool:
        """True when a syscall *name* at *function* is classified
        sink-relevant; dynamic detections must only ever land here."""
        return (function, syscall) in self.relevant_syscalls

    def payload(self) -> Dict[str, object]:
        return {
            "instructions": self.total_instructions,
            "relevant": self.relevant_count,
            "elidable": self.elidable_count,
            "fusible": self.fusible_count,
            "regions": self.region_count,
            "summarizable": self.summarizable_count,
            "prunable_counter_updates": self.prunable_count,
            "functions": [
                self.functions[name].as_dict()
                for name in sorted(self.functions)
            ],
        }


class _UnionFind:
    """Flow-insensitive alias classes over the names of one function.

    Joins come first (:func:`_build_aliases`); the first
    :meth:`members` call then groups every name under its root once.
    """

    __slots__ = ("parent", "_classes")

    def __init__(self) -> None:
        self.parent: Dict[str, str] = {}
        self._classes: Optional[Dict[str, List[str]]] = None

    def find(self, name: str) -> str:
        parent = self.parent
        root = name
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(name, name) != root:
            parent[name], name = root, parent[name]
        return root

    def join(self, left: str, right: str) -> None:
        left_root, right_root = self.find(left), self.find(right)
        if left_root != right_root:
            self.parent[left_root] = right_root
            self._classes = None

    def members(self, name: str) -> List[str]:
        """*name*'s class: its root, then the other names in the order
        they were first joined."""
        classes = self._classes
        if classes is None:
            classes = {}
            for other in self.parent:
                root = self.find(other)
                if other != root:
                    classes.setdefault(root, []).append(other)
            self._classes = classes
        root = self.find(name)
        return [root, *classes.get(root, ())]


def _build_aliases(function: IRFunction) -> _UnionFind:
    aliases = _UnionFind()
    for instr in function.instrs:
        kind = type(instr)
        if kind is ins.Move:
            aliases.join(instr.dst, instr.src)
        elif kind is ins.NewList:
            for item in instr.items:
                aliases.join(instr.dst, item)
        elif kind is ins.LoadIndex:
            # An extracted element may share structure with the base
            # (lists of lists); mutators of either affect both.
            aliases.join(instr.dst, instr.base)
        elif kind is ins.StoreIndex:
            aliases.join(instr.base, instr.src)
        elif kind is ins.CallBuiltin and instr.name in _ALIASING_BUILTINS:
            for arg in instr.args:
                aliases.join(instr.dst, arg)
    return aliases


def _fusible_indices(
    function: IRFunction, plan: ModulePlan, global_names: FrozenSet[str]
) -> FrozenSet[int]:
    """Indices proven event-free with free-or-foldable plan edges.

    These are exactly the instructions the threaded backend fuses into
    superinstruction regions, and it relies on this definition instead
    of re-checking it: executing one can never yield an event, block,
    alter ``thread.status``, push or pop frames, or cross a barrier
    edge.  ``CJump`` joins the set here — the
    syntactic barrier the relevance analysis removes — because a branch
    is event-free; only its plan edges need to stay foldable.
    """
    function_plan = plan.functions.get(function.name)
    if function_plan is None:
        return frozenset()
    fusible: Set[int] = set()
    for index, instr in enumerate(function.instrs):
        kind = type(instr)
        if kind is ins.Jump or kind is ins.Const or kind is ins.Move:
            pass
        elif kind is ins.Binop:
            if instr.op not in BINOP_FUNCS:
                continue
        elif kind is ins.Unop:
            if instr.op not in UNOP_FUNCS:
                continue
        elif kind is ins.Nop:
            if index == function.exit:
                continue
        elif kind is ins.CallBuiltin:
            if (
                instr.name not in PURE_BUILTINS
                or instr.dst in global_names
                or any(arg in global_names for arg in instr.args)
            ):
                continue
        elif kind is ins.LoadIndex or kind is ins.StoreIndex:
            pass
        elif kind is ins.NewList or kind is ins.CJump:
            pass
        else:
            continue
        edges_ok = True
        for succ in function.successors(index):
            actions = function_plan.actions_for(index, succ)
            if actions and fold_counter_adds(actions) is None:
                edges_ok = False
                break
        if edges_ok:
            fusible.add(index)
    return frozenset(fusible)


def _regions(
    function: IRFunction, plan: ModulePlan, fusible: FrozenSet[int]
) -> Tuple[RegionSummary, ...]:
    """Connected components of the fusible subgraph, with the summed
    counter effect of their internal plan edges."""
    function_plan = plan.functions.get(function.name)
    if function_plan is None or not fusible:
        return ()
    neighbours: Dict[int, Set[int]] = {index: set() for index in fusible}
    for index in fusible:
        for succ in function.successors(index):
            if succ in fusible:
                neighbours[index].add(succ)
                neighbours[succ].add(index)
    seen: Set[int] = set()
    regions: List[RegionSummary] = []
    for index in sorted(fusible):
        if index in seen:
            continue
        stack, members = [index], set()
        while stack:
            node = stack.pop()
            if node in members:
                continue
            members.add(node)
            stack.extend(neighbours[node] - members)
        seen |= members
        if len(members) < 2:
            continue
        delta = count = 0
        for src in members:
            for dst in function.successors(src):
                if dst not in members:
                    continue
                actions = function_plan.actions_for(src, dst)
                if actions:
                    edge_delta, edge_count = fold_counter_adds(actions)
                    delta += edge_delta
                    count += edge_count
        regions.append(RegionSummary(min(members), len(members), delta, count))
    return tuple(regions)


def prunable_counter_edges(
    module: IRModule,
    plan: ModulePlan,
    relevance: Optional["ModuleRelevance"] = None,
) -> Dict[str, Dict[Tuple[int, int], int]]:
    """Counter-elidable edges per function: ``{fname: {(src, dst): n}}``.

    An edge qualifies when its plan actions are pure ``CounterAdd`` runs
    and no event (syscall or barrier — the only points that snapshot the
    counter stack) can occur after crossing it while the mutated stack
    entry is still alive.  Aliveness ends at a *scoped* return (the
    entry is popped) or at thread end (``main`` and thread-entry
    functions return into nothing); an unscoped return continues under
    the caller's entry, so the caller's observation tail is inherited
    through a ``ret_observes`` interprocedural fixpoint.

    The result is a pure function of (module, plan) — it does not
    depend on whether pruning is enabled — so reporting built on it is
    identical across both relevance settings.
    """
    functions = module.functions
    may_reach = plan.may_reach_syscall

    # Direct call sites per callee, with their scoped-ness: a scoped
    # call's counter entry dies at the return, so it never propagates
    # the caller's tail.  Indirect calls are always scoped.  ``callees``
    # is the reverse map: whose call sites read a function's tail.
    callsites: Dict[str, List[Tuple[str, int]]] = {name: [] for name in functions}
    callees: Dict[str, Set[str]] = {name: set() for name in functions}
    for gname, fn in functions.items():
        scoped = plan.functions[gname].scoped_calls
        for index, instr in enumerate(fn.instrs):
            if (
                type(instr) is ins.CallDirect
                and instr.func in callsites
                and index not in scoped
            ):
                callsites[instr.func].append((gname, index))
                callees[gname].add(instr.func)

    # The observation tail is backward reachability over predecessors
    # from the nodes that observe on their own: syscalls, indirect calls,
    # direct calls into ``may_reach_syscall`` and the sources of barrier
    # edges.  Returns (every ``Ret`` and the terminal exit nop every ret
    # funnels into) join the seeds once an unscoped caller's tail makes
    # the function's return observe.
    preds: Dict[str, Dict[int, List[int]]] = {}
    ret_seeds: Dict[str, List[int]] = {}
    observes: Dict[str, List[bool]] = {}

    def extend(fname: str, seeds: List[int]) -> None:
        tail, fn_preds = observes[fname], preds[fname]
        stack = list(seeds)
        while stack:
            node = stack.pop()
            if not tail[node]:
                tail[node] = True
                stack.extend(fn_preds[node])

    for fname, fn in functions.items():
        actions = plan.functions[fname].actions
        preds[fname] = fn.predecessor_map()
        seeds, returns = [], []
        for index, instr in enumerate(fn.instrs):
            kind = type(instr)
            succs = fn.successors(index)
            if (
                kind is ins.Syscall
                or kind is ins.CallIndirect
                or (kind is ins.CallDirect and instr.func in may_reach)
                or any(
                    type(action) is LoopSync
                    for succ in succs
                    for action in actions.get((index, succ), ())
                )
            ):
                seeds.append(index)
            if kind is ins.Ret or not succs:
                returns.append(index)
        ret_seeds[fname] = returns
        observes[fname] = [False] * len(fn.instrs)
        extend(fname, seeds)

    def observed(fname: str, node: int) -> bool:
        tail = observes[fname]
        return node >= len(tail) or tail[node]

    # A function's return observes once any unscoped call site of it
    # falls into its caller's tail.  That flag only grows, and growing
    # it grows only this function's tail, which only its callees' call
    # sites read.
    ret_observes: Set[str] = set()
    pending = list(functions)
    while pending:
        fname = pending.pop()
        if fname in ret_observes:
            continue
        # The call falls through; conservatively observe when the
        # successor is unknown.
        if any(observed(gname, index + 1) for gname, index in callsites[fname]):
            ret_observes.add(fname)
            extend(fname, ret_seeds[fname])
            pending.extend(callees[fname])

    if relevance is None:
        relevance = getattr(plan, "relevance", None)
    prunable: Dict[str, Dict[Tuple[int, int], int]] = {}
    for fname, fplan in plan.functions.items():
        fn_relevance = relevance.functions.get(fname) if relevance else None
        edges: Dict[Tuple[int, int], int] = {}
        for (src, dst), actions in fplan.actions.items():
            if not all(type(action) is CounterAdd for action in actions):
                continue  # barriers and loop bookkeeping stay untouched
            if observed(fname, dst):
                continue  # an event can still sample the entry
            if fn_relevance is not None and (
                src not in fn_relevance.elidable
                or dst not in fn_relevance.elidable
            ):
                continue  # stay inside Algorithm 2's elidable set
            edges[(src, dst)] = len(actions)
        if edges:
            prunable[fname] = edges
    return prunable


def compute_relevance(
    module: IRModule, plan: Optional[ModulePlan] = None
) -> ModuleRelevance:
    """Classify every instruction of *module* as sink-relevant or
    elidable; with a *plan*, also compute fusible regions."""
    global_names = frozenset(module.global_values)
    functions = module.functions
    taken = address_taken(module)

    cdep: Dict[str, Dict[int, Set[int]]] = {}
    aliases: Dict[str, _UnionFind] = {}
    defs_by: Dict[str, Dict[str, List[int]]] = {}
    mutators_by: Dict[str, Dict[str, List[int]]] = {}
    arg_pass: Dict[str, Dict[str, List[Tuple[int, Optional[str], int]]]] = {}
    direct_sites: Dict[str, List[Tuple[str, int]]] = {}
    indirect_sites: List[Tuple[str, int]] = []
    ret_sites: Dict[str, List[int]] = {}

    for fname, function in functions.items():
        cdep[fname] = control_dependence(function)
        aliases[fname] = _build_aliases(function)
        fn_defs: Dict[str, List[int]] = {}
        fn_mutators: Dict[str, List[int]] = {}
        fn_args: Dict[str, List[Tuple[int, Optional[str], int]]] = {}
        fn_rets: List[int] = []
        for index, instr in enumerate(function.instrs):
            dst = instr.defs()
            if dst is not None:
                fn_defs.setdefault(dst, []).append(index)
            kind = type(instr)
            if kind is ins.StoreIndex:
                fn_mutators.setdefault(instr.base, []).append(index)
            elif kind is ins.CallBuiltin:
                if instr.name in _MUTATING_BUILTINS and instr.args:
                    fn_mutators.setdefault(instr.args[0], []).append(index)
            elif kind is ins.CallDirect:
                direct_sites.setdefault(instr.func, []).append((fname, index))
                for position, arg in enumerate(instr.args):
                    fn_args.setdefault(arg, []).append(
                        (index, instr.func, position)
                    )
            elif kind is ins.CallIndirect:
                indirect_sites.append((fname, index))
                for position, arg in enumerate(instr.args):
                    fn_args.setdefault(arg, []).append((index, None, position))
            elif kind is ins.Ret:
                fn_rets.append(index)
        defs_by[fname] = fn_defs
        mutators_by[fname] = fn_mutators
        arg_pass[fname] = fn_args
        ret_sites[fname] = fn_rets

    relevant: Dict[str, Set[int]] = {name: set() for name in functions}
    demanded: Set[Tuple[str, str]] = set()
    demanded_globals: Set[str] = set()
    returns_demanded: Set[str] = set()
    pending: List[Tuple] = []

    def demand_param(callee: str, position: int) -> None:
        params = functions[callee].params
        if position < len(params):
            pending.append(("demand", callee, params[position]))

    def on_function_observable(fname: str) -> None:
        # A call that can reach observable work is itself relevant.
        for caller, index in direct_sites.get(fname, ()):
            pending.append(("mark", caller, index))
        if fname in taken:
            for caller, index in indirect_sites:
                pending.append(("mark", caller, index))

    def process_mark(fname: str, index: int) -> None:
        marked = relevant[fname]
        if index in marked:
            return
        was_empty = not marked
        marked.add(index)
        if was_empty:
            on_function_observable(fname)
        function = functions[fname]
        instr = function.instrs[index]
        for use in instr.uses():
            pending.append(("demand", fname, use))
        for branch in cdep[fname].get(index, ()):
            pending.append(("mark", fname, branch))

    def process_demand(fname: str, name: str) -> None:
        root = aliases[fname].find(name)
        key = (fname, root)
        if key in demanded:
            return
        demanded.add(key)
        function = functions[fname]
        for member in aliases[fname].members(name):
            if member in global_names and member not in demanded_globals:
                demanded_globals.add(member)
                for other in functions:
                    pending.append(("demand", other, member))
            for index in defs_by[fname].get(member, ()):
                pending.append(("mark", fname, index))
                instr = function.instrs[index]
                kind = type(instr)
                if kind is ins.CallDirect and instr.dst == member:
                    pending.append(("rets", instr.func))
                elif kind is ins.CallIndirect and instr.dst == member:
                    for target in taken:
                        pending.append(("rets", target))
            for index in mutators_by[fname].get(member, ()):
                pending.append(("mark", fname, index))
            # A demanded value passed to a callee may be mutated (or
            # observed) there: the call and the callee's view of the
            # parameter are relevant.
            for index, callee, position in arg_pass[fname].get(member, ()):
                pending.append(("mark", fname, index))
                if callee is None:
                    for target in taken:
                        demand_param(target, position)
                elif callee in functions:
                    demand_param(callee, position)

    def process_rets(fname: str) -> None:
        if fname in returns_demanded or fname not in functions:
            return
        returns_demanded.add(fname)
        for index in ret_sites[fname]:
            pending.append(("mark", fname, index))

    # Roots: every syscall site is an outcome sink or alignment point —
    # output/network/FS effects, aborts, scheduling, sink_observe.
    for fname, function in functions.items():
        for index in function.syscall_indices():
            pending.append(("mark", fname, index))

    while pending:
        item = pending.pop()
        if item[0] == "mark":
            process_mark(item[1], item[2])
        elif item[0] == "demand":
            process_demand(item[1], item[2])
        else:
            process_rets(item[1])

    module_functions: Dict[str, FunctionRelevance] = {}
    relevant_syscalls: Set[Tuple[str, str]] = set()
    for fname, function in functions.items():
        marked = frozenset(relevant[fname])
        elidable = frozenset(range(len(function.instrs))) - marked
        if plan is not None:
            fusible = _fusible_indices(function, plan, global_names)
            regions = _regions(function, plan, fusible)
        else:
            fusible = frozenset()
            regions = ()
        module_functions[fname] = FunctionRelevance(
            fname, len(function.instrs), marked, elidable, fusible, regions
        )
        for index in function.syscall_indices():
            if index in marked:
                relevant_syscalls.add((fname, function.instrs[index].name))
    result = ModuleRelevance(module_functions, frozenset(relevant_syscalls))
    if plan is not None:
        # Edge-level refinement: which counter updates the instrumenter
        # may prune.  Attached to the classification (not the plan) so
        # the counts are identical whether or not pruning is applied.
        for fname, edges in prunable_counter_edges(
            module, plan, relevance=result
        ).items():
            module_functions[fname].prunable_edges = dict(edges)
    return result
