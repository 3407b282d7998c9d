"""Interprocedural static taint: a sound over-approximation of LDX.

LDX answers "did source S causally influence sink K?" by running the
program twice with S mutated and diffing the sinks.  This pass answers
the same question without running anything, erring on the side of
"maybe": a register, global or I/O channel is *tainted* when a mutated
source value could possibly alter it, and a sink site is *flagged* when
a tainted value (or a tainted control decision) may reach it.

Soundness is the whole point — the set of flagged ``(function,
syscall)`` sink sites must contain every detection the dual-execution
engine can ever report for the same program and configuration, so the
engine uses this pass as an oracle (``--check-static``): a dynamic
causal verdict outside the static may-depend set is an engine bug, not
a program property.  That forces the rules to cover every divergence
channel the engine has: data flow, control flow (via the
Ferrante–Ottenstein–Warren dependence from
:mod:`repro.analysis.controldep`), environment channels (write a
tainted value to the filesystem, read it back later), crash divergence
(a trap in one run truncates every later sink) and schedule divergence
in threaded programs.

Taint is a four-point lattice per register, exploiting the engine's
mutator contract (every mutator perturbs only alphanumeric characters
and preserves string length — see :mod:`repro.core.mutation`):

* ``CLEAN`` — equal in both runs.
* ``MUTATED`` — differs only the way a mutator can make it differ:
  alphanumeric content; length and separator/framing characters are
  intact.  ``str_split`` of such a value yields the same field count in
  both runs, and indexing *into* it cannot trap in one run only.
* ``TAINTED`` — content arbitrary (e.g. ``chr`` of a mutated int can
  turn a letter into a separator) but shape — length, list size —
  still equal, so indexing by an untainted index is still two-run safe
  while structure-sensitive operations (``str_split``,
  ``str_replace``, ``str_strip``) no longer are.
* ``SHAPED`` — even the shape may differ (built under divergent
  control, length driven by a tainted count, read from a tainted
  channel): indexing through it may trap in exactly one run, which is a
  crash-divergence channel (``may_abort``).

Every rule moves values monotonically up this lattice; per-builtin
transfer functions encode which operations launder ``MUTATED`` into
``TAINTED`` (arbitrary-content producers) or into ``SHAPED``
(length/shape producers like ``to_str`` of a mutated int, whose string
length differs between ``9`` and ``10``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.controldep import transitive_control_dependence
from repro.analysis.lockset import LocksetReport, address_taken, funcref_targets
from repro.cfg.callgraph import CallGraph
from repro.ir import instructions as ins
from repro.ir.function import IRModule
from repro.lang.intrinsics import SYSCALL_BUILTINS

# The taint lattice (monotone, join = max).
CLEAN = 0
MUTATED = 1  # alnum-only divergence; structure and length intact
TAINTED = 2  # arbitrary content; shape (length) intact
SHAPED = 3  # even length/shape may diverge

LEVEL_NAMES = {CLEAN: "clean", MUTATED: "mutated", TAINTED: "tainted", SHAPED: "shaped"}

# Syscalls whose results carry configured-source data.
_SOURCE_SYSCALLS = {
    "file": frozenset({"read", "read_line"}),
    "network": frozenset({"recv"}),
    "env": frozenset({"getenv"}),
    "label": frozenset({"source_read"}),
}


class StaticSeeds:
    """What starts tainted and what counts as a sink, derived from an
    :class:`~repro.core.config.LdxConfig` plus the lockset report."""

    __slots__ = ("source_syscalls", "sink_syscalls", "racy_globals", "shared_globals")

    def __init__(
        self,
        source_syscalls: FrozenSet[str],
        sink_syscalls: FrozenSet[str],
        racy_globals: FrozenSet[str] = frozenset(),
        shared_globals: FrozenSet[str] = frozenset(),
    ) -> None:
        self.source_syscalls = source_syscalls
        self.sink_syscalls = sink_syscalls
        self.racy_globals = racy_globals
        self.shared_globals = shared_globals

    def fingerprint(self) -> str:
        """Stable identity of the seed configuration (for cache keys).

        Racy/shared globals are derived from the program text itself,
        so the syscall name sets alone determine the analysis given a
        source."""
        return (
            "src=" + ",".join(sorted(self.source_syscalls))
            + ";sink=" + ",".join(sorted(self.sink_syscalls))
        )

    @classmethod
    def from_config(
        cls, config, lockset_report: Optional[LocksetReport] = None
    ) -> "StaticSeeds":
        """Sound projection of a dynamic config onto syscall names.

        Resource identity (which file path, which connection, which env
        name) is a runtime notion; statically every syscall of a
        configured source's kind may return mutated data.
        """
        sources: Set[str] = set()
        spec = config.sources
        if spec.file_paths or spec.stdin:
            sources |= _SOURCE_SYSCALLS["file"]
        if spec.network:
            sources |= _SOURCE_SYSCALLS["network"]
        if spec.env_names:
            sources |= _SOURCE_SYSCALLS["env"]
        if spec.labels:
            sources |= _SOURCE_SYSCALLS["label"]
        sinks: Set[str] = set(config.sinks.syscall_names)
        sinks.add("sink_observe")  # labels resolve at runtime: keep all
        if config.sinks.malloc_sinks:
            sinks.add("malloc")
        racy = lockset_report.racy_globals if lockset_report else frozenset()
        shared = lockset_report.shared_globals if lockset_report else frozenset()
        return cls(frozenset(sources), frozenset(sinks), racy, shared)


class StaticCausality:
    """Result of the taint fixpoint: the static may-depend relation."""

    __slots__ = (
        "flagged",
        "sink_sites",
        "tainted_globals",
        "tainted_channels",
        "skip_functions",
        "may_abort",
        "abort_reasons",
        "seeds",
    )

    def __init__(
        self,
        flagged: FrozenSet[Tuple[str, str]],
        sink_sites: FrozenSet[Tuple[str, str]],
        tainted_globals: FrozenSet[str],
        tainted_channels: FrozenSet[str],
        skip_functions: FrozenSet[str],
        may_abort: bool,
        abort_reasons: Tuple[str, ...],
        seeds: StaticSeeds,
    ) -> None:
        self.flagged = flagged
        self.sink_sites = sink_sites
        self.tainted_globals = tainted_globals
        self.tainted_channels = tainted_channels
        self.skip_functions = skip_functions
        self.may_abort = may_abort
        self.abort_reasons = abort_reasons
        self.seeds = seeds

    def may_depend(self, function: str, syscall: str) -> bool:
        """May the configured sources influence sink *syscall* in
        *function*?  Every dynamic detection must satisfy this."""
        if self.may_abort:
            return True
        return (function, syscall) in self.flagged

    def causality_possible(self) -> bool:
        """Any sink statically reachable from the sources at all?"""
        return self.may_abort or bool(self.flagged)


def _channel_of(name: str) -> Optional[Tuple[str, str]]:
    """(channel, direction) of a syscall, or None for non-I/O."""
    category = SYSCALL_BUILTINS.get(name, "")
    if category in ("file", "file-in", "file-out"):
        direction = "in" if category == "file-in" else "out"
        return ("fs", direction)
    if category in ("net", "net-in", "net-out"):
        direction = "in" if category == "net-in" else "out"
        return ("net", direction)
    return None


def _builtin_result_level(name: str, args: List[str], level) -> int:
    """Lattice level of a pure builtin's result, given ``level(reg)``.

    Encodes which builtins preserve the mutator contract and which
    launder ``MUTATED`` into arbitrary content or divergent shape.
    """
    levels = [level(a) for a in args]
    peak = max(levels, default=CLEAN)
    if peak == CLEAN:
        return CLEAN

    if name in ("len", "is_nil", "is_str", "is_int", "is_list", "type_of"):
        # Shape/type observers: equal in both runs unless the shape
        # itself may diverge.
        return TAINTED if peak >= SHAPED else CLEAN
    if name == "chr":
        # A perturbed code point maps to an arbitrary character —
        # possibly a separator: content no longer mutator-shaped.
        return max(peak, TAINTED)
    if name == "to_str":
        # str(9) and str(10) have different lengths.
        return max(peak, SHAPED)
    if name in ("str_repeat", "list_fill"):
        # Tainted repeat counts change the length outright.
        count_peak = max(levels[1:], default=CLEAN) if name == "str_repeat" else peak
        if count_peak >= MUTATED:
            return SHAPED
        return peak
    if name in ("substr", "slice"):
        # Tainted bounds select different-length pieces.
        if max(levels[1:], default=CLEAN) >= MUTATED:
            return SHAPED
        return peak
    if name == "str_split":
        # Separator structure of a MUTATED value is intact: the field
        # count is two-run equal.  Arbitrary content (or a tainted
        # separator argument) is not.
        if peak >= TAINTED:
            return SHAPED
        return peak
    if name in ("str_replace", "str_strip"):
        # Both are structure-sensitive even on MUTATED data: the
        # replaced pattern / stripped whitespace may match differently.
        if name == "str_replace":
            return SHAPED
        return SHAPED if peak >= TAINTED else peak
    if name in ("parse_int", "ord", "hash32", "str_find", "index_of",
                "min", "max", "abs", "i32_add", "i32_mul", "i32_sub"):
        # Scalar results: shape is meaningless, cap at TAINTED.
        return min(peak, TAINTED)
    # Everything else (concat, str_join, str_upper, push results, …)
    # preserves its inputs' divergence class.
    return peak


# Builtins that mutate their first argument in place.
_MUTATING_BUILTINS = frozenset({"push", "pop", "sort", "reverse"})


def static_causality(
    module: IRModule,
    seeds: StaticSeeds,
    callgraph: Optional[CallGraph] = None,
) -> StaticCausality:
    """Run the interprocedural taint fixpoint over *module*."""
    callgraph = callgraph if callgraph is not None else CallGraph(module)
    global_names = frozenset(module.global_values)
    taken = address_taken(module)
    threaded = any(
        isinstance(instr, ins.Syscall) and instr.name == "thread_spawn"
        for function in module.functions.values()
        for instr in function.instrs
    )

    cdep: Dict[str, Dict[int, Set[int]]] = {
        name: transitive_control_dependence(function)
        for name, function in module.functions.items()
    }

    # Lattice state.  Globals share one map; locals are per function.
    global_levels: Dict[str, int] = {
        name: SHAPED for name in seeds.racy_globals & global_names
    }
    local_levels: Dict[str, Dict[str, int]] = {
        name: {} for name in module.functions
    }
    tainted_channels: Set[str] = set()
    skip_functions: Set[str] = set()
    ret_levels: Dict[str, int] = {}
    flagged: Set[Tuple[str, str]] = set()
    sink_sites: Set[Tuple[str, str]] = set()
    may_abort = False
    abort_reasons: List[str] = []
    abort_seen: Set[str] = set()

    for name, function in module.functions.items():
        for instr in function.instrs:
            if isinstance(instr, ins.Syscall) and instr.name in seeds.sink_syscalls:
                sink_sites.add((name, instr.name))

    changed = True

    def record_abort(reason: str) -> None:
        nonlocal may_abort, changed
        if reason in abort_seen:
            return
        abort_seen.add(reason)
        abort_reasons.append(reason)
        may_abort = True
        changed = True

    def spawn_targets(fn: str, register: str) -> Set[str]:
        resolved = funcref_targets(module.functions[fn], register)
        if resolved is None:
            return set(taken)
        return {t for t in resolved if t in module.functions}

    while changed:
        changed = False
        any_control_taint = False
        for name, function in module.functions.items():
            instrs = function.instrs
            fn_cdep = cdep[name]
            locals_here = local_levels[name]

            def level(register: str) -> int:
                if register in global_names:
                    return global_levels.get(register, CLEAN)
                return locals_here.get(register, CLEAN)

            def raise_to(register: str, new_level: int) -> None:
                nonlocal changed
                if new_level <= CLEAN:
                    return
                if register in global_names:
                    if global_levels.get(register, CLEAN) < new_level:
                        global_levels[register] = new_level
                        changed = True
                elif locals_here.get(register, CLEAN) < new_level:
                    locals_here[register] = new_level
                    changed = True

            # Control-tainted instruction indices for this iteration.
            if name in skip_functions:
                control_tainted = set(range(len(instrs)))
            else:
                control_tainted = set()
                tainted_branches = {
                    index
                    for index, instr in enumerate(instrs)
                    if isinstance(instr, ins.CJump) and level(instr.cond) >= MUTATED
                }
                if tainted_branches:
                    for index in range(len(instrs)):
                        if fn_cdep[index] & tainted_branches:
                            control_tainted.add(index)
            if control_tainted:
                any_control_taint = True

            for index, instr in enumerate(instrs):
                ct = index in control_tainted
                if isinstance(instr, (ins.Const, ins.Move, ins.Binop, ins.Unop,
                                      ins.LoadIndex, ins.NewList)):
                    dst = instr.defs()
                    if dst is not None:
                        peak = max(
                            (level(u) for u in instr.uses()), default=CLEAN
                        )
                        if ct:
                            # Which definition executes is decided by a
                            # tainted branch: the value is arbitrary.
                            peak = SHAPED
                        raise_to(dst, peak)
                    if isinstance(instr, ins.Binop) and instr.op in ("/", "%"):
                        if level(instr.right) >= MUTATED:
                            record_abort(
                                f"{name}@{index}: tainted divisor in"
                                f" {instr.op!r} may be zero in one run"
                            )
                    if isinstance(instr, ins.LoadIndex):
                        if level(instr.index) >= MUTATED:
                            record_abort(
                                f"{name}@{index}: tainted index may be"
                                " out of range in one run"
                            )
                        elif level(instr.base) >= SHAPED:
                            record_abort(
                                f"{name}@{index}: indexing a value whose"
                                " shape may diverge"
                            )
                elif isinstance(instr, ins.StoreIndex):
                    if ct:
                        raise_to(instr.base, SHAPED)
                    else:
                        raise_to(
                            instr.base,
                            max(level(instr.src), level(instr.index)),
                        )
                    if level(instr.index) >= MUTATED:
                        record_abort(
                            f"{name}@{index}: tainted store index may be"
                            " out of range in one run"
                        )
                    elif level(instr.base) >= SHAPED:
                        record_abort(
                            f"{name}@{index}: storing through a value"
                            " whose shape may diverge"
                        )
                elif isinstance(instr, ins.CallBuiltin):
                    dst = instr.defs()
                    result = _builtin_result_level(instr.name, instr.args, level)
                    if ct:
                        result = SHAPED
                    if dst is not None:
                        raise_to(dst, result)
                    if instr.name in _MUTATING_BUILTINS and instr.args:
                        # push/pop/sort/reverse mutate their first
                        # argument.  Same call count in both runs keeps
                        # the shape; divergent control does not.
                        if ct:
                            raise_to(instr.args[0], SHAPED)
                        else:
                            raise_to(
                                instr.args[0],
                                max(level(a) for a in instr.args),
                            )
                elif isinstance(instr, (ins.CallDirect, ins.CallIndirect)):
                    if isinstance(instr, ins.CallDirect):
                        targets = {instr.func} & set(module.functions)
                        callee_level = CLEAN
                    else:
                        targets = spawn_targets(name, instr.callee)
                        callee_level = level(instr.callee)
                    for target in targets:
                        callee = module.functions[target]
                        callee_locals = local_levels[target]
                        if ct or callee_level >= MUTATED:
                            if target not in skip_functions:
                                skip_functions.add(target)
                                changed = True
                        for arg, param in zip(instr.args, callee.params):
                            # Forward: the argument's class reaches the
                            # parameter (arbitrary under divergent
                            # control / target).
                            forward = level(arg)
                            if ct or callee_level >= MUTATED:
                                forward = SHAPED
                            if param in global_names:
                                raise_to(param, forward)
                            elif callee_locals.get(param, CLEAN) < forward:
                                callee_locals[param] = forward
                                changed = True
                            # Backward: the callee may mutate a list
                            # argument in place.
                            back = (
                                global_levels.get(param, CLEAN)
                                if param in global_names
                                else callee_locals.get(param, CLEAN)
                            )
                            raise_to(arg, back)
                        result = ret_levels.get(target, CLEAN)
                        if ct or callee_level >= MUTATED:
                            result = SHAPED
                        raise_to(instr.dst, result)
                elif isinstance(instr, ins.Syscall):
                    sc_name = instr.name
                    arg_peak = max(
                        (level(a) for a in instr.args), default=CLEAN
                    )
                    site_tainted = ct or arg_peak >= MUTATED
                    dst = instr.defs()
                    if sc_name == "thread_spawn" and instr.args:
                        for target in spawn_targets(name, instr.args[0]):
                            callee = module.functions[target]
                            if ct and target not in skip_functions:
                                skip_functions.add(target)
                                changed = True
                            if callee.params and site_tainted:
                                param = callee.params[0]
                                target_locals = local_levels[target]
                                if param in global_names:
                                    raise_to(param, SHAPED)
                                elif target_locals.get(param, CLEAN) < SHAPED:
                                    target_locals[param] = SHAPED
                                    changed = True
                    if sc_name == "exit" and site_tainted:
                        # Divergent (or divergently-reached) process
                        # exit truncates every later sink anywhere.
                        record_abort(
                            f"{name}@{index}: exit() under tainted"
                            " control or with tainted status"
                        )
                    if sc_name in seeds.source_syscalls and dst is not None:
                        # A directly mutated value keeps its length and
                        # separator structure: the mutator contract.
                        raise_to(dst, MUTATED)
                    channel = _channel_of(sc_name)
                    if channel is not None:
                        chan, direction = channel
                        if site_tainted and chan not in tainted_channels:
                            tainted_channels.add(chan)
                            changed = True
                        if direction == "in" and chan in tainted_channels:
                            # Reading data the program wrote divergently
                            # (or through a divergently-positioned
                            # handle): arbitrary result.
                            if dst is not None:
                                raise_to(dst, SHAPED)
                            site_tainted = True
                    if site_tainted:
                        if dst is not None:
                            # A divergent syscall may return arbitrarily
                            # different data (lengths included).
                            raise_to(dst, SHAPED)
                        if sc_name in seeds.sink_syscalls:
                            if (name, sc_name) not in flagged:
                                flagged.add((name, sc_name))
                                changed = True
                elif isinstance(instr, ins.Ret):
                    current = ret_levels.get(name, CLEAN)
                    result = current
                    if ct:
                        # Which return executes is branch-decided.
                        result = SHAPED
                    elif instr.src is not None:
                        result = max(result, level(instr.src))
                    if result > current:
                        ret_levels[name] = result
                        changed = True

        # Schedule divergence: once control flow anywhere is tainted in
        # a threaded program, timing (and with it lock-acquisition
        # order) may diverge — every conflicting shared global, even a
        # consistently locked one, may end up with different contents.
        if threaded and (any_control_taint or may_abort):
            for shared in seeds.shared_globals & global_names:
                if global_levels.get(shared, CLEAN) < SHAPED:
                    global_levels[shared] = SHAPED
                    changed = True

    if may_abort:
        flagged |= sink_sites

    tainted_globals = frozenset(
        name for name, lvl in global_levels.items() if lvl >= MUTATED
    )
    return StaticCausality(
        flagged=frozenset(flagged),
        sink_sites=frozenset(sink_sites),
        tainted_globals=tainted_globals,
        tainted_channels=frozenset(tainted_channels),
        skip_functions=frozenset(skip_functions),
        may_abort=may_abort,
        abort_reasons=tuple(abort_reasons),
        seeds=seeds,
    )
