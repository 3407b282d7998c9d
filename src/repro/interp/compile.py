"""Closure-compiled ("threaded code") interpreter backend.

The switch backend walks a ``type(instr)`` if/elif chain, resolves
operator strings, looks up builtins and consults the instrumentation
plan on **every** executed instruction.  This module pays all of that
once, at compile time: each :class:`~repro.ir.function.IRFunction` plus
its :class:`~repro.instrument.plan.FunctionPlan` becomes a flat array
of per-instruction *step closures*

    ``step(machine, thread, frame) -> Optional[Event]``

with everything pre-resolved:

* operators come from :data:`~repro.ir.ops.BINOP_FUNCS` /
  :data:`UNOP_FUNCS` (no op-string comparison per execution);
* builtins are captured handlers (no registry lookup per call);
* successor indices are captured constants;
* edge-action lists are classified at compile time — action-free edges
  become a plain index store, pure ``CounterAdd`` runs are folded into
  one integer add (via :func:`~repro.instrument.plan.fold_counter_adds`),
  and edges carrying ``LoopSync``/``LoopExit`` barrier bookkeeping stay
  thunks into the machine's general action machinery;
* names that are provably frame-local (module globals form a fixed key
  set) read and write ``frame.locals`` directly, skipping the
  locals-then-globals probe;
* the plan's *fusible* set (event-free instructions with free or
  foldable out-edges, decided once by ``analysis/relevance.py``)
  becomes *superinstruction regions*: one ``exec``-generated closure
  per landing index walks the CFG through fusible instructions,
  inlining branches as if/else whose arms meet again at the branch's
  join (the code after it is emitted once), turning edges back to its
  head into ``while True`` re-entries, and holding the virtual clock,
  instruction count and path-local registers in Python locals, so the
  driver loop runs once per region pass instead of once per
  instruction.  A module compiled without a plan fuses nothing.
  A region's code is a pure function of the instrumented artifact: it
  is stored under the artifact's identity (:func:`region_key`) as a
  generated *binder* that rebuilds the live objects the region needs
  from the compiler, so a warm landing emits nothing.

The contract is **byte identity**: a compiled run must produce the
same events, counter stacks, virtual clocks and MachineStats as the
switch interpreter, bit for bit.  That drives three non-obvious rules:

* virtual-clock charges are floats, and float addition is not
  associative — a folded counter edge still charges
  ``costs.edge_action`` once per original action, in sequence, never as
  one multiplied add (a region folds a run of charges into one
  left-to-right sum, which adds in that same sequence);
* a region pre-checks a conservative instruction budget for one pass
  and, near the limit, runs only its unfused base step, so the budget
  error fires at the exact instruction with the exact state;
* members whose errors embed a code location (index loads/stores)
  sync ``frame.index`` first, keeping crash surfaces identical.

Rare or complex operations (calls, returns, syscalls, indexing) keep
delegating to the machine's existing helpers, so observer callbacks,
scoping and error surfaces stay single-sourced.
"""

from __future__ import annotations

import functools
import marshal
import sys
import weakref
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.instrument.plan import FunctionPlan, ModulePlan, fold_counter_adds
from repro.interp.builtins import BUILTINS
from repro.interp.events import SyscallEvent
from repro.ir import instructions as ins
from repro.ir.function import IRFunction, IRModule
from repro.ir.ops import BINOP_FUNCS, UNOP_FUNCS, truthy

BACKEND_SWITCH = "switch"
BACKEND_THREADED = "threaded"
BACKENDS = (BACKEND_SWITCH, BACKEND_THREADED)

# A step executes one (possibly fused) instruction and applies its
# out-edge; it returns an event when the thread must yield.
Step = Callable[["Machine", "ThreadState", "Frame"], Optional[object]]

# Region size limits: total emitted members per generated region (a
# member emitted in several arms counts every copy; bounds code size),
# the per-path member limit (bounds how many instructions one pass can
# execute; a join continues the longer arm's count), and the
# conservative instruction-budget bound per pass derived from it (every
# path member at most once, plus the terminator prologue).  Any setting
# is byte-safe: caps only shape how much code one region covers.
REGION_CAP = 320
REGION_PATH_CAP = 80
REGION_BOUND = REGION_PATH_CAP + 2

# Binops whose Python operator IS the MiniC semantics when both
# operands are plain ints (``type(x) is int`` — bools excluded); for
# ==/!= the same holds for two strs.  Generated members inline these
# and fall back to the BINOP_FUNCS handler for every other shape.
_INT_FAST_BINOPS = {
    "+": "+", "-": "-", "*": "*",
    "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "==": "==", "!=": "!=",
}

# What a region walk can prove about a local ("any" is written but
# unproven); a proven shape is exact, so ``type(x) is int`` holds for
# "int" and fails for every other proven shape.
_PROVEN_SHAPES = ("int", "bool", "str", "list")


def _shape_guard(operands, shape: str) -> Optional[str]:
    """The run-time check that every ``(temp, proven type)`` operand is
    exactly *shape*: "" when all are proven, None when one is proven
    to be another shape (the check could never pass)."""
    checks = []
    for temp, proven in operands:
        if proven == shape:
            continue
        if proven in _PROVEN_SHAPES:
            return None
        checks.append(f"type({temp}) is {shape}")
    return " and ".join(checks)


# Binops whose result is a Python bool whatever the operands (see
# ``repro.ir.ops``: ``_equals`` and ``_compare``).
_COMPARISONS = frozenset(("==", "!=", "<", "<=", ">", ">="))

# Constant values a binder writes as literals.
_LITERAL_TYPES = (int, bool, str, type(None))
# Binder parameter names of the handler tables' entries: one parameter
# per handler a region calls, however many members call it.
_HANDLER_PARAMS = {
    "BINOP_FUNCS": {op: f"bo{k}" for k, op in enumerate(BINOP_FUNCS)},
    "UNOP_FUNCS": {op: f"uo{k}" for k, op in enumerate(UNOP_FUNCS)},
    "BUILTINS": {name: f"h{k}" for k, name in enumerate(BUILTINS)},
}


def _handler(env: Dict[str, str], table: str, key: str) -> str:
    """The binder parameter bound to ``table[key]``, added to *env*."""
    name = _HANDLER_PARAMS[table][key]
    env[name] = f"{table}[{key!r}]"
    return name


# -- backend selection ----------------------------------------------------------

_DEFAULT_BACKEND = BACKEND_THREADED


def set_default_backend(name: str) -> None:
    """Set the process-wide backend used when a Machine gets none."""
    global _DEFAULT_BACKEND
    if name not in BACKENDS:
        raise ValueError(f"unknown interpreter backend {name!r}")
    _DEFAULT_BACKEND = name


def get_default_backend() -> str:
    return _DEFAULT_BACKEND


def resolve_backend(name: Optional[str]) -> str:
    """Validate an explicit choice, or fall back to the process default."""
    if name is None:
        return _DEFAULT_BACKEND
    if name not in BACKENDS:
        raise ValueError(f"unknown interpreter backend {name!r}")
    return name


# -- compiled artifacts ----------------------------------------------------------


class CompiledFunction:
    """One function's step array, index-aligned with its instructions."""

    __slots__ = ("name", "steps", "fused_indices")

    def __init__(self, name: str, steps: List[Step], fused_indices: Tuple[int, ...]):
        self.name = name
        self.steps = steps
        self.fused_indices = fused_indices


class CompiledModule:
    """Compiled form of a whole module under one plan.

    Holds a strong reference to the plan it was compiled against so the
    memo below, keyed by ``id(plan)``, can never serve a stale entry for
    a recycled object id.  Nothing in it refers to the module, the
    memo's weak key, so the entry dies with the module.
    """

    __slots__ = ("functions", "plan")

    def __init__(
        self,
        functions: Dict[str, CompiledFunction],
        plan: Optional[ModulePlan],
    ) -> None:
        self.functions = functions
        self.plan = plan

    def steps_for(self, name: str) -> List[Step]:
        return self.functions[name].steps

    @property
    def fused_count(self) -> int:
        return sum(len(f.fused_indices) for f in self.functions.values())


# -- the compiler ----------------------------------------------------------------


class _Path:
    """What a region walk knows at one point of an emitted path.

    *cum* is the counter compensation ``(delta, count)`` not yet
    flushed; *count* and *charges* are the instructions not yet added
    to ``n`` and the clock terms (``"icost"``/``"ec"``, in execution
    order) not yet added to ``clock``; *visited* and *length* bound the
    path; *bindings* and *types* are the register cache of
    :meth:`_FunctionCompiler._emit_member`.
    """

    __slots__ = ("cum", "count", "charges", "visited", "length", "bindings", "types")

    def __init__(self, cum, count, charges, visited, length, bindings, types):
        self.cum = cum
        self.count = count
        self.charges = charges
        self.visited = visited
        self.length = length
        self.bindings = bindings
        self.types = types

    def fork(self) -> "_Path":
        return _Path(
            self.cum, self.count, self.charges, self.visited, self.length,
            dict(self.bindings), dict(self.types),
        )


class _FunctionCompiler:
    def __init__(
        self,
        module: IRModule,
        function: IRFunction,
        plan: Optional[FunctionPlan],
        global_names: frozenset,
        fusible: FrozenSet[int] = frozenset(),
        link: Optional[Dict[str, Tuple[Optional[FunctionPlan], List[Step]]]] = None,
        artifact: Optional[str] = None,
    ) -> None:
        # The callee table, not the module: lazy region steps keep the
        # compiler alive, and a reference to the module would keep the
        # memo's weak key alive with it.
        self.functions = module.functions
        self.function = function
        self.plan = plan
        self.global_names = global_names
        # The instructions regions may cover: the plan's fusible set
        # (analysis/relevance.py), empty when nothing is to be fused.
        self.fusible = fusible
        # Module-wide callee registry, filled by compile_module after
        # every function is compiled: name -> (FunctionPlan, steps).
        # Direct-call steps use it to build callee frames without the
        # machine's per-call plan/steps lookups.
        self.link = link
        # Content key of the instrumented artifact the module and plan
        # came from (``ModulePlan.artifact_key``); None when they were
        # instrumented outside the artifact cache.
        self.artifact = artifact

    def compile(self) -> CompiledFunction:
        base: List[Step] = [
            self._compile_one(index, instr)
            for index, instr in enumerate(self.function.instrs)
        ]
        steps = list(base)
        # Every fusible index gets its own region (not just region
        # heads): calls, syscall resumes and branch targets can land the
        # driver anywhere, and the step at that index must execute
        # exactly the instructions from there.  Regions reference *base*
        # steps for their slow path and terminators, never other
        # regions.  The code itself is generated lazily, the first time
        # the driver lands on an index (most indices never are).
        fused = tuple(sorted(self.fusible))
        for index in fused:
            steps[index] = self._lazy_step(index, base, steps)
        return CompiledFunction(self.function.name, steps, fused)

    def _lazy_step(self, index: int, base: List[Step], steps: List[Step]) -> Step:
        """A self-replacing step: on first execution, generate the
        region at *index*, install it in *steps*, and run it."""

        def stub(machine, thread, frame, _index=index,
                 _build=self._compile_region, _base=base, _steps=steps):
            run = _build(_index, _base)
            _steps[_index] = run
            return run(machine, thread, frame)

        return stub

    # -- name access -------------------------------------------------------------

    def _is_local(self, name: str) -> bool:
        """True when *name* can never resolve to a module global.

        ``Machine.globals`` is seeded from ``module.global_values`` and
        its key set never grows, so any name outside that set is
        provably frame-local.
        """
        return name not in self.global_names

    def _reader(self, name: str):
        if name not in self.global_names:
            def read(machine, frame, _name=name):
                return frame.locals.get(_name)
        else:
            def read(machine, frame, _name=name):
                frame_locals = frame.locals
                if _name in frame_locals:
                    return frame_locals[_name]
                return machine.globals[_name]
        return read

    def _writer(self, name: str):
        if name not in self.global_names:
            def write(machine, frame, value, _name=name):
                frame.locals[_name] = value
        else:
            def write(machine, frame, value, _name=name):
                if _name in frame.locals:
                    frame.locals[_name] = value
                else:
                    machine.globals[_name] = value
        return write

    # -- edges -------------------------------------------------------------------

    def _edge_actions(self, src: int, dst: int):
        if self.plan is None:
            return None
        return self.plan.actions_for(src, dst)

    def _edge(self, src: int, dst: int) -> Optional[Step]:
        """Compiled crossing of edge src->dst; None when action-free
        (callers inline the index store)."""
        actions = self._edge_actions(src, dst)
        if not actions:
            return None
        folded = fold_counter_adds(actions)
        if folded is not None:
            delta, count = folded
            if count == 1:
                if delta == 0:
                    # Pruned (ElidedAdd) edge: accounting only, no
                    # counter math.
                    def cross(machine, thread, frame, _dst=dst):
                        thread.clock += machine.costs.edge_action
                        machine.stats.edge_actions += 1
                        frame.index = _dst
                        return None

                    return cross

                def cross(machine, thread, frame, _dst=dst, _delta=delta):
                    thread.counter_stack[-1] += _delta
                    thread.clock += machine.costs.edge_action
                    machine.stats.edge_actions += 1
                    frame.index = _dst
                    return None
            else:
                # The clock is charged per original action: one
                # multiplied float add would drift from the switch
                # backend by ulps.
                def cross(machine, thread, frame, _dst=dst, _delta=delta, _count=count):
                    thread.counter_stack[-1] += _delta
                    edge_cost = machine.costs.edge_action
                    for _ in range(_count):
                        thread.clock += edge_cost
                    machine.stats.edge_actions += _count
                    frame.index = _dst
                    return None
            return cross

        # Barrier / loop bookkeeping: the machine's action machinery
        # owns the pending-transition protocol — delegate to it.
        frozen = tuple(actions)

        def cross(machine, thread, frame, _dst=dst, _actions=frozen):
            return machine._apply_actions(thread, frame, _dst, list(_actions))

        return cross

    # -- per-instruction compilation -----------------------------------------------

    def _compile_one(self, index: int, instr: ins.Instr) -> Step:
        kind = type(instr)
        if kind is ins.Const:
            return self._compile_const(index, instr)
        if kind is ins.Move:
            return self._compile_move(index, instr)
        if kind is ins.Binop:
            return self._compile_binop(index, instr)
        if kind is ins.Unop:
            return self._compile_unop(index, instr)
        if kind is ins.Jump:
            return self._compile_jump(index, instr)
        if kind is ins.CJump:
            return self._compile_cjump(index, instr)
        if kind is ins.CallBuiltin:
            return self._compile_builtin(index, instr)
        if kind is ins.LoadIndex:
            return self._compile_loadindex(index, instr)
        if kind is ins.StoreIndex:
            return self._compile_storeindex(index, instr)
        if kind is ins.CallDirect:
            return self._compile_calldirect(index, instr)
        if kind is ins.CallIndirect:
            def step(machine, thread, frame, _instr=instr):
                return machine._execute(thread, frame, _instr)

            return step
        if kind is ins.Syscall:
            return self._compile_syscall(index, instr)
        if kind is ins.Ret:
            return self._compile_ret(index, instr)
        if kind is ins.Nop and index != self.function.exit:
            return self._compile_nop(index)
        # Everything else (NewList, the exit nop, unknown kinds) runs
        # through the switch executor — identical semantics by
        # construction, just paying the dispatch chain.
        def step(machine, thread, frame, _instr=instr):
            return machine._execute(thread, frame, _instr)

        return step

    def _compile_const(self, index: int, instr: ins.Const) -> Step:
        nxt = index + 1
        cross = self._edge(index, nxt)
        if self._is_local(instr.dst):
            if cross is None:
                def step(machine, thread, frame, _dst=instr.dst, _value=instr.value, _next=nxt):
                    frame.locals[_dst] = _value
                    frame.index = _next
                    return None
            else:
                def step(machine, thread, frame, _dst=instr.dst, _value=instr.value, _cross=cross):
                    frame.locals[_dst] = _value
                    return _cross(machine, thread, frame)
        else:
            write = self._writer(instr.dst)
            if cross is None:
                def step(machine, thread, frame, _write=write, _value=instr.value, _next=nxt):
                    _write(machine, frame, _value)
                    frame.index = _next
                    return None
            else:
                def step(machine, thread, frame, _write=write, _value=instr.value, _cross=cross):
                    _write(machine, frame, _value)
                    return _cross(machine, thread, frame)
        return step

    def _compile_move(self, index: int, instr: ins.Move) -> Step:
        nxt = index + 1
        cross = self._edge(index, nxt)
        if self._is_local(instr.dst) and self._is_local(instr.src):
            if cross is None:
                def step(machine, thread, frame, _dst=instr.dst, _src=instr.src, _next=nxt):
                    frame_locals = frame.locals
                    frame_locals[_dst] = frame_locals.get(_src)
                    frame.index = _next
                    return None
            else:
                def step(machine, thread, frame, _dst=instr.dst, _src=instr.src, _cross=cross):
                    frame_locals = frame.locals
                    frame_locals[_dst] = frame_locals.get(_src)
                    return _cross(machine, thread, frame)
        else:
            read = self._reader(instr.src)
            write = self._writer(instr.dst)
            if cross is None:
                def step(machine, thread, frame, _read=read, _write=write, _next=nxt):
                    _write(machine, frame, _read(machine, frame))
                    frame.index = _next
                    return None
            else:
                def step(machine, thread, frame, _read=read, _write=write, _cross=cross):
                    _write(machine, frame, _read(machine, frame))
                    return _cross(machine, thread, frame)
        return step

    def _compile_binop(self, index: int, instr: ins.Binop) -> Step:
        op_func = BINOP_FUNCS.get(instr.op)
        if op_func is None:
            # Unknown operator: surface the switch backend's runtime
            # error, at runtime.
            def step(machine, thread, frame, _instr=instr):
                return machine._execute(thread, frame, _instr)

            return step
        nxt = index + 1
        cross = self._edge(index, nxt)
        if (
            self._is_local(instr.dst)
            and self._is_local(instr.left)
            and self._is_local(instr.right)
        ):
            if cross is None:
                def step(
                    machine, thread, frame,
                    _op=op_func, _dst=instr.dst, _left=instr.left,
                    _right=instr.right, _next=nxt,
                ):
                    frame_locals = frame.locals
                    frame_locals[_dst] = _op(
                        frame_locals.get(_left), frame_locals.get(_right)
                    )
                    frame.index = _next
                    return None
            else:
                def step(
                    machine, thread, frame,
                    _op=op_func, _dst=instr.dst, _left=instr.left,
                    _right=instr.right, _cross=cross,
                ):
                    frame_locals = frame.locals
                    frame_locals[_dst] = _op(
                        frame_locals.get(_left), frame_locals.get(_right)
                    )
                    return _cross(machine, thread, frame)
        else:
            read_left = self._reader(instr.left)
            read_right = self._reader(instr.right)
            write = self._writer(instr.dst)
            if cross is None:
                def step(
                    machine, thread, frame,
                    _op=op_func, _rl=read_left, _rr=read_right,
                    _write=write, _next=nxt,
                ):
                    _write(
                        machine, frame,
                        _op(_rl(machine, frame), _rr(machine, frame)),
                    )
                    frame.index = _next
                    return None
            else:
                def step(
                    machine, thread, frame,
                    _op=op_func, _rl=read_left, _rr=read_right,
                    _write=write, _cross=cross,
                ):
                    _write(
                        machine, frame,
                        _op(_rl(machine, frame), _rr(machine, frame)),
                    )
                    return _cross(machine, thread, frame)
        return step

    def _compile_unop(self, index: int, instr: ins.Unop) -> Step:
        op_func = UNOP_FUNCS.get(instr.op)
        if op_func is None:
            def step(machine, thread, frame, _instr=instr):
                return machine._execute(thread, frame, _instr)

            return step
        nxt = index + 1
        cross = self._edge(index, nxt)
        if self._is_local(instr.dst) and self._is_local(instr.operand):
            if cross is None:
                def step(
                    machine, thread, frame,
                    _op=op_func, _dst=instr.dst, _operand=instr.operand, _next=nxt,
                ):
                    frame_locals = frame.locals
                    frame_locals[_dst] = _op(frame_locals.get(_operand))
                    frame.index = _next
                    return None
            else:
                def step(
                    machine, thread, frame,
                    _op=op_func, _dst=instr.dst, _operand=instr.operand, _cross=cross,
                ):
                    frame_locals = frame.locals
                    frame_locals[_dst] = _op(frame_locals.get(_operand))
                    return _cross(machine, thread, frame)
        else:
            read = self._reader(instr.operand)
            write = self._writer(instr.dst)
            if cross is None:
                def step(machine, thread, frame, _op=op_func, _read=read, _write=write, _next=nxt):
                    _write(machine, frame, _op(_read(machine, frame)))
                    frame.index = _next
                    return None
            else:
                def step(machine, thread, frame, _op=op_func, _read=read, _write=write, _cross=cross):
                    _write(machine, frame, _op(_read(machine, frame)))
                    return _cross(machine, thread, frame)
        return step

    def _compile_nop(self, index: int) -> Step:
        nxt = index + 1
        cross = self._edge(index, nxt)
        if cross is None:
            def step(machine, thread, frame, _next=nxt):
                frame.index = _next
                return None
        else:
            def step(machine, thread, frame, _cross=cross):
                return _cross(machine, thread, frame)
        return step

    def _compile_jump(self, index: int, instr: ins.Jump) -> Step:
        target = instr.target
        cross = self._edge(index, target)
        if cross is None:
            def step(machine, thread, frame, _target=target):
                frame.index = _target
                return None
        else:
            def step(machine, thread, frame, _cross=cross):
                return _cross(machine, thread, frame)
        return step

    def _compile_cjump(self, index: int, instr: ins.CJump) -> Step:
        true_cross = self._edge(index, instr.true_target)
        false_cross = self._edge(index, instr.false_target)
        if self._is_local(instr.cond):
            def step(
                machine, thread, frame,
                _cond=instr.cond, _truthy=truthy,
                _true=instr.true_target, _false=instr.false_target,
                _tc=true_cross, _fc=false_cross,
            ):
                if _truthy(frame.locals.get(_cond)):
                    if _tc is None:
                        frame.index = _true
                        return None
                    return _tc(machine, thread, frame)
                if _fc is None:
                    frame.index = _false
                    return None
                return _fc(machine, thread, frame)
        else:
            read = self._reader(instr.cond)

            def step(
                machine, thread, frame,
                _read=read, _truthy=truthy,
                _true=instr.true_target, _false=instr.false_target,
                _tc=true_cross, _fc=false_cross,
            ):
                if _truthy(_read(machine, frame)):
                    if _tc is None:
                        frame.index = _true
                        return None
                    return _tc(machine, thread, frame)
                if _fc is None:
                    frame.index = _false
                    return None
                return _fc(machine, thread, frame)
        return step

    def _compile_builtin(self, index: int, instr: ins.CallBuiltin) -> Step:
        handler = BUILTINS.get(instr.name)
        all_local = (
            handler is not None
            and self._is_local(instr.dst)
            and all(self._is_local(arg) for arg in instr.args)
        )
        if not all_local:
            def step(machine, thread, frame, _instr=instr):
                return machine._execute(thread, frame, _instr)

            return step
        nxt = index + 1
        cross = self._edge(index, nxt)
        arg_names = tuple(instr.args)
        if cross is None:
            def step(
                machine, thread, frame,
                _handler=handler, _args=arg_names, _dst=instr.dst, _next=nxt,
            ):
                frame_locals = frame.locals
                frame_locals[_dst] = _handler(
                    [frame_locals.get(arg) for arg in _args]
                )
                frame.index = _next
                return None
        else:
            def step(
                machine, thread, frame,
                _handler=handler, _args=arg_names, _dst=instr.dst, _cross=cross,
            ):
                frame_locals = frame.locals
                frame_locals[_dst] = _handler(
                    [frame_locals.get(arg) for arg in _args]
                )
                return _cross(machine, thread, frame)
        return step

    def _compile_loadindex(self, index: int, instr: ins.LoadIndex) -> Step:
        nxt = index + 1
        cross = self._edge(index, nxt)
        write = self._writer(instr.dst)
        if cross is None:
            def step(machine, thread, frame, _instr=instr, _write=write, _next=nxt):
                _write(machine, frame, machine._load_index(thread, frame, _instr))
                frame.index = _next
                return None
        else:
            def step(machine, thread, frame, _instr=instr, _write=write, _cross=cross):
                _write(machine, frame, machine._load_index(thread, frame, _instr))
                return _cross(machine, thread, frame)
        return step

    def _compile_storeindex(self, index: int, instr: ins.StoreIndex) -> Step:
        nxt = index + 1
        cross = self._edge(index, nxt)
        if cross is None:
            def step(machine, thread, frame, _instr=instr, _next=nxt):
                machine._store_index(thread, frame, _instr)
                frame.index = _next
                return None
        else:
            def step(machine, thread, frame, _instr=instr, _cross=cross):
                machine._store_index(thread, frame, _instr)
                return _cross(machine, thread, frame)
        return step

    def _compile_calldirect(self, index: int, instr: ins.CallDirect) -> Step:
        target = self.functions.get(instr.func)
        if target is None:
            # Unknown callee: keep the switch backend's runtime error.
            def step(machine, thread, frame, _instr=instr):
                return machine._enter_call(
                    thread, frame, _instr, machine.module.function(_instr.func)
                )

            return step
        if len(instr.args) != len(target.params) or not all(
            self._is_local(arg) for arg in instr.args
        ):
            # Arity mismatches and global-name arguments go through the
            # machine helper, which owns those error/lookup paths.
            def step(machine, thread, frame, _instr=instr, _target=target):
                return machine._enter_call(thread, frame, _instr, _target)

            return step
        # Resolved at compile time: whether this call site opens a fresh
        # counter scope, and the param <- arg binding list.
        scoped = self.plan is not None and index in self.plan.scoped_calls
        pairs = tuple(zip(target.params, instr.args))
        # Deferred import: machine.py imports this module at load time.
        from repro.interp.machine import Frame

        def step(
            machine, thread, frame,
            _instr=instr, _target=target, _dst=instr.dst,
            _scoped=scoped, _pairs=pairs, _link=self.link,
            _fname=instr.func, _frame_cls=Frame,
        ):
            # The callee's plan and step array are compile-time facts
            # of this CompiledModule — one registry lookup replaces the
            # machine's per-call _plan_for/_new_frame/steps_for chain.
            callee_plan, callee_steps = _link[_fname]
            callee = _frame_cls(_target, callee_plan, _dst, _scoped)
            callee.code = callee_steps
            frame_locals = frame.locals
            callee_locals = callee.locals
            for param, arg in _pairs:
                callee_locals[param] = frame_locals.get(arg)
            if _scoped:
                counter_stack = thread.counter_stack
                counter_stack.append(0)
                stats = machine.stats
                depth = len(counter_stack)
                if depth > stats.max_stack_depth:
                    stats.max_stack_depth = depth
            thread.frames.append(callee)
            observer = machine.observer
            if observer is not None:
                observer.on_call(thread, frame, callee, _instr)
            return None

        return step

    def _compile_syscall(self, index: int, instr: ins.Syscall) -> Step:
        if not all(self._is_local(arg) for arg in instr.args):
            def step(machine, thread, frame, _instr=instr):
                return machine._raise_syscall(thread, frame, _instr)

            return step
        # Deferred import: machine.py imports this module at load time.
        from repro.interp.machine import WAIT_SYSCALL

        arg_names = tuple(instr.args)
        # Arg packing specialized by arity: a literal tuple build beats
        # a generator-expression frame for the common 0-3 arg shapes.
        if len(arg_names) == 0:
            def pack(frame_locals):
                return ()
        elif len(arg_names) == 1:
            def pack(frame_locals, _a0=arg_names[0]):
                return (frame_locals.get(_a0),)
        elif len(arg_names) == 2:
            def pack(frame_locals, _a0=arg_names[0], _a1=arg_names[1]):
                return (frame_locals.get(_a0), frame_locals.get(_a1))
        elif len(arg_names) == 3:
            def pack(
                frame_locals,
                _a0=arg_names[0], _a1=arg_names[1], _a2=arg_names[2],
            ):
                return (
                    frame_locals.get(_a0),
                    frame_locals.get(_a1),
                    frame_locals.get(_a2),
                )
        else:
            def pack(frame_locals, _args=arg_names):
                return tuple(frame_locals.get(arg) for arg in _args)

        def step(
            machine, thread, frame,
            _pack=pack, _name=instr.name,
            _fname=self.function.name, _index=index,
            _event_cls=SyscallEvent, _wait=WAIT_SYSCALL,
        ):
            args = _pack(frame.locals)
            stats = machine.stats
            stats.syscalls += 1
            counter_stack = thread.counter_stack
            stats.counter_samples.append(counter_stack[-1])
            depth = len(counter_stack)
            if depth > stats.max_stack_depth:
                stats.max_stack_depth = depth
            event = _event_cls(
                machine, thread.tid, _fname, _index,
                tuple(counter_stack), _name, args,
            )
            thread.status = _wait
            thread.pending_event = event
            return event

        return step

    def _compile_ret(self, index: int, instr: ins.Ret) -> Step:
        actions = self._edge_actions(index, self.function.exit)
        folded = fold_counter_adds(actions) if actions else None
        if (actions and folded is None) or (
            instr.src is not None and not self._is_local(instr.src)
        ):
            # Barrier-on-return (guarded error) or global result name:
            # the machine helper owns those paths.
            def step(machine, thread, frame, _instr=instr):
                return machine._return(thread, frame, _instr)

            return step
        from repro.interp.machine import DONE

        delta, count = folded if folded else (0, 0)

        def step(
            machine, thread, frame,
            _src=instr.src, _delta=delta, _count=count,
            _exit=self.function.exit, _done=DONE,
        ):
            value = frame.locals.get(_src) if _src is not None else None
            # The ret -> exit edge's folded compensations, then the
            # index store — the order _apply_actions uses.
            if _count:
                thread.counter_stack[-1] += _delta
                edge_cost = machine.costs.edge_action
                for _ in range(_count):
                    thread.clock += edge_cost
                machine.stats.edge_actions += _count
            frame.index = _exit
            if frame.scoped:
                thread.counter_stack.pop()
            frames = thread.frames
            if thread.loop_stack:
                depth = len(frames)
                thread.loop_stack = [
                    record for record in thread.loop_stack if record[0] < depth
                ]
            frames.pop()
            if not frames:
                thread.result = value
                thread.status = _done
                return None
            caller = frames[-1]
            call_instr = caller.function.instrs[caller.index]
            machine._write(thread, caller, call_instr.dst, value)
            observer = machine.observer
            if observer is not None:
                observer.on_return(thread, frame, caller, call_instr.dst, value)
            return machine._advance(thread, caller, caller.index, caller.index + 1)

        return step

    def _emit_member(
        self,
        pos: int,
        index: int,
        instr: ins.Instr,
        env: Dict[str, str],
        bindings: Dict[str, str],
        types: Dict[str, Optional[str]],
        hoist: frozenset,
        rstate: Dict[str, object],
    ) -> Tuple[List[str], bool]:
        """One region member's emission, with path-local register caching.

        The live objects a member needs (readers, writers, operator
        handlers, its IR instruction) are recorded in *env* as binder
        expressions over the compiler (``_instrs[17]``,
        ``_reader(_instrs[17].src)``), never as the objects themselves:
        the generated code must stay a pure function of the artifact.

        Between joins every emitted path is straight-line, so a local
        read can be cached in a Python temp and reused by later members
        on the same path: *bindings* maps a local name to the temp
        currently holding its value (a join keeps, or copies into a
        join temp, what every arm has bound).  Stores
        always write ``fl`` through immediately (a region can spill or
        raise at any member), so re-entering the region top — where the
        emitted code reloads every temp it uses — is always safe.

        *types* tracks what is provable about each local at this point
        of the path ("int"/"bool"/"str"/"list"/None): constants seed
        it, arithmetic on proven ints propagates it, and proven shapes
        emit **unguarded** operations (no per-iteration ``type(x) is
        int`` checks).  Names in *hoist* are assumed int at region
        entry — the region prologue checks them once; any write that
        cannot be proven to keep a hoisted name int is recorded in
        ``rstate["violations"]`` so the caller's fixpoint can drop the
        name.  Unknown-typed operands that *would* profit from an int
        assumption are recorded in ``rstate["candidates"]``.
        """
        lines: List[str] = []

        def rd(name: str) -> str:
            temp = bindings.get(name)
            if temp is None:
                # Live-in on this path (read before any write): these
                # are the loop-carried register candidates.
                rstate["reads"].add(name)
                temp = f"g{pos}_{len(lines)}"
                lines.append(f"{temp} = fl.get({name!r})")
                bindings[name] = temp
            return temp

        def wr(name: str, t: Optional[str]) -> None:
            # "any" marks written-but-unproven: unlike a missing entry
            # (never touched on this path), the value no longer comes
            # from region entry, so an entry guard can't help it.
            types[name] = t if t is not None else "any"
            if t != "int" and name in hoist:
                rstate["violations"].add(name)

        def want_int(name: str) -> None:
            # Only live-in names nothing is known about: the entry
            # guard checks entry values, so a name already written on
            # this path (or of known non-int shape) gains nothing and
            # would turn the guard into a certain miss.
            if types.get(name) is None:
                rstate["candidates"].add(name)

        kind = type(instr)
        if kind is ins.Nop or kind is ins.Jump:
            return [], False
        if kind is ins.Const:
            value = instr.value
            vt = type(value)
            # A plain int, bool, str or nil is its own literal; any
            # other value is rebuilt from the instruction.
            env[f"v{pos}"] = (
                repr(value) if vt in _LITERAL_TYPES
                else f"_instrs[{index}].value"
            )
            const_type = (
                "int" if vt is int else
                "bool" if vt is bool else
                "str" if vt is str else None
            )
            if self._is_local(instr.dst):
                # env names are never reassigned: the constant itself
                # doubles as the binding.
                bindings[instr.dst] = f"v{pos}"
                wr(instr.dst, const_type)
                return [f"fl[{instr.dst!r}] = v{pos}"], False
            env[f"w{pos}"] = f"_writer(_instrs[{index}].dst)"
            return [f"w{pos}(machine, frame, v{pos})"], False
        if kind is ins.Move:
            if self._is_local(instr.dst) and self._is_local(instr.src):
                src = rd(instr.src)
                lines.append(f"fl[{instr.dst!r}] = {src}")
                bindings[instr.dst] = src
                wr(instr.dst, types.get(instr.src))
                return lines, False
            env[f"r{pos}"] = f"_reader(_instrs[{index}].src)"
            env[f"w{pos}"] = f"_writer(_instrs[{index}].dst)"
            if self._is_local(instr.dst):
                # The write bypasses the register cache: drop any
                # binding so later reads reload from the frame.
                bindings.pop(instr.dst, None)
                wr(instr.dst, None)
            return [f"w{pos}(machine, frame, r{pos}(machine, frame))"], False
        xv = f"xv{pos}"
        if kind is ins.Binop:
            bop = _handler(env, "BINOP_FUNCS", instr.op)
            if (
                self._is_local(instr.dst)
                and self._is_local(instr.left)
                and self._is_local(instr.right)
            ):
                xl, xr = rd(instr.left), rd(instr.right)
                tl, tr = types.get(instr.left), types.get(instr.right)
                fast = _INT_FAST_BINOPS.get(instr.op)
                if fast is not None:
                    both_int = tl == "int" and tr == "int"
                    both_str = tl == "str" and tr == "str"
                    if both_int or (both_str and instr.op in ("==", "!=")):
                        # Shapes proven (entry guard or dominating
                        # writes on this straight-line path): the bare
                        # Python operator IS the semantics.
                        lines.append(
                            f"fl[{instr.dst!r}] = ({xv} := {xl} {fast} {xr})"
                        )
                        bindings[instr.dst] = xv
                        wr(
                            instr.dst,
                            "int" if instr.op in ("+", "-", "*") else "bool",
                        )
                        return lines, False
                    if instr.op not in ("==", "!="):
                        # Equality is type-agnostic — assuming int for
                        # its operands buys little and risks guard
                        # misses; arithmetic and order comparisons are
                        # the induction-variable workhorses.
                        want_int(instr.left)
                        want_int(instr.right)
                    # Check only the shapes not proven on this path.
                    operands = ((xl, tl), (xr, tr))
                    guards = [_shape_guard(operands, "int")]
                    if instr.op in ("==", "!="):
                        guards.append(_shape_guard(operands, "str"))
                    guards = [guard for guard in guards if guard is not None]
                    if not guards:
                        lines.append(
                            f"fl[{instr.dst!r}] = ({xv} := {bop}({xl}, {xr}))"
                        )
                    else:
                        guard = (
                            guards[0] if len(guards) == 1
                            else " or ".join(f"({guard})" for guard in guards)
                        )
                        lines.append(
                            f"fl[{instr.dst!r}] = ({xv} := ({xl} {fast} {xr}) "
                            f"if {guard} else {bop}({xl}, {xr}))"
                        )
                else:
                    lines.append(
                        f"fl[{instr.dst!r}] = ({xv} := {bop}({xl}, {xr}))"
                    )
                bindings[instr.dst] = xv
                # Every comparison handler returns a Python bool, as
                # the bare operator does on the shapes it is used for.
                wr(instr.dst, "bool" if instr.op in _COMPARISONS else None)
                return lines, False
            env[f"rl{pos}"] = f"_reader(_instrs[{index}].left)"
            env[f"rr{pos}"] = f"_reader(_instrs[{index}].right)"
            env[f"w{pos}"] = f"_writer(_instrs[{index}].dst)"
            if self._is_local(instr.dst):
                bindings.pop(instr.dst, None)
                wr(instr.dst, None)
            return [
                f"w{pos}(machine, frame, {bop}"
                f"(rl{pos}(machine, frame), rr{pos}(machine, frame)))"
            ], False
        if kind is ins.Unop:
            uop = _handler(env, "UNOP_FUNCS", instr.op)
            if self._is_local(instr.dst) and self._is_local(instr.operand):
                xo = rd(instr.operand)
                to = types.get(instr.operand)
                if instr.op == "-":
                    if to == "int":
                        lines.append(f"fl[{instr.dst!r}] = ({xv} := -{xo})")
                        bindings[instr.dst] = xv
                        wr(instr.dst, "int")
                        return lines, False
                    want_int(instr.operand)
                    lines.append(
                        f"fl[{instr.dst!r}] = ({xv} := -{xo} "
                        f"if type({xo}) is int else {uop}({xo}))"
                    )
                elif instr.op == "not":
                    if to == "bool":
                        lines.append(f"fl[{instr.dst!r}] = ({xv} := not {xo})")
                        bindings[instr.dst] = xv
                        wr(instr.dst, "bool")
                        return lines, False
                    lines.append(
                        f"fl[{instr.dst!r}] = ({xv} := (not {xo}) "
                        f"if {xo} is True or {xo} is False else {uop}({xo}))"
                    )
                else:
                    lines.append(f"fl[{instr.dst!r}] = ({xv} := {uop}({xo}))")
                bindings[instr.dst] = xv
                wr(instr.dst, None)
                return lines, False
            env[f"r{pos}"] = f"_reader(_instrs[{index}].operand)"
            env[f"w{pos}"] = f"_writer(_instrs[{index}].dst)"
            if self._is_local(instr.dst):
                bindings.pop(instr.dst, None)
                wr(instr.dst, None)
            return [
                f"w{pos}(machine, frame, {uop}(r{pos}(machine, frame)))"
            ], False
        if kind is ins.CallBuiltin:
            handler = _handler(env, "BUILTINS", instr.name)
            if instr.name == "len" and len(instr.args) == 1:
                xa = rd(instr.args[0])
                ta = types.get(instr.args[0])
                if ta == "str" or ta == "list":
                    lines.append(f"fl[{instr.dst!r}] = ({xv} := len({xa}))")
                else:
                    lines.append(
                        f"fl[{instr.dst!r}] = ({xv} := len({xa}) "
                        f"if type({xa}) is str or type({xa}) is list "
                        f"else {handler}([{xa}]))"
                    )
                bindings[instr.dst] = xv
                # The builtin returns an int or raises: int either way.
                wr(instr.dst, "int")
                return lines, False
            if instr.name == "push" and len(instr.args) == 2:
                xa, val = rd(instr.args[0]), rd(instr.args[1])
                if types.get(instr.args[0]) == "list":
                    lines.extend([
                        f"{xa}.append({val})",
                        f"fl[{instr.dst!r}] = ({xv} := {xa})",
                    ])
                    bindings[instr.dst] = xv
                    wr(instr.dst, "list")
                    return lines, False
                lines.extend([
                    f"if type({xa}) is list:",
                    f"    {xa}.append({val})",
                    f"    {xv} = {xa}",
                    "else:",
                    f"    {xv} = {handler}([{xa}, {val}])",
                    f"fl[{instr.dst!r}] = {xv}",
                ])
                bindings[instr.dst] = xv
                wr(instr.dst, None)
                return lines, False
            if instr.name == "pop" and len(instr.args) == 1:
                xa = rd(instr.args[0])
                if types.get(instr.args[0]) == "list":
                    lines.append(
                        f"fl[{instr.dst!r}] = ({xv} := {xa}.pop() "
                        f"if {xa} else {handler}([{xa}]))"
                    )
                else:
                    lines.append(
                        f"fl[{instr.dst!r}] = ({xv} := {xa}.pop() "
                        f"if type({xa}) is list and {xa} else {handler}([{xa}]))"
                    )
                bindings[instr.dst] = xv
                wr(instr.dst, None)
                return lines, False
            args = ", ".join(rd(arg) for arg in instr.args)
            lines.append(f"fl[{instr.dst!r}] = ({xv} := {handler}([{args}]))")
            bindings[instr.dst] = xv
            wr(instr.dst, None)
            return lines, False
        if kind is ins.LoadIndex:
            env[f"i{pos}"] = f"_instrs[{index}]"
            if (
                self._is_local(instr.dst)
                and self._is_local(instr.base)
                and self._is_local(instr.index)
            ):
                xb, xi = rd(instr.base), rd(instr.index)
                tb, ti = types.get(instr.base), types.get(instr.index)
                if ti != "int":
                    want_int(instr.index)
                # Shapes proven on this path go unchecked: at least
                # the bounds check remains.
                checks = []
                if tb != "list" and tb != "str":
                    checks.append(f"(type({xb}) is list or type({xb}) is str)")
                if ti != "int":
                    checks.append(f"type({xi}) is int")
                check = " and ".join(checks + [f"0 <= {xi} < len({xb})"])
                lines.extend([
                    f"if {check}:",
                    f"    fl[{instr.dst!r}] = ({xv} := {xb}[{xi}])",
                    "else:",
                    f"    frame.index = {index}",
                    f"    fl[{instr.dst!r}] = ({xv} := "
                    f"machine._load_index(thread, frame, i{pos}))",
                ])
                bindings[instr.dst] = xv
                wr(instr.dst, None)
                return lines, False
            if self._is_local(instr.dst):
                bindings[instr.dst] = xv
                wr(instr.dst, None)
                return [
                    f"fl[{instr.dst!r}] = ({xv} := "
                    f"machine._load_index(thread, frame, i{pos}))"
                ], True
            env[f"w{pos}"] = f"_writer(_instrs[{index}].dst)"
            return [
                f"w{pos}(machine, frame, "
                f"machine._load_index(thread, frame, i{pos}))"
            ], True
        if kind is ins.StoreIndex:
            env[f"i{pos}"] = f"_instrs[{index}]"
            if (
                self._is_local(instr.base)
                and self._is_local(instr.index)
                and self._is_local(instr.src)
            ):
                xb, xi, src = rd(instr.base), rd(instr.index), rd(instr.src)
                tb, ti = types.get(instr.base), types.get(instr.index)
                if ti != "int":
                    want_int(instr.index)
                checks = []
                if tb != "list":
                    checks.append(f"type({xb}) is list")
                if ti != "int":
                    checks.append(f"type({xi}) is int")
                check = " and ".join(checks + [f"0 <= {xi} < len({xb})"])
                lines.extend([
                    f"if {check}:",
                    f"    {xb}[{xi}] = {src}",
                    "else:",
                    f"    frame.index = {index}",
                    f"    machine._store_index(thread, frame, i{pos})",
                ])
                return lines, False
            return [f"machine._store_index(thread, frame, i{pos})"], True
        if kind is ins.NewList:
            parts = []
            for item_pos, item in enumerate(instr.items):
                if self._is_local(item):
                    parts.append(rd(item))
                else:
                    env[f"r{pos}_{item_pos}"] = (
                        f"_reader(_instrs[{index}].items[{item_pos}])"
                    )
                    parts.append(f"r{pos}_{item_pos}(machine, frame)")
            items = ", ".join(parts)
            if self._is_local(instr.dst):
                lines.append(f"fl[{instr.dst!r}] = ({xv} := [{items}])")
                bindings[instr.dst] = xv
                wr(instr.dst, "list")
                return lines, False
            env[f"w{pos}"] = f"_writer(_instrs[{index}].dst)"
            return [f"w{pos}(machine, frame, [{items}])"], False
        raise AssertionError(f"unexpected region member {instr!r}")

    # -- superinstruction regions ------------------------------------------------
    #
    # A region walk follows the CFG through every fusible instruction
    # (a straight-line chain is the region with no branch arm),
    # inlining interior CJumps as generated if/else, turning edges back
    # to the region head into `while True` re-entries, and spilling to
    # the driver at revisits of interior nodes (inner loops get their
    # own regions).  Each branch's arms end at its *join*, the first
    # node both arms reach (:meth:`_region_joins`): an arm that gets
    # there falls out of the if/else, and the code from the join on is
    # emitted once, not once per arm.  Arms that re-enter, leave the
    # region or spill before the join end as their own paths.
    # Counter compensation along a path is a compile-time constant, so
    # it flushes as ONE literal add at each exit (or join) instead of
    # one add per edge — the "single precomputed aggregate add" of the
    # paper's Algorithm 2.  The instruction count and virtual-clock
    # charges fold the same way: one ``n += k`` and one left-to-right
    # chain ``clock = clock + icost + ec + icost``, which performs the
    # switch backend's float additions in their order (never a
    # multiplied add: float addition is not associative and the
    # contract is byte identity).

    def _compile_region(self, start: int, base: List[Step]) -> Step:
        """The region step at *start*.

        Its binders' code is found by the artifact's identity (and
        emitted and compiled only on a miss), then bound to this
        compiler's live objects: a warm landing is key lookup,
        ``marshal.loads``, ``exec`` and a ``bind`` call per variant.

        A region that would hold only its head instruction is its base
        step: handing the next instruction straight to its base step
        saves the driver one iteration, which the region's prologue and
        exit cost again, so it gets no code at all.
        """
        instr = self.function.instrs[start]
        kind = type(instr)
        if kind is ins.CJump:
            targets = (instr.true_target, instr.false_target)
        else:
            targets = (instr.target if kind is ins.Jump else start + 1,)
        if all(target != start and target not in self.fusible for target in targets):
            return base[start]
        key = None
        if self.artifact is not None:
            key = region_key(self.artifact, self.function.name, start)
        run = None
        for code in _region_code(key, lambda: self._region_sources(start)):
            namespace = dict(_BIND_GLOBALS)
            exec(code, namespace)
            # ``run`` keeps *namespace* as its globals; popping the
            # binder lets its code be freed once it has built ``run``.
            bind = namespace.pop("bind")
            run = bind(base, self.function.instrs, self._reader, self._writer, run)
        return run

    def _region_sources(self, start: int) -> List[str]:
        """Sources of the binders of the region at *start*, one per
        variant.

        Each ``bind(_base, _instrs, _reader, _writer, generic)``
        rebuilds every value its ``run`` takes as a default argument
        from the live compiler, defines ``run`` and returns it.  A
        region with hoisted int guards has a second binder, whose
        specialized ``run`` falls back to the *generic* one the first
        returned.  Each variant compiles on its own: one ``compile()``
        of both would double the peak memory of the largest regions.
        """
        # Pass 1: generic emission (no entry assumptions).  Its
        # candidate set records which locals would shed per-iteration
        # int guards if proven int at entry, and its read set records
        # which locals the region loads from the frame.
        joins = self._region_joins(start)
        env, body, state = self._emit_region_parts(start, joins, frozenset())
        carried = ()
        if state["loop"] and state["reads"]:
            # Self-reentering region: keep every local the body reads
            # in a Python register, loaded once at region entry and
            # reconciled at each join and back-edge, so iterations
            # never reload from the locals dict.  (Writes still go
            # through ``fl`` eagerly, so any exit sees a consistent
            # frame.)
            carried = tuple(sorted(state["reads"]))
            env, body, state = self._emit_region_parts(
                start, joins, frozenset(), carried
            )
        sources = [self._assemble_region(start, env, body, state, (), carried)]
        if state["loop"] and state["candidates"]:
            # Pass 2 (self-reentering regions only): hoist-set fixpoint.
            # Assume every candidate is int at entry, re-emit, and drop
            # any name some write cannot be proven to keep int; repeat
            # until the surviving set is self-consistent (`i = i + 1`
            # survives because its write is int *given* the assumption).
            trial = frozenset(state["candidates"])
            while trial:
                env_h, body_h, state_h = self._emit_region_parts(
                    start, joins, trial, carried
                )
                bad = state_h["violations"]
                if not bad:
                    # The specialized variant checks the hoisted
                    # registers once at region entry; a miss (a
                    # genuinely non-int loop) dispatches to the generic
                    # variant, so the slow path replays with
                    # byte-identical observables.
                    sources.append(self._assemble_region(
                        start, env_h, body_h, state_h,
                        tuple(sorted(trial)), carried,
                    ))
                    break
                trial = trial - bad
        return sources

    def _region_joins(self, start: int) -> Dict[int, int]:
        """The join of every two-way branch the region at *start* can
        inline: the first node, in reverse postorder of the region's
        graph, that both arms reach.

        The graph's nodes are the fusible instructions reachable from
        *start*; a non-fusible successor (where the region hands over
        to a base step) and *start* as a successor (a re-entry) are
        sinks, so arms that both leave through the same terminator, or
        both re-enter, join there too.  In structured code this is the
        branch's immediate postdominator once early exits are set
        aside.  Any choice is byte-safe: an arm that never meets its
        join just ends on its own.
        """
        instrs = self.function.instrs
        fusible = self.fusible
        reenter = -1

        def successors(index: int) -> Tuple[int, ...]:
            if index == reenter or index not in fusible:
                return ()
            instr = instrs[index]
            kind = type(instr)
            if kind is ins.CJump:
                targets = (instr.true_target, instr.false_target)
            elif kind is ins.Jump:
                targets = (instr.target,)
            else:
                targets = (index + 1,)
            return tuple(reenter if t == start else t for t in targets)

        # Depth-first from the head, dropping back edges (to a node
        # still on the stack): the walk spills at those revisits, so
        # what lies beyond them is never inlined.  What remains is a
        # DAG, and its reverse postorder is a topological order.
        dag: Dict[int, List[int]] = {start: []}
        active = {start}
        postorder: List[int] = []
        stack = [(start, iter(successors(start)))]
        while stack:
            node, pending = stack[-1]
            for nxt in pending:
                if nxt in active:
                    continue
                dag[node].append(nxt)
                if nxt not in dag:
                    dag[nxt] = []
                    active.add(nxt)
                    stack.append((nxt, iter(successors(nxt))))
                    break
            else:
                stack.pop()
                active.discard(node)
                postorder.append(node)
        by_rank = postorder[::-1]
        rank = {node: position for position, node in enumerate(by_rank)}
        # reach[n]: bit set of rank[m] for every m reachable from n.
        reach: Dict[int, int] = {}
        for node in postorder:
            bits = 1 << rank[node]
            for nxt in dag[node]:
                bits |= reach[nxt]
            reach[node] = bits
        joins: Dict[int, int] = {}
        for node in postorder:
            instr = instrs[node] if node != reenter else None
            if (
                type(instr) is not ins.CJump
                or instr.true_target == instr.false_target
                or len(dag[node]) != 2
            ):
                continue
            common = reach[dag[node][0]] & reach[dag[node][1]]
            if common:
                join = by_rank[(common & -common).bit_length() - 1]
                joins[node] = start if join == reenter else join
        return joins

    def _emit_region_parts(
        self,
        start: int,
        joins: Dict[int, int],
        hoist: frozenset,
        carried: Tuple[str, ...] = (),
    ) -> Tuple[Dict[str, str], List[Tuple[int, str]], Dict[str, object]]:
        instrs = self.function.instrs
        fusible = self.fusible
        env: Dict[str, str] = {"s0": f"_base[{start}]"}
        body: List[Tuple[int, str]] = []
        state: Dict[str, object] = {
            "emitted": 0, "members": 0, "phis": 0,
            "loop": False, "ec": False, "cs": False,
            "candidates": set(), "violations": set(), "reads": set(),
        }
        # Loop-carried registers: ``lcK`` holds local *name* across
        # iterations (loaded in the region prologue; each join and
        # back-edge reconciles the register with the path's current
        # binding).
        creg = {name: f"lc{k}" for k, name in enumerate(carried)}

        def chain(base: str, path: _Path, extra: Tuple[str, ...] = ()) -> str:
            # The path's pending clock charges, one left-to-right sum:
            # ``clock + icost + ec`` adds in the same order, with the
            # same roundings, as ``clock += icost; clock += ec``.
            terms = path.charges + extra
            if "ec" in terms:
                state["ec"] = True
            return " + ".join((base,) + terms)

        def emit_flush(out: List, depth: int, cum: Tuple[int, int]) -> None:
            # The path's whole counter compensation as one literal add.
            delta, count = cum
            if count:
                if delta:
                    state["cs"] = True
                    out.append((depth, f"cs[-1] += {delta}"))
                out.append((depth, f"st.edge_actions += {count}"))

        def emit_exit(
            out: List, depth: int, path: _Path, target: int, terminator: bool
        ) -> None:
            # A terminator is one more instruction, charged like any.
            count = path.count + terminator
            extra = ("icost",) if terminator else ()
            emit_flush(out, depth, path.cum)
            out.append((depth, f"st.instructions = n + {count}" if count
                        else "st.instructions = n"))
            out.append((depth, f"thread.clock = {chain('clock', path, extra)}"))
            out.append((depth, f"frame.index = {target}"))

        def emit_spill(out: List, depth: int, target: int, path: _Path) -> None:
            emit_exit(out, depth, path, target, False)
            out.append((depth, "return None"))

        def emit_term(out: List, depth: int, target: int, path: _Path) -> None:
            emit_exit(out, depth, path, target, True)
            env[f"t{target}"] = f"_base[{target}]"
            out.append((depth, f"return t{target}(machine, thread, frame)"))

        def emit_reenter(out: List, depth: int, path: _Path) -> None:
            state["loop"] = True
            # The next iteration may overflow the budget: hand back to
            # the driver, whose prologue + this region's entry check
            # single-step to the exact overflow state.
            out.append((depth, f"if n + {path.count + REGION_BOUND} > limit:"))
            emit_spill(out, depth + 1, start, path)
            emit_flush(out, depth, path.cum)
            # The head instruction of the next iteration is counted
            # and charged here, after its budget check.
            out.append((depth, f"n += {path.count + 1}"))
            out.append((depth, f"clock = {chain('clock', path, ('icost',))}"))
            # Reconcile the carried registers with this path's current
            # values before jumping back to the region top (whose code
            # reads the entry registers).
            emit_assign(out, depth, [
                (creg[name], path.bindings.get(name), name)
                for name in carried
            ])
            out.append((depth, "continue"))

        def emit_assign(
            out: List, depth: int, moves: List[Tuple[str, Optional[str], str]]
        ) -> None:
            # ``(register, current temp or None, local name)`` copies as
            # ONE tuple assignment: the copies are parallel (a register
            # may feed another, as in ``prev = cur`` loops), so sources
            # must all be read before any register is written.
            targets, sources = [], []
            for register, current, name in moves:
                if current is None:
                    targets.append(register)
                    sources.append("fl.get(%r)" % name)
                elif current != register:
                    targets.append(register)
                    sources.append(current)
            if targets:
                out.append(
                    (depth, ", ".join(targets) + " = " + ", ".join(sources))
                )

        def charge_edge(path: _Path, src: int, dst: int) -> None:
            actions = self._edge_actions(src, dst)
            if not actions:
                return
            delta, count = fold_counter_adds(actions)
            path.cum = (path.cum[0] + delta, path.cum[1] + count)
            path.charges += ("ec",) * count

        def merge(depth: int, arms: List[Tuple[_Path, List]]) -> Optional[_Path]:
            """The state after a join, given the arms that fall into it.

            Counter compensation and pending accounting survive only
            when every arm carries the same; otherwise each arm flushes
            its own.  A local keeps its temp when every arm binds it to
            the same one; otherwise each arm copies its value into a
            join temp (a carried local into its register), so the code
            after the join still reads registers, not the frame.  Types
            survive where the arms agree.
            """
            if not arms:
                return None
            if len(arms) == 1:
                return arms[0][0]
            paths = [path for path, _ in arms]
            first = paths[0]
            cum, count, charges = first.cum, first.count, first.charges
            flush_cum = any(path.cum != cum for path in paths)
            flush_clock = any(
                (path.count, path.charges) != (count, charges) for path in paths
            )
            names = set(first.bindings)
            for path in paths[1:]:
                names &= path.bindings.keys()
            names |= creg.keys()
            reassigned = {
                creg[name] for name in carried
                if any(path.bindings.get(name) != creg[name] for path in paths)
            }
            bindings: Dict[str, str] = {}
            for name in sorted(names):
                temps = {path.bindings.get(name) for path in paths}
                if name in creg:
                    bindings[name] = creg[name]
                elif len(temps) == 1 and not temps & reassigned:
                    bindings[name] = temps.pop()
                else:
                    bindings[name] = f"j{state['phis']}"
                    state["phis"] += 1
            for path, out in arms:
                if flush_cum:
                    emit_flush(out, depth, path.cum)
                if flush_clock:
                    if path.count:
                        out.append((depth, f"n += {path.count}"))
                    if path.charges:
                        out.append((depth, f"clock = {chain('clock', path)}"))
                emit_assign(out, depth, [
                    (temp, path.bindings.get(name), name)
                    for name, temp in bindings.items()
                ])
            types: Dict[str, Optional[str]] = {}
            for name in set().union(*(path.types for path in paths)):
                seen = {path.types.get(name) for path in paths}
                if len(seen) == 1:
                    known = seen.pop()
                    if known is not None:
                        types[name] = known
                elif None not in seen:
                    types[name] = "any"
                # A local some arm never touched stays unknown: its
                # value may still be the region-entry one, which an
                # entry guard can prove.
            return _Path(
                (0, 0) if flush_cum else cum,
                0 if flush_clock else count,
                () if flush_clock else charges,
                frozenset().union(*(path.visited for path in paths)),
                max(path.length for path in paths),
                bindings,
                types,
            )

        def walk(
            index: int,
            depth: int,
            path: _Path,
            out: List,
            stop: Optional[int],
            first: bool = False,
        ) -> Optional[_Path]:
            """Emit the path from *index* into *out*; return its state
            when it reaches *stop* (the enclosing join), None when it
            ended (re-entry, terminator or spill)."""
            while True:
                if not first:
                    if index == stop:
                        return path
                    if index == start:
                        emit_reenter(out, depth, path)
                        return None
                    if index not in fusible:
                        emit_term(out, depth, index, path)
                        return None
                    if (
                        index in path.visited
                        or path.length >= REGION_PATH_CAP
                        or state["emitted"] >= REGION_CAP
                    ):
                        emit_spill(out, depth, index, path)
                        return None
                    path.count += 1
                    path.charges += ("icost",)
                first = False
                instr = instrs[index]
                kind = type(instr)
                state["emitted"] += 1
                path.visited = path.visited | {index}
                path.length += 1
                if kind is ins.CJump:
                    pos = state["emitted"]
                    cond_bool = False
                    if self._is_local(instr.cond):
                        cond_bool = path.types.get(instr.cond) == "bool"
                        xc = path.bindings.get(instr.cond)
                        if xc is None:
                            state["reads"].add(instr.cond)
                            xc = f"xc{pos}"
                            out.append((depth, f"{xc} = fl.get({instr.cond!r})"))
                            path.bindings[instr.cond] = xc
                    else:
                        xc = f"xc{pos}"
                        env[f"rc{pos}"] = f"_reader(_instrs[{index}].cond)"
                        out.append((depth, f"{xc} = rc{pos}(machine, frame)"))
                    # Comparison results are Python bools: test those
                    # by identity, call truthy() only for other types.
                    # A condition *proven* bool (e.g. computed by an
                    # unguarded comparison on this path) tests bare.
                    if cond_bool:
                        cond = xc
                    else:
                        env["truthy"] = "truthy"
                        cond = (
                            f"{xc} is True or "
                            f"({xc} is not False and truthy({xc}))"
                        )
                    on_true, on_false = instr.true_target, instr.false_target
                    if on_true == on_false:
                        # Degenerate branch: the condition still
                        # evaluates (its type errors must surface —
                        # unless proven bool, where truthy() is total).
                        if not cond_bool:
                            out.append((depth, f"truthy({xc})"))
                        charge_edge(path, index, on_true)
                        index = on_true
                        continue
                    join = joins.get(index, stop)
                    arms = []
                    for target in (on_true, on_false):
                        arm = path.fork()
                        charge_edge(arm, index, target)
                        lines: List[Tuple[int, str]] = []
                        end = walk(target, depth + 1, arm, lines, join)
                        arms.append((end, lines))
                    path = merge(
                        depth + 1, [arm for arm in arms if arm[0] is not None]
                    )
                    true_lines, false_lines = arms[0][1], arms[1][1]
                    if true_lines:
                        out.append((depth, f"if {cond}:"))
                        out.extend(true_lines)
                        if false_lines:
                            out.append((depth, "else:"))
                            out.extend(false_lines)
                    elif false_lines:
                        out.append((depth, f"if not ({cond}):"))
                        out.extend(false_lines)
                    elif not cond_bool:
                        out.append((depth, f"truthy({xc})"))
                    if path is None:
                        return None
                    index = join
                    continue
                state["members"] += 1
                member_lines, needs_index = self._emit_member(
                    state["emitted"], index, instr, env, path.bindings,
                    path.types, hoist, state,
                )
                if needs_index:
                    out.append((depth, f"frame.index = {index}"))
                for text in member_lines:
                    out.append((depth, text))
                # Fusible already means event-free with free-or-foldable
                # out-edges: only the successor remains to be named.
                succ = instr.target if kind is ins.Jump else index + 1
                charge_edge(path, index, succ)
                index = succ

        walk(
            start, 0,
            _Path((0, 0), 0, (), frozenset(), 0, dict(creg),
                  {name: "int" for name in hoist}),
            body, None, first=True,
        )
        return env, body, state

    def _assemble_region(
        self,
        start: int,
        env: Dict[str, str],
        body: List[Tuple[int, str]],
        state: Dict[str, object],
        hoisted: Tuple[str, ...],
        carried: Tuple[str, ...] = (),
    ) -> str:
        """Binder source of one variant: the ``def run`` that takes
        every *env* name as a default argument, bound to its
        expression."""
        prologue = [
            "st = machine.stats",
            "n = st.instructions",
            "limit = machine.max_instructions",
            # Conservative whole-region budget check; near the limit,
            # the single base step keeps the overflow state exact.
            f"if n + {REGION_BOUND} > limit:",
            "    return s0(machine, thread, frame)",
            "fl = frame.locals",
        ]
        creg = {name: f"lc{k}" for k, name in enumerate(carried)}
        for name in carried:
            # Loop-carried entry loads: the body reads these registers
            # instead of the locals dict (back-edges keep them fresh).
            prologue.append(f"{creg[name]} = fl.get({name!r})")
        if hoisted:
            # Hoisted int guards, checked ONCE per region entry (the
            # `while True` re-entry never re-checks: every write to a
            # hoisted register inside the region provably keeps it
            # int).  A miss runs the generic variant instead.
            env["generic"] = "generic"
            holders = [
                creg.get(name) or "fl.get(%r)" % name for name in hoisted
            ]
            guard = " and ".join(
                f"type({holder}) is int" for holder in holders
            )
            prologue.append(f"if not ({guard}):")
            prologue.append("    return generic(machine, thread, frame)")
        prologue.append("icost = machine.costs.instruction")
        prologue.append("clock = thread.clock")
        if state["ec"]:
            prologue.append("ec = machine.costs.edge_action")
        if state["cs"]:
            prologue.append("cs = thread.counter_stack")
        # Each default argument is its binder expression, evaluated
        # once when ``bind`` defines ``run``.
        params = ", ".join(f"{name}={expr}" for name, expr in env.items())
        lines = [
            "def bind(_base, _instrs, _reader, _writer, generic):",
            f"    def run(machine, thread, frame, {params}):",
        ]
        lines += ["        " + text for text in prologue]
        indent = 2
        if state["loop"]:
            lines.append("        while True:")
            indent = 3
        for depth, text in body:
            lines.append("    " * (indent + depth) + text)
        lines.append("    return run")
        return "".join(f"{line}\n" for line in lines)


# Globals of every binder: the handler tables its expressions index and
# the ``truthy`` its regions call.
_BIND_GLOBALS = {
    "BINOP_FUNCS": BINOP_FUNCS,
    "UNOP_FUNCS": UNOP_FUNCS,
    "BUILTINS": BUILTINS,
    "truthy": truthy,
}

# Every repro module interp/compile.py imports, itself first: the
# sources that decide what a binder is.  Their sha256 is the codegen
# tag, part of every region code key, so an edit to emission logic
# orphans the stored code instead of loading it stale.
CODEGEN_MODULES = (
    "repro.interp.compile",
    "repro.cache",
    "repro.errors",
    "repro.instrument.plan",
    "repro.interp.builtins",
    "repro.interp.events",
    "repro.interp.machine",
    "repro.ir.instructions",
    "repro.ir.function",
    "repro.ir.ops",
)


@functools.lru_cache(maxsize=None)
def codegen_tag() -> str:
    """sha256 of the :data:`CODEGEN_MODULES` sources, computed at the
    first region landing (not at import) and kept for the process."""
    import hashlib
    import importlib

    hasher = hashlib.sha256()
    for name in CODEGEN_MODULES:
        with open(importlib.import_module(name).__file__, "rb") as handle:
            hasher.update(handle.read())
        hasher.update(b"\0")
    return hasher.hexdigest()


def region_key(artifact: str, function: str, start: int) -> str:
    """Key of one region's binder code: the instrumented artifact's
    content key, the codegen tag, the ``-O`` level (it changes what
    ``compile()`` emits), then the function and the region start."""
    return f"{artifact}:{codegen_tag()}:O{sys.flags.optimize}:{function}:{start}"


def _region_code(key: Optional[str], emit: Callable[[], List[str]]) -> tuple:
    """Code objects of a region's binders, generic variant first.

    With a *key*, they are served by the artifact cache's code namespace
    (within the process, and across processes under a cache dir) as one
    entry, and *emit* runs only on a miss.  Without one (a module
    instrumented outside the artifact cache) they are emitted and
    compiled afresh.
    """
    def build() -> tuple:
        return tuple(compile(source, "<ldx-region>", "exec") for source in emit())

    if key is None:
        return build()
    # Imported here so that importing the CLI does not load the cache's
    # pickle and hashlib dependencies before a region ever lands.
    from repro import cache

    return marshal.loads(cache.code_for(key, lambda: marshal.dumps(build())))


def compile_module(
    module: IRModule,
    plan: Optional[ModulePlan] = None,
    fuse: bool = True,
) -> CompiledModule:
    """Compile every function of *module* under *plan*.

    With *fuse*, exactly the plan's fusible set (its relevance
    classification) becomes superinstruction regions; a module without
    a plan, or a plan without a classification, fuses nothing.
    """
    module_relevance = getattr(plan, "relevance", None) if fuse else None
    artifact = getattr(plan, "artifact_key", None)
    global_names = frozenset(module.global_values)
    functions: Dict[str, CompiledFunction] = {}
    # Callee registry shared by every direct-call step of this
    # compilation; filled below once each function's steps exist (call
    # steps only read it at run time, so order doesn't matter).
    link: Dict[str, Tuple[Optional[FunctionPlan], List[Step]]] = {}
    for name, function in module.functions.items():
        function_plan = plan.functions.get(name) if plan is not None else None
        function_relevance = (
            module_relevance.functions.get(name)
            if module_relevance is not None else None
        )
        fusible = (
            function_relevance.fusible
            if function_relevance is not None else frozenset()
        )
        functions[name] = _FunctionCompiler(
            module, function, function_plan, global_names, fusible, link,
            artifact,
        ).compile()
    for name, compiled in functions.items():
        function_plan = plan.functions.get(name) if plan is not None else None
        link[name] = (function_plan, compiled.steps)
    return CompiledModule(functions, plan)


# -- in-process compilation memo --------------------------------------------------
#
# Step closures are unpicklable, so compiled modules can never ride the
# artifact cache's disk layer (the generated region code inside them
# does, see ``_region_code``); this weak memo is the in-process
# equivalent.  Master and slave machines built from one instrumented
# artifact (and every run of a cached workload) share one compilation.
# Keys are object identities: the CompiledModule pins the plan alive,
# so a recycled id can never alias a stale entry.  Without a relevance
# classification nothing fuses, so the key drops *fuse* and fused and
# unfused requests (a plain run and an observed one) share a compile.

_MEMO: "weakref.WeakKeyDictionary[IRModule, Dict[Tuple[int, bool], CompiledModule]]" = (
    weakref.WeakKeyDictionary()
)


def compiled_for_module(
    module: IRModule,
    plan: Optional[ModulePlan] = None,
    fuse: bool = True,
) -> CompiledModule:
    """Compile (or reuse the memoized compilation of) *module*."""
    per_module = _MEMO.get(module)
    if per_module is None:
        per_module = {}
        _MEMO[module] = per_module
    key = (id(plan), fuse and getattr(plan, "relevance", None) is not None)
    compiled = per_module.get(key)
    if compiled is None:
        compiled = compile_module(module, plan, key[1])
        per_module[key] = compiled
    return compiled


def clear_compile_memo() -> None:
    """Drop every memoized compilation (benchmarks measure cold paths);
    the code namespace's disk entries stay."""
    _MEMO.clear()
