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
  inlining branches as tail-duplicated if/else, turning edges back to
  its head into ``while True`` re-entries, and holding the virtual
  clock, instruction count and path-local registers in Python locals,
  so the driver loop runs once per region pass instead of once per
  instruction.  A module compiled without a plan fuses nothing.

The contract is **byte identity**: a compiled run must produce the
same events, counter stacks, virtual clocks and MachineStats as the
switch interpreter, bit for bit.  That drives three non-obvious rules:

* virtual-clock charges are floats, and float addition is not
  associative — a folded counter edge still charges
  ``costs.edge_action`` once per original action, in sequence, never as
  one multiplied add;
* a region pre-checks a conservative instruction budget for one pass
  and, near the limit, runs only its unfused base step, so the budget
  error fires at the exact instruction with the exact state;
* members whose errors embed a code location (index loads/stores)
  sync ``frame.index`` first, keeping crash surfaces identical.

Rare or complex operations (calls, returns, syscalls, indexing) keep
delegating to the machine's existing helpers, so hook points, scoping
and error surfaces stay single-sourced.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import LoweringError
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

# Region size limits: total emitted members per generated region (tail
# duplication counts every copy; bounds code size), the per-path member
# limit (bounds how many instructions one pass can execute), and the
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

    Holds strong references to the module and plan it was compiled
    against so the identity-keyed memo below can never serve a stale
    entry for a recycled object id.
    """

    __slots__ = ("functions", "module", "plan", "fuse")

    def __init__(
        self,
        functions: Dict[str, CompiledFunction],
        module: IRModule,
        plan: Optional[ModulePlan],
        fuse: bool,
    ) -> None:
        self.functions = functions
        self.module = module
        self.plan = plan
        self.fuse = fuse

    def steps_for(self, name: str) -> List[Step]:
        return self.functions[name].steps

    @property
    def fused_count(self) -> int:
        return sum(len(f.fused_indices) for f in self.functions.values())


# -- the compiler ----------------------------------------------------------------


class _FunctionCompiler:
    def __init__(
        self,
        module: IRModule,
        function: IRFunction,
        plan: Optional[FunctionPlan],
        global_names: frozenset,
        fusible: FrozenSet[int] = frozenset(),
        link: Optional[Dict[str, Tuple[Optional[FunctionPlan], List[Step]]]] = None,
    ) -> None:
        self.module = module
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
        try:
            target = self.module.function(instr.func)
        except LoweringError:
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
            if machine.call_hook is not None:
                machine.call_hook(thread, frame, callee, _instr)
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
            if machine.return_hook is not None:
                machine.return_hook(thread, frame, caller, call_instr.dst, value)
            return machine._advance(thread, caller, caller.index, caller.index + 1)

        return step

    def _emit_member(
        self,
        pos: int,
        index: int,
        instr: ins.Instr,
        env: Dict[str, object],
        bindings: Dict[str, str],
        types: Dict[str, Optional[str]],
        hoist: frozenset,
        rstate: Dict[str, object],
    ) -> Tuple[List[str], bool]:
        """One region member's emission, with path-local register caching.

        Every emitted region path is straight-line (tail duplication,
        no merges), so a local read can be cached in a Python temp and
        reused by later members on the same path: *bindings* maps a
        local name to the temp currently holding its value.  Stores
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
            env[f"v{pos}"] = instr.value
            value = instr.value
            vt = type(value)
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
            env[f"w{pos}"] = self._writer(instr.dst)
            return [f"w{pos}(machine, frame, v{pos})"], False
        if kind is ins.Move:
            if self._is_local(instr.dst) and self._is_local(instr.src):
                src = rd(instr.src)
                lines.append(f"fl[{instr.dst!r}] = {src}")
                bindings[instr.dst] = src
                wr(instr.dst, types.get(instr.src))
                return lines, False
            env[f"r{pos}"] = self._reader(instr.src)
            env[f"w{pos}"] = self._writer(instr.dst)
            if self._is_local(instr.dst):
                # The write bypasses the register cache: drop any
                # binding so later reads reload from the frame.
                bindings.pop(instr.dst, None)
                wr(instr.dst, None)
            return [f"w{pos}(machine, frame, r{pos}(machine, frame))"], False
        xv = f"xv{pos}"
        if kind is ins.Binop:
            env[f"b{pos}"] = BINOP_FUNCS[instr.op]
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
                    guard = f"type({xl}) is int and type({xr}) is int"
                    if instr.op in ("==", "!="):
                        guard = (
                            f"({guard}) or "
                            f"(type({xl}) is str and type({xr}) is str)"
                        )
                    lines.append(
                        f"fl[{instr.dst!r}] = ({xv} := ({xl} {fast} {xr}) "
                        f"if {guard} else b{pos}({xl}, {xr}))"
                    )
                else:
                    lines.append(
                        f"fl[{instr.dst!r}] = ({xv} := b{pos}({xl}, {xr}))"
                    )
                bindings[instr.dst] = xv
                wr(instr.dst, None)
                return lines, False
            env[f"rl{pos}"] = self._reader(instr.left)
            env[f"rr{pos}"] = self._reader(instr.right)
            env[f"w{pos}"] = self._writer(instr.dst)
            if self._is_local(instr.dst):
                bindings.pop(instr.dst, None)
                wr(instr.dst, None)
            return [
                f"w{pos}(machine, frame, b{pos}"
                f"(rl{pos}(machine, frame), rr{pos}(machine, frame)))"
            ], False
        if kind is ins.Unop:
            env[f"u{pos}"] = UNOP_FUNCS[instr.op]
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
                        f"if type({xo}) is int else u{pos}({xo}))"
                    )
                elif instr.op == "not":
                    if to == "bool":
                        lines.append(f"fl[{instr.dst!r}] = ({xv} := not {xo})")
                        bindings[instr.dst] = xv
                        wr(instr.dst, "bool")
                        return lines, False
                    lines.append(
                        f"fl[{instr.dst!r}] = ({xv} := (not {xo}) "
                        f"if {xo} is True or {xo} is False else u{pos}({xo}))"
                    )
                else:
                    lines.append(f"fl[{instr.dst!r}] = ({xv} := u{pos}({xo}))")
                bindings[instr.dst] = xv
                wr(instr.dst, None)
                return lines, False
            env[f"r{pos}"] = self._reader(instr.operand)
            env[f"w{pos}"] = self._writer(instr.dst)
            if self._is_local(instr.dst):
                bindings.pop(instr.dst, None)
                wr(instr.dst, None)
            return [
                f"w{pos}(machine, frame, u{pos}(r{pos}(machine, frame)))"
            ], False
        if kind is ins.CallBuiltin:
            env[f"h{pos}"] = BUILTINS[instr.name]
            if instr.name == "len" and len(instr.args) == 1:
                xa = rd(instr.args[0])
                ta = types.get(instr.args[0])
                if ta == "str" or ta == "list":
                    lines.append(f"fl[{instr.dst!r}] = ({xv} := len({xa}))")
                else:
                    lines.append(
                        f"fl[{instr.dst!r}] = ({xv} := len({xa}) "
                        f"if type({xa}) is str or type({xa}) is list "
                        f"else h{pos}([{xa}]))"
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
                    f"    {xv} = h{pos}([{xa}, {val}])",
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
                        f"if {xa} else h{pos}([{xa}]))"
                    )
                else:
                    lines.append(
                        f"fl[{instr.dst!r}] = ({xv} := {xa}.pop() "
                        f"if type({xa}) is list and {xa} else h{pos}([{xa}]))"
                    )
                bindings[instr.dst] = xv
                wr(instr.dst, None)
                return lines, False
            args = ", ".join(rd(arg) for arg in instr.args)
            lines.append(f"fl[{instr.dst!r}] = ({xv} := h{pos}([{args}]))")
            bindings[instr.dst] = xv
            wr(instr.dst, None)
            return lines, False
        if kind is ins.LoadIndex:
            env[f"i{pos}"] = instr
            if (
                self._is_local(instr.dst)
                and self._is_local(instr.base)
                and self._is_local(instr.index)
            ):
                xb, xi = rd(instr.base), rd(instr.index)
                tb, ti = types.get(instr.base), types.get(instr.index)
                if ti != "int":
                    want_int(instr.index)
                if (tb == "list" or tb == "str") and ti == "int":
                    # Shapes proven: only the bounds check remains.
                    check = f"0 <= {xi} < len({xb})"
                else:
                    check = (
                        f"(type({xb}) is list or type({xb}) is str) "
                        f"and type({xi}) is int and 0 <= {xi} < len({xb})"
                    )
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
            env[f"w{pos}"] = self._writer(instr.dst)
            return [
                f"w{pos}(machine, frame, "
                f"machine._load_index(thread, frame, i{pos}))"
            ], True
        if kind is ins.StoreIndex:
            env[f"i{pos}"] = instr
            if (
                self._is_local(instr.base)
                and self._is_local(instr.index)
                and self._is_local(instr.src)
            ):
                xb, xi, src = rd(instr.base), rd(instr.index), rd(instr.src)
                tb, ti = types.get(instr.base), types.get(instr.index)
                if ti != "int":
                    want_int(instr.index)
                if tb == "list" and ti == "int":
                    check = f"0 <= {xi} < len({xb})"
                else:
                    check = (
                        f"type({xb}) is list "
                        f"and type({xi}) is int and 0 <= {xi} < len({xb})"
                    )
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
                    env[f"r{pos}_{item_pos}"] = self._reader(item)
                    parts.append(f"r{pos}_{item_pos}(machine, frame)")
            items = ", ".join(parts)
            if self._is_local(instr.dst):
                lines.append(f"fl[{instr.dst!r}] = ({xv} := [{items}])")
                bindings[instr.dst] = xv
                wr(instr.dst, "list")
                return lines, False
            env[f"w{pos}"] = self._writer(instr.dst)
            return [f"w{pos}(machine, frame, [{items}])"], False
        raise AssertionError(f"unexpected region member {instr!r}")

    # -- superinstruction regions ------------------------------------------------
    #
    # A region walk follows the CFG through every fusible instruction
    # (a straight-line chain is the region with no branch arm),
    # inlining interior CJumps as generated if/else with tail
    # duplication, turning edges back to the region head into
    # `while True` re-entries, and spilling to the driver at revisits
    # of interior nodes (inner loops get their own regions).
    # Counter compensation along each emitted path is a compile-time
    # constant, so it flushes as ONE literal add at each exit instead
    # of one add per edge — the "single precomputed aggregate add" of
    # the paper's Algorithm 2.  Virtual-clock charges stay one float
    # add per original action, in sequence: float addition is not
    # associative and the contract is byte identity.

    def _compile_region(self, start: int, base: List[Step]) -> Step:
        # Pass 1: generic emission (no entry assumptions).  Its
        # candidate set records which locals would shed per-iteration
        # int guards if proven int at entry, and its read set records
        # which locals the region loads from the frame.
        env, body, state = self._emit_region_parts(start, base, frozenset())
        carried = ()
        if state["loop"] and state["reads"]:
            # Self-reentering region: keep every local the body reads
            # in a Python register, loaded once at region entry and
            # reconciled at each back-edge, so iterations never reload
            # from the locals dict.  (Writes still go through ``fl``
            # eagerly, so any exit sees a consistent frame.)
            carried = tuple(sorted(state["reads"]))
            env, body, state = self._emit_region_parts(
                start, base, frozenset(), carried
            )
        generic = self._assemble_region(start, env, body, state, (), None, carried)
        if not (state["loop"] and state["candidates"]):
            return generic

        # Pass 2 (self-reentering regions only): hoist-set fixpoint.
        # Assume every candidate is int at entry, re-emit, and drop any
        # name some write cannot be proven to keep int; repeat until
        # the surviving set is self-consistent (`i = i + 1` survives
        # because its write is int *given* the assumption).
        trial = frozenset(state["candidates"])
        emission = None
        while trial:
            env_h, body_h, state_h = self._emit_region_parts(
                start, base, trial, carried
            )
            bad = state_h["violations"]
            if not bad:
                emission = (env_h, body_h, state_h)
                break
            trial = trial - bad
        if emission is None or not trial:
            return generic
        env_h, body_h, state_h = emission
        # The specialized variant checks the hoisted registers once at
        # region entry; a miss (a genuinely non-int loop) dispatches to
        # the generic variant — the exact code running today — so the
        # slow path replays with byte-identical observables.
        return self._assemble_region(
            start, env_h, body_h, state_h, tuple(sorted(trial)), generic, carried
        )

    def _emit_region_parts(
        self,
        start: int,
        base: List[Step],
        hoist: frozenset,
        carried: Tuple[str, ...] = (),
    ) -> Tuple[Dict[str, object], List[Tuple[int, str]], Dict[str, object]]:
        instrs = self.function.instrs
        fusible = self.fusible
        env: Dict[str, object] = {"s0": base[start]}
        body: List[Tuple[int, str]] = []
        state: Dict[str, object] = {
            "emitted": 0, "loop": False, "ec": False, "cs": False,
            "candidates": set(), "violations": set(), "reads": set(),
        }
        # Loop-carried registers: ``lcK`` holds local *name* across
        # iterations (loaded in the region prologue; each back-edge
        # reconciles the register with the path's current binding).
        creg = {name: f"lc{k}" for k, name in enumerate(carried)}

        def emit(depth: int, text: str) -> None:
            body.append((depth, text))

        def emit_flush(depth: int, cum: Tuple[int, int]) -> None:
            # The path's whole counter compensation as one literal add.
            delta, count = cum
            if count:
                if delta:
                    state["cs"] = True
                    emit(depth, f"cs[-1] += {delta}")
                emit(depth, f"st.edge_actions += {count}")

        def emit_spill(depth: int, target: int, cum: Tuple[int, int]) -> None:
            emit_flush(depth, cum)
            emit(depth, "st.instructions = n")
            emit(depth, "thread.clock = clock")
            emit(depth, f"frame.index = {target}")
            emit(depth, "return None")

        def emit_term(depth: int, target: int, cum: Tuple[int, int]) -> None:
            emit(depth, "n += 1")
            emit(depth, "clock += icost")
            emit_flush(depth, cum)
            emit(depth, "st.instructions = n")
            emit(depth, "thread.clock = clock")
            emit(depth, f"frame.index = {target}")
            env[f"t{target}"] = base[target]
            emit(depth, f"return t{target}(machine, thread, frame)")

        def emit_reenter(
            depth: int, cum: Tuple[int, int], bindings: Dict[str, str]
        ) -> None:
            emit_flush(depth, cum)
            state["loop"] = True
            # The next iteration may overflow the budget: hand back to
            # the driver, whose prologue + this region's entry check
            # single-step to the exact overflow state.
            emit(depth, f"if n + {REGION_BOUND} > limit:")
            emit(depth + 1, "st.instructions = n")
            emit(depth + 1, "thread.clock = clock")
            emit(depth + 1, f"frame.index = {start}")
            emit(depth + 1, "return None")
            emit(depth, "n += 1")
            emit(depth, "clock += icost")
            # Reconcile the carried registers with this path's current
            # values before jumping back to the region top (whose code
            # reads the entry registers).  One tuple assignment: the
            # copies are parallel (a register may feed another, as in
            # ``prev = cur`` loops), so sources must all be read
            # before any register is written.
            targets, sources = [], []
            for name in carried:
                reg = creg[name]
                cur = bindings.get(name)
                if cur is None:
                    targets.append(reg)
                    sources.append("fl.get(%r)" % name)
                elif cur != reg:
                    targets.append(reg)
                    sources.append(cur)
            if targets:
                emit(
                    depth,
                    ", ".join(targets) + " = " + ", ".join(sources),
                )
            emit(depth, "continue")

        def charge_edge(
            depth: int, src: int, dst: int, cum: Tuple[int, int]
        ) -> Tuple[int, int]:
            actions = self._edge_actions(src, dst)
            if not actions:
                return cum
            delta, count = fold_counter_adds(actions)
            state["ec"] = True
            for _ in range(count):
                emit(depth, "clock += ec")
            return (cum[0] + delta, cum[1] + count)

        def walk(
            index: int,
            depth: int,
            cum: Tuple[int, int],
            visited: frozenset,
            first: bool,
            bindings: Dict[str, str],
            types: Dict[str, Optional[str]],
        ) -> None:
            path_len = len(visited)
            while True:
                if not first:
                    if index == start:
                        emit_reenter(depth, cum, bindings)
                        return
                    if index not in fusible:
                        emit_term(depth, index, cum)
                        return
                    if (
                        index in visited
                        or path_len >= REGION_PATH_CAP
                        or state["emitted"] >= REGION_CAP
                    ):
                        emit_spill(depth, index, cum)
                        return
                instr = instrs[index]
                kind = type(instr)
                state["emitted"] += 1
                visited = visited | {index}
                path_len += 1
                if not first:
                    emit(depth, "n += 1")
                    emit(depth, "clock += icost")
                first = False
                if kind is ins.CJump:
                    pos = state["emitted"]
                    env["truthy"] = truthy
                    cond_bool = False
                    if self._is_local(instr.cond):
                        cond_bool = types.get(instr.cond) == "bool"
                        xc = bindings.get(instr.cond)
                        if xc is None:
                            state["reads"].add(instr.cond)
                            xc = f"xc{pos}"
                            emit(depth, f"{xc} = fl.get({instr.cond!r})")
                            bindings[instr.cond] = xc
                    else:
                        xc = f"xc{pos}"
                        env[f"rc{pos}"] = self._reader(instr.cond)
                        emit(depth, f"{xc} = rc{pos}(machine, frame)")
                    # Comparison results are Python bools: test those
                    # by identity, call truthy() only for other types.
                    # A condition *proven* bool (e.g. computed by an
                    # unguarded comparison on this path) tests bare.
                    if cond_bool:
                        cond = xc
                    else:
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
                            emit(depth, f"truthy({xc})")
                        cum = charge_edge(depth, index, on_true, cum)
                        index = on_true
                        continue
                    emit(depth, f"if {cond}:")
                    walk(
                        on_true, depth + 1,
                        charge_edge(depth + 1, index, on_true, cum),
                        visited, False, dict(bindings), dict(types),
                    )
                    emit(depth, "else:")
                    walk(
                        on_false, depth + 1,
                        charge_edge(depth + 1, index, on_false, cum),
                        visited, False, dict(bindings), dict(types),
                    )
                    return
                member_lines, needs_index = self._emit_member(
                    state["emitted"], index, instr, env, bindings,
                    types, hoist, state,
                )
                if needs_index:
                    emit(depth, f"frame.index = {index}")
                for text in member_lines:
                    emit(depth, text)
                # Fusible already means event-free with free-or-foldable
                # out-edges: only the successor remains to be named.
                succ = instr.target if kind is ins.Jump else index + 1
                cum = charge_edge(depth, index, succ, cum)
                index = succ

        walk(
            start, 0, (0, 0), frozenset(), True, dict(creg),
            {name: "int" for name in hoist},
        )
        return env, body, state

    def _assemble_region(
        self,
        start: int,
        env: Dict[str, object],
        body: List[Tuple[int, str]],
        state: Dict[str, object],
        hoisted: Tuple[str, ...],
        generic: Optional[Step],
        carried: Tuple[str, ...] = (),
    ) -> Step:
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
            env["generic"] = generic
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
        lines = ["    " + text for text in prologue]
        indent = 1
        if state["loop"]:
            lines.append("    while True:")
            indent = 2
        for depth, text in body:
            lines.append("    " * (indent + depth) + text)
        params = ", ".join(f"{name}={name}" for name in env)
        source = (
            f"def run(machine, thread, frame, {params}):\n"
            + "".join(f"{line}\n" for line in lines)
        )
        namespace = dict(env)
        exec(compile(source, "<ldx-region>", "exec"), namespace)
        return namespace["run"]


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
        ).compile()
    for name, compiled in functions.items():
        function_plan = plan.functions.get(name) if plan is not None else None
        link[name] = (function_plan, compiled.steps)
    return CompiledModule(functions, module, plan, fuse)


# -- in-process compilation memo --------------------------------------------------
#
# Step closures are unpicklable, so compiled modules can never ride the
# artifact cache's disk layer; this weak memo is the in-process
# equivalent.  Master and slave machines built from one instrumented
# artifact (and every run of a cached workload) share one compilation.
# Keys are object identities: the CompiledModule pins the plan alive,
# so a recycled id can never alias a stale entry.

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
    key = (id(plan), fuse)
    compiled = per_module.get(key)
    if compiled is None:
        compiled = compile_module(module, plan, fuse)
        per_module[key] = compiled
    return compiled


def clear_compile_memo() -> None:
    """Drop every memoized compilation (benchmarks measure cold paths)."""
    _MEMO.clear()
