"""The LDX dual-execution engine.

Couples a master and a slave machine per the paper:

* the master executes syscalls eagerly and records outcomes (Algorithm
  2's queue); it blocks only at sinks and loop barriers;
* the slave mutates configured sources, reuses master outcomes for
  aligned nondeterministic inputs, blocks when ahead, and executes
  independently on path differences (detected through the counter
  scheme);
* loop back-edge barriers align iterations and prune per-iteration
  outcome records;
* misaligned syscalls taint the resources they touch; tainted
  resources stop being coupled;
* thread pairs share lock-acquisition order; locks that diverge are
  tainted and scheduled independently.

The engine is a discrete-event simulation: both machines carry virtual
clocks, blocking advances the blocked side's clock to its releaser's,
and the dual-execution wall time is the max of the two clocks — the
paper's two-CPU deployment.

Blocked events resolve in one order: counter order, the slave first on
ties.  A single-threaded slave's event is resolved as it is yielded
when it leads that order (*in place*); otherwise a waiting event is
retried only once *woken*, when an input of its failed try changed:
slave thread *t* blocks or finishes → the master's event at *t*;
master thread *t* publishes, blocks or finishes → the slave's event at
*t*; a machine finishes → all of its peer's; a mutex's lock order,
replay progress or taint changes → the slave's waiters on it.  Failed
tries change nothing a later try reads, so the outcome is the same.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.channel import (
    OutcomeQueue,
    SyscallRecord,
    counter_geq,
    counter_less,
)
from repro.core.config import LdxConfig
from repro.core.report import (
    SINK_ARGS_DIFFER,
    SINK_DIFFERENT_SYSCALL,
    SINK_MISSING_IN_SLAVE,
    SINK_ONLY_IN_SLAVE,
    CausalityReport,
    DegradationReport,
    Detection,
    DualResult,
)
from repro.core.supervisor import EngineWatchdog
from repro.errors import BudgetExceededError, DualExecutionError, EngineStallError, InterpreterError
from repro.instrument.pipeline import InstrumentedModule
from repro.interp.costs import CostModel
from repro.interp.events import BarrierEvent, SyscallEvent
from repro.interp.machine import DONE, RUNNABLE, Machine
from repro.interp.profiler import OpcodeProfiler
from repro.interp.resolve import resolve_syscall_locally
from repro.vos.faults import FaultConfig
from repro.vos.kernel import Kernel, ProgramExit
from repro.vos.resources import LockTaintMap, ResourceTaintMap
from repro.vos.syscalls import ALWAYS_INDEPENDENT, NONDET_INPUT, THREAD_SYSCALLS
from repro.vos.world import World

MASTER = "master"
SLAVE = "slave"

# Sentinel position of a thread that is mid-flight (resumed earlier in
# the same resolve pass): its counter is not yet comparable — the peer
# must wait for the next pump/quiescence cycle.
RUNNING = object()

# Master syscalls executed locally and never recorded for reuse.
_UNCOUPLED = THREAD_SYSCALLS | ALWAYS_INDEPENDENT


class _Side:
    """One half of the dual execution."""

    __slots__ = ("role", "machine", "order", "waiting", "woken", "peer")

    def __init__(self, role: str, machine: Machine, order: int) -> None:
        self.role = role
        self.machine = machine
        self.order = order  # rank on counter ties: the slave (0) first
        # tid -> the engine-visible event the thread is blocked on, and
        # the tids whose event the next pass must try.
        self.waiting: Dict[int, object] = {}
        self.woken: Set[int] = set()
        self.peer: Optional["_Side"] = None


class LdxEngine:
    """Runs one complete dual execution."""

    def __init__(
        self,
        instrumented: InstrumentedModule,
        world: World,
        config: LdxConfig,
        costs: Optional[CostModel] = None,
        master_seed: int = 0,
        slave_seed: int = 0,
        slave_world: Optional[World] = None,
        max_instructions: int = 50_000_000,
        faults: Optional[FaultConfig] = None,
        watchdog_deadline: float = 25_000.0,
        static_oracle=None,
        profile: bool = False,
        backend: Optional[str] = None,
    ) -> None:
        module = instrumented.module
        plan = instrumented.plan
        self.config = config
        # Optional soundness oracle: an object with
        # ``may_depend(function, syscall) -> bool`` (a ProgramAnalysis
        # or StaticCausality).  Static analysis over-approximates every
        # divergence channel, so any detection outside its may-depend
        # set is an engine bug, recorded on the report.
        self.static_oracle = static_oracle
        self.report = CausalityReport()
        self.degradation = DegradationReport()
        self.taints = ResourceTaintMap()
        self.locks = LockTaintMap()
        self._watchdog = EngineWatchdog(deadline=watchdog_deadline)
        # Each side draws an independent deterministic fault schedule.
        self._fault_config = faults
        master_faults = faults.plan_for(MASTER) if faults is not None else None
        slave_faults = faults.plan_for(SLAVE) if faults is not None else None
        slave_world = slave_world if slave_world is not None else world.clone()
        self.master, self.slave = (
            Machine(
                module,
                Kernel(side_world, faults=side_faults),
                plan=plan,
                costs=costs,
                name=role,
                schedule_seed=seed,
                max_instructions=max_instructions,
                backend=backend,
                observer=OpcodeProfiler() if profile else None,
            )
            for role, side_world, side_faults, seed in (
                (MASTER, world, master_faults, master_seed),
                (SLAVE, slave_world, slave_faults, slave_seed),
            )
        )
        self._master = _Side(MASTER, self.master, 1)
        self._slave = _Side(SLAVE, self.slave, 0)
        self._master.peer, self._slave.peer = self._slave, self._master
        # Per-thread-pair outcome queues (threads pair up by tid).
        self._queues: Dict[int, OutcomeQueue] = {}
        # Master lock-acquisition order per mutex, and the slave's replay
        # progress through it (Section 7 concurrency control).
        self._master_lock_order: Dict[int, List[int]] = {}
        self._slave_lock_progress: Dict[int, int] = {}
        self.master.lock_hook = self._record_master_lock
        self.slave.lock_hook = self._record_slave_lock

    # -- public API ----------------------------------------------------------

    def run(self) -> DualResult:
        """Drive both executions to completion; return the dual result.

        The supervisor guarantee: this never raises and never hangs.
        Any error escaping the event loop — an engine bug, a wedged
        fault schedule, a corrupted queue — is converted into a
        diagnosed, degraded :class:`DualResult` instead of a traceback.

        On return the machines' lock hooks and the sides' peer links are
        dropped, so the finished run holds no reference cycle and is
        freed as soon as the result is.
        """
        try:
            self._drive()
        except Exception as failure:  # the supervisor's safety net
            self.degradation.engine_failures.append(
                f"{type(failure).__name__}: {failure}"
            )
            for side in (self._master, self._slave):
                side.waiting.clear()
                side.woken.clear()
                if not side.machine.finished:
                    side.machine.terminate(-1)
        finally:
            self.master.lock_hook = self.slave.lock_hook = None
            self._master.peer = self._slave.peer = None
        self._collect_degradation()
        self._finalize()
        return DualResult(
            self.master, self.slave, self.report, degradation=self.degradation
        )

    def _drive(self) -> None:
        """The discrete-event loop, watched for stalls: pump the master,
        then the slave, then one resolve pass over the woken events (the
        rest of the pass whose first event the slave resolved in place).
        The watchdog's progress marker only grows, so it is taken only
        when a pass made no progress, before a stall break."""
        master, slave = self.master, self.slave
        watchdog = self._watchdog
        while True:
            self._pump(self._master)
            if self._pump(self._slave):
                self._resolve_pass()
                continue
            if master.finished and slave.finished:
                return
            if self._resolve_pass():
                continue
            watchdog.note_progress(self._progress_marker())
            if not self._break_stall():
                raise EngineStallError(
                    "dual execution stalled with no resolvable event"
                )
            if watchdog.exhausted():  # pragma: no cover - safety net
                raise EngineStallError("stall-breaking did not converge")

    def _progress_marker(self) -> tuple:
        """Anything that advances when the engine is genuinely moving."""
        master, slave = self.master.stats, self.slave.stats
        return (
            master.instructions + master.edge_actions + master.syscalls
            + master.barriers,
            slave.instructions + slave.edge_actions + slave.syscalls
            + slave.barriers,
            self.master.finished,
            self.slave.finished,
        )

    # -- event intake -----------------------------------------------------------

    def _queue_for(self, tid: int) -> OutcomeQueue:
        if tid not in self._queues:
            self._queues[tid] = OutcomeQueue()
        return self._queues[tid]

    def _pump(self, side: _Side) -> bool:
        """Advance a machine until every thread is blocked or done.

        A runtime error in one execution (the analogue of a crash) ends
        that execution without aborting the dual run — the perturbation
        may legitimately crash the slave (e.g. attack inputs).

        Returns True when a slave event was resolved in place and the
        pump stopped: the caller owes the rest of that resolve pass.
        """
        machine = side.machine
        # Only an in-place barrier release (checked below) gives the master work.
        in_place = side is self._slave and not self.master.has_pending_work()
        before = self._unparked_positions(side) if len(machine.threads) > 1 else None
        ran = pending = machine.has_pending_work()
        while pending:
            try:
                event = machine.next_event()
            except InterpreterError as crash:
                self.report.crashes.append((side.role, str(crash)))
                if isinstance(crash, BudgetExceededError):
                    # The run's deadline (instruction budget) cut this
                    # side short: a diagnosed *partial* verdict, not a
                    # crash — only detections already recorded stand.
                    self.degradation.budget_exhausted.append(
                        (side.role, machine.max_instructions)
                    )
                side.waiting.clear()
                side.woken.clear()
                machine.terminate(-1)
                self._announce_finish(side)
                return False
            if event is None:
                break
            if not (in_place and self._leads(event)):
                self._on_event(side, event)
                pending = machine.has_pending_work()
                continue
            # In place: the event a pass would try first.  While its thread
            # runs on (with work), every master try would fail: pump on.
            tid = event.thread_id
            side.waiting[tid] = event
            side.woken.discard(tid)
            if not self._try_resolve_slave(event):
                self._wake(self._master, tid)
                break
            if self._position(side, tid) is not RUNNING or (
                type(event) is BarrierEvent and self.master.has_pending_work()
            ):
                self._settle(side, tid)
                return True
        if ran:
            self._settle_pump(side, before)
        return False

    def _leads(self, event) -> bool:
        """Would a pass try this slave event first?  (The caller knows
        the master has no work.)"""
        if len(self.slave.threads) != 1 or (
            type(event) is not SyscallEvent and type(event) is not BarrierEvent
        ):
            return False
        counter = event.counter
        for waiting in self._master.waiting.values():
            if waiting.counter < counter:
                return False
        return True

    def _on_event(self, side: _Side, event) -> None:
        if isinstance(event, BarrierEvent):
            self._park(side, event)
            return
        if not isinstance(event, SyscallEvent):
            raise DualExecutionError(
                f"{side.role} machine yielded an unexpected event: {event!r}"
            )
        if side.role == MASTER:
            self._on_master_syscall(event)
        else:
            self._park(side, event)

    def _park(self, side: _Side, event) -> None:
        # A master try fails while its slave thread runs; the slave
        # thread wakes it when it blocks.
        tid = event.thread_id
        side.waiting[tid] = event
        if side is self._slave or self._position(self._slave, tid) is not RUNNING:
            side.woken.add(tid)
        self._wake(side.peer, tid)

    def _on_master_syscall(self, event: SyscallEvent) -> None:
        """Algorithm 2: the master blocks only at sinks."""
        if self.config.sinks.matches(event):
            self._park(self._master, event)
            return
        name, args = event.name, event.args
        if name in _UNCOUPLED:
            # Process-level services are always executed independently
            # and never recorded for reuse (Section 4.2).
            resolve_syscall_locally(self.master, event)
            return
        master = self.master
        resource = master.kernel.resource_of(name, args)
        signature = master.kernel.signature_of(name, args, resource)
        try:
            result = master.execute_syscall(event)
        except ProgramExit as program_exit:
            master.terminate(program_exit.code)
            return
        tid = event.thread_id
        thread = master.threads[tid]
        thread.clock += master.syscall_cost()
        self._queue_for(tid).add(
            SyscallRecord(
                event.counter,
                name,
                args,
                result,
                resource,
                signature,
                published_at=thread.clock,
            )
        )
        self._wake(self._slave, tid)
        master.complete_syscall(event, result)

    # -- wakes -----------------------------------------------------------------------

    def _unpark(self, side: _Side, tid: int):
        """Remove (and return) a thread's waiting event."""
        side.woken.discard(tid)
        return side.waiting.pop(tid, None)

    def _wake(self, side: _Side, tid: int) -> None:
        if tid in side.waiting:
            side.woken.add(tid)

    def _settle(self, side: _Side, tid: int) -> None:
        """After *side*'s thread *tid* was resolved: wake the peer's
        events its new state can unblock.  A thread running again
        unblocks nothing until it blocks, which a pump reports."""
        if side.machine.finished:
            self._announce_finish(side)
        elif self._position(side, tid) is not RUNNING:
            self._wake(side.peer, tid)
        elif side is self._slave:
            self._master.woken.discard(tid)  # fails until the slave blocks

    def _unparked_positions(self, side: _Side) -> Dict[int, object]:
        """The positions a pump can change: those of unparked threads."""
        threads = range(len(side.machine.threads))
        return {t: self._position(side, t) for t in threads if t not in side.waiting}

    def _settle_pump(self, side: _Side, before: Optional[Dict[int, object]]) -> None:
        """After a pump: wake the peer of each unparked thread whose
        position moved (each one when there is no *before*: a lone
        thread that ran has moved).  New parks woke their peers."""
        if side.machine.finished:
            self._announce_finish(side)
        else:
            for tid in range(len(side.machine.threads)):
                if tid not in side.waiting and (
                    before is None or before.get(tid, RUNNING) != self._position(side, tid)
                ):
                    self._wake(side.peer, tid)

    def _announce_finish(self, side: _Side) -> None:
        side.peer.woken.update(side.peer.waiting)

    def _wake_lock_waiters(self, mutex_id) -> None:
        for tid, event in self._slave.waiting.items():
            if getattr(event, "name", None) == "mutex_lock" and event.args[:1] == (mutex_id,):
                self._slave.woken.add(tid)

    # -- lock order sharing ----------------------------------------------------------

    def _record_master_lock(self, mutex_id: int, tid: int) -> None:
        self._master_lock_order.setdefault(mutex_id, []).append(tid)
        self._wake_lock_waiters(mutex_id)

    def _record_slave_lock(self, mutex_id: int, tid: int) -> None:
        self._slave_lock_progress[mutex_id] = (
            self._slave_lock_progress.get(mutex_id, 0) + 1
        )
        self._wake_lock_waiters(mutex_id)

    def _taint_lock(self, mutex_id) -> None:
        self.locks.taint(mutex_id)
        self.report.tainted_locks = len(self.locks)
        self._wake_lock_waiters(mutex_id)

    def _slave_lock_permitted(self, mutex_id: int, tid: int) -> bool:
        """May this slave thread acquire now, per the master's order?"""
        if self.locks.is_tainted(mutex_id):
            return True
        order = self._master_lock_order.get(mutex_id, [])
        progress = self._slave_lock_progress.get(mutex_id, 0)
        if progress < len(order):
            return order[progress] == tid
        # Master has not acquired this far (yet).  If the master is done
        # the orders diverged: taint and free-run.
        if self.master.finished:
            self._taint_lock(mutex_id)
            return True
        return False

    # -- positions ----------------------------------------------------------------------

    def _position(self, side: _Side, tid: int):
        """Progress of a thread: its blocked counter, or None (=infinity)
        when the thread/machine finished or does not exist."""
        machine = side.machine
        if machine.finished:
            return None
        threads = machine.threads
        if tid >= len(threads):
            # The paired thread has not been spawned (yet).  While the
            # peer machine is alive it may still appear — wait.
            return RUNNING
        thread = threads[tid]
        status = thread.status
        if status == RUNNABLE:
            return RUNNING  # (a parked thread is never runnable)
        if status == DONE:
            return None
        event = side.waiting.get(tid)
        if event is not None:
            return event.counter
        if thread.pending_transition is not None:
            return RUNNING
        # Internally blocked (mutex/join): its counter is stable.
        return thread.counter

    def _peer_clock(self, side: _Side, tid: int) -> float:
        peer = side.peer
        if tid < len(peer.machine.threads):
            return peer.machine.threads[tid].clock
        return 0.0

    # -- resolution ----------------------------------------------------------------------

    def _resolve_pass(self) -> bool:
        """Try the woken events in resolution order (one woken by an
        earlier resolution in the pass included); True on progress.

        On counter ties the slave goes first: its aligned lookups must
        consume iteration records before a master barrier prunes them.
        (Slave events that must defer to a master sink rendezvous at
        the same counter return False on their own.)
        """
        slave, master = self._slave, self._master
        if not (slave.woken or master.woken):
            return False
        entries: List[Tuple[tuple, int, int, _Side, int]] = []
        for side in (slave, master):
            for index, (tid, event) in enumerate(side.waiting.items()):
                entries.append((event.counter, side.order, index, side, tid))
        entries.sort()
        progressed = False
        for _counter, _order, _index, side, tid in entries:
            if tid not in side.woken:
                continue
            side.woken.discard(tid)
            event = side.waiting.get(tid)
            if event is None:
                continue  # already handled (e.g. sink rendezvous pair)
            if side is master:
                resolved = self._try_resolve_master(event)
            else:
                resolved = self._try_resolve_slave(event)
            if resolved:
                progressed = True
                self._settle(master, tid)
                self._settle(slave, tid)
        return progressed

    # .. master side ..........................................................

    def _try_resolve_master(self, event) -> bool:
        tid = event.thread_id
        if isinstance(event, BarrierEvent):
            return self._try_resolve_barrier(self._master, event)
        # A sink syscall awaiting rendezvous.
        slave_event = self._slave.waiting.get(tid)
        if (
            isinstance(slave_event, SyscallEvent)
            and slave_event.counter == event.counter
        ):
            self._rendezvous_sink(event, slave_event)
            return True
        peer_position = self._position(self._slave, tid)
        if peer_position is RUNNING:
            return False
        if (
            counter_geq(peer_position, event.counter) and peer_position != event.counter
        ) or (
            isinstance(slave_event, BarrierEvent) and slave_event.counter == event.counter
        ):
            # The slave moved past this counter without the sink (case 1):
            # it is beyond it, finished entirely, or at its iteration-end
            # barrier, having passed the sink's position in the iteration.
            self.report.sinks_total += 1
            self.report.add(
                Detection(
                    SINK_MISSING_IN_SLAVE,
                    event.counter,
                    event.name,
                    event.args,
                    None,
                    event.function,
                )
            )
            self._resolve_master_sink_locally(event)
            return True
        return False

    def _rendezvous_sink(self, master_event: SyscallEvent, slave_event: SyscallEvent) -> None:
        """Both executions blocked at the same counter (cases 2-4)."""
        self.report.sinks_total += 1
        if master_event.name != slave_event.name:
            self.report.add(
                Detection(
                    SINK_DIFFERENT_SYSCALL,
                    master_event.counter,
                    master_event.name,
                    master_event.args,
                    slave_event.args,
                    master_event.function,
                )
            )
            self._resolve_master_sink_locally(master_event)
            if self.config.sinks.matches(slave_event):
                # Avoid double-reporting: the slave's divergent sink is
                # part of this detection; run it decoupled.
                self._resolve_slave_locally(slave_event, shared=False)
            # Otherwise the slave event stays queued; its own rules
            # resolve it (decoupled) now that the master moved on.
            return
        signatures = [
            machine.kernel.signature_of(
                event.name,
                event.args,
                machine.kernel.resource_of(event.name, event.args),
            )
            for machine, event in (
                (self.master, master_event), (self.slave, slave_event)
            )
        ]
        if signatures[0] != signatures[1]:
            self.report.add(
                Detection(
                    SINK_ARGS_DIFFER,
                    master_event.counter,
                    master_event.name,
                    master_event.args,
                    slave_event.args,
                    master_event.function,
                )
            )
        # Both proceed; each side performs its own sink syscall (the
        # slave's lands in its private world — no external effect).
        self._resolve_master_sink_locally(master_event)
        self._resolve_slave_locally(slave_event, shared=False)

    def _resolve_master_sink_locally(self, event: SyscallEvent) -> None:
        self._unpark(self._master, event.thread_id)
        self.master.wait_until(
            event.thread_id, self._peer_clock(self._master, event.thread_id)
        )
        if event.name in THREAD_SYSCALLS:
            resolve_syscall_locally(self.master, event)
            return
        try:
            result = self.master.execute_syscall(event)
        except ProgramExit as program_exit:
            self.master.terminate(program_exit.code)
            return
        self.master.charge(event.thread_id, self.master.syscall_cost())
        self.master.complete_syscall(event, result)

    # .. barriers (both sides) .................................................

    def _try_resolve_barrier(self, side: _Side, event: BarrierEvent) -> bool:
        """Back-edge sync(): rendezvous with the peer's barrier crossing
        of the same loop iteration, or pass once the peer has provably
        left the loop behind."""
        tid = event.thread_id
        peer = side.peer
        peer_event = peer.waiting.get(tid)
        if (
            isinstance(peer_event, BarrierEvent)
            and peer_event.loop_key == event.loop_key
        ):
            # Same loop, same iteration: release both sides together.
            self._release_barrier(side, event)
            self._release_barrier(peer, peer_event)
            return True
        peer_position = self._position(peer, tid)
        if peer_position is RUNNING:
            return False
        if peer_position is None or counter_less(event.counter, peer_position):
            # The peer is strictly beyond this loop (or finished): the
            # iteration counts diverged — pass without a partner.
            self._release_barrier(side, event)
            return True
        return False

    def _release_barrier(self, side: _Side, event: BarrierEvent) -> None:
        tid = event.thread_id
        self._unpark(side, tid)
        if side.role == MASTER:
            # End of an iteration: drop its outcome records.  Unconsumed
            # ones are master-only syscalls — differences.
            dropped = self._queue_for(tid).prune_iteration(
                event.counter, event.reset_to
            )
            for record in dropped:
                self.report.syscall_diffs += 1
                self.taints.taint(record.resource, "master-only syscall in loop")
        side.machine.wait_until(tid, self._peer_clock(side, tid))
        side.machine.complete_barrier(event)

    # .. slave side ..............................................................

    def _try_resolve_slave(self, event) -> bool:
        tid = event.thread_id
        if isinstance(event, BarrierEvent):
            return self._try_resolve_barrier(self._slave, event)
        name = event.name
        if name in THREAD_SYSCALLS:
            return self._try_resolve_slave_thread_syscall(event)
        if self.config.sinks.matches(event):
            return self._try_resolve_slave_sink(event)
        if name in ALWAYS_INDEPENDENT:
            self._resolve_slave_locally(event, shared=False)
            return True
        counter = event.counter
        peer_position = self._position(self._master, tid)
        if peer_position is RUNNING or (
            peer_position is not None and peer_position < counter
        ):
            return False  # the master is behind or mid-flight: wait.
        queue = self._queue_for(tid)
        # Master-only records before this counter are path differences.
        # (On a retry this drops only records published since, which
        # woke this event.)
        for record in queue.prune_passed(counter):
            self.report.syscall_diffs += 1
            self.taints.taint(record.resource, "master-only syscall")
        record = queue.find(counter, name)
        if (
            record is None
            and peer_position == counter
            and isinstance(self._master.waiting.get(tid), SyscallEvent)
        ):
            # The master is blocked at this very counter (a sink or a
            # barrier with a different PC): path difference for us, but
            # give the master's rendezvous logic the first chance.
            return False  # master's sink logic will handle the pair
        # The slave's resource, taken once before the syscall runs.
        resource = self.slave.kernel.resource_of(name, event.args)
        source = self.config.sources.matches(event, resource)
        if record is not None:
            if record.signature == self.slave.kernel.signature_of(
                name, event.args, resource
            ):
                record.consumed = True
                self._resolve_slave_locally(
                    event, shared=True, master_record=record, source=source,
                    resource=resource,
                )
                return True
            # Aligned counter, same syscall, different arguments: the
            # executions diverged in data — decouple this operation.
            record.consumed = True
            self.report.syscall_diffs += 1
            self.taints.taint(record.resource, "argument divergence")
            self.taints.taint(resource, "argument divergence (slave)")
            self._resolve_slave_locally(event, shared=False, source=source)
            return True
        # No aligned outcome: the master took a different path.  The
        # slave learned this when the master first published progress
        # past this counter.
        learned_at = queue.earliest_publication_after(counter)
        if learned_at is not None:
            self.slave.wait_until(tid, learned_at)
        self.report.syscall_diffs += 1
        self.taints.taint(resource, "slave-only syscall")
        self._resolve_slave_locally(event, shared=False, source=source)
        return True

    def _try_resolve_slave_sink(self, event: SyscallEvent) -> bool:
        tid = event.thread_id
        peer_position = self._position(self._master, tid)
        master_event = self._master.waiting.get(tid)
        if (
            isinstance(master_event, SyscallEvent)
            and master_event.counter == event.counter
        ):
            return False  # master's rendezvous logic owns this pair
        if peer_position is RUNNING or not counter_geq(peer_position, event.counter):
            return False
        if peer_position == event.counter:
            return False  # master blocked here; let it classify first
        # The master passed this counter without a sink: output that
        # exists only under the mutated input — causality.
        self.report.add(
            Detection(
                SINK_ONLY_IN_SLAVE,
                event.counter,
                event.name,
                None,
                event.args,
                event.function,
            )
        )
        self._resolve_slave_locally(event, shared=False)
        return True

    def _try_resolve_slave_thread_syscall(self, event: SyscallEvent) -> bool:
        tid = event.thread_id
        if event.name == "mutex_lock":
            mutex_id = event.args[0] if event.args else None
            if not self._slave_lock_permitted(mutex_id, tid):
                return False
        self._unpark(self._slave, tid)
        resolve_syscall_locally(self.slave, event)
        return True

    def _resolve_slave_locally(
        self,
        event: SyscallEvent,
        shared: bool,
        master_record: Optional[SyscallRecord] = None,
        source: Optional[str] = None,
        resource: Optional[str] = None,
    ) -> None:
        """Execute a slave syscall on its own world; reuse the master's
        outcome for aligned nondeterministic inputs; mutate sources.

        A *shared* resolution passes the slave's *resource* as its
        caller took it before the syscall ran; only that case reads it.
        """
        slave = self.slave
        tid = event.thread_id
        self._slave.woken.discard(tid)
        self._slave.waiting.pop(tid, None)
        thread = slave.threads[tid]
        if master_record is not None and master_record.published_at > thread.clock:
            # Discrete-event semantics: the slave resumes when the
            # master's outcome was published, not at the master's
            # current (possibly far ahead) clock.
            thread.clock = master_record.published_at
        try:
            result = slave.execute_syscall(event)
        except ProgramExit as program_exit:
            slave.terminate(program_exit.code)
            return
        if shared and master_record is not None and not self.taints.is_tainted(resource):
            if event.name in NONDET_INPUT:
                # Nondeterministic outcomes must be copied from the master.
                result = master_record.result
            # Aligned syscalls reuse the master's outcome instead of
            # re-entering the (real) kernel — the cheap path.  The local
            # execution above only maintains the private world's state.
            thread.clock += slave.costs.syscall_shared + slave.jitter_units()
        else:
            thread.clock += slave.syscall_cost()
        if source is not None:
            mutator = self.config.sources.mutator_for(source) or self.config.mutation
            result = mutator(result)
            self.report.mutated_source_reads += 1
        slave.complete_syscall(event, result)

    # -- stall breaking and finalization -----------------------------------------------

    def _break_stall(self) -> bool:
        """Force progress when no event is resolvable (divergent lock
        orders, pathological waits).  Picks the earliest blocked event
        and resolves it decoupled."""
        earliest = None
        for side in (self._slave, self._master):
            for tid, event in side.waiting.items():
                key = (event.counter, side.order)
                if earliest is None or key < earliest[0]:
                    earliest = (key, side, tid, event)
        if earliest is None:
            return False
        _key, side, tid, event = earliest
        self.report.stall_breaks += 1
        if self._watchdog.record_stall_break(side.role, tid):
            # Decoupled resolution keeps stalling this thread with no
            # global progress: the watchdog's deadline has elapsed in
            # virtual time — abandon it and move on.
            self._abandon_thread(side, tid, "watchdog deadline exceeded")
        elif isinstance(event, BarrierEvent):
            self._unpark(side, tid)
            side.machine.complete_barrier(event)
        elif side.role == MASTER:
            self._resolve_master_sink_locally(event)
        elif event.name == "mutex_lock" and event.args:
            self._unpark(side, tid)
            self._taint_lock(event.args[0])
            resolve_syscall_locally(self.slave, event)
        else:
            self._resolve_slave_locally(event, shared=False)
        self._settle(side, tid)
        return True

    def _abandon_thread(self, side: _Side, tid: int, reason: str) -> None:
        """Rung 3 of the degradation ladder: give up on one thread.

        Its blocked resource is tainted (it can no longer be trusted
        for coupling), its clock is charged the watchdog deadline (the
        virtual time the watchdog waited before declaring it dead), and
        the machine releases its mutexes so peers make progress.
        """
        machine = side.machine
        event = self._unpark(side, tid)
        if isinstance(event, SyscallEvent):
            self.taints.taint(
                machine.kernel.resource_of(event.name, event.args),
                f"thread abandoned ({side.role} t{tid})",
            )
        machine.wait_until(tid, machine.threads[tid].clock + self._watchdog.deadline)
        machine.abandon_thread(tid)
        self.degradation.abandoned_threads.append((side.role, tid, reason))

    def _collect_degradation(self) -> None:
        """Fold both sides' fault-plan records into the degradation
        report (run once, before finalization)."""
        degradation = self.degradation
        for side in (self._master, self._slave):
            plan = side.machine.kernel.faults
            if plan is None:
                continue
            degradation.faults_injected.extend(
                (side.role, syscall, errno)
                for syscall, errno, _failures in plan.injections
            )
            degradation.retries += plan.retries
            degradation.short_reads += plan.short_reads
            degradation.lock_delays += plan.lock_delays
            degradation.exhausted_syscalls.extend(
                (side.role, syscall) for syscall in plan.exhausted
            )
        degradation.watchdog_fires = self._watchdog.fires
        if degradation.degraded:
            degradation.decoupled_resources = sorted(self.taints.tainted_resources)

    def _finalize(self) -> None:
        """End-of-run accounting: leftover master-only records are
        syscall differences."""
        for queue in self._queues.values():
            for record in queue.drain_unconsumed():
                self.report.syscall_diffs += 1
                self.taints.taint(record.resource, "master-only syscall (end)")
        self.report.tainted_resources = sorted(self.taints.tainted_resources)
        if self.static_oracle is not None:
            # Sink-relevance oracle (duck-typed: only ProgramAnalysis
            # carries it).  Every dynamic detection must land on a
            # Syscall site the relevance pass classified sink-relevant
            # — a detection at an elided site would mean Algorithm 2's
            # elision dropped an outcome-influencing instruction.
            relevant_site = getattr(self.static_oracle, "relevant_site", None)
            for detection in self.report.detections:
                if not self.static_oracle.may_depend(
                    detection.where, detection.syscall
                ):
                    self.report.soundness_violations.append(
                        f"{detection.kind} at {detection.where}:"
                        f"{detection.syscall} is outside the static"
                        " may-depend set"
                    )
                if relevant_site is not None and not relevant_site(
                    detection.where, detection.syscall
                ):
                    self.report.soundness_violations.append(
                        f"{detection.kind} at {detection.where}:"
                        f"{detection.syscall} is at a syscall site the"
                        " relevance pass classified elidable"
                    )


def run_dual(
    instrumented: InstrumentedModule,
    world: World,
    config: LdxConfig,
    **kwargs,
) -> DualResult:
    """Convenience wrapper: build and run an LdxEngine."""
    return LdxEngine(instrumented, world, config, **kwargs).run()


class EngineFactory:
    """The construction / per-run split of :class:`LdxEngine`.

    One factory holds everything that is a pure function of the program
    and its input spec — the instrumented module, the threaded-backend
    compiled closures (warmed eagerly so the first run pays no
    compilation latency), an optional static oracle and cost model, and
    a pristine **base world** that is never executed on.  Each
    :meth:`engine` call stamps out only per-run state: the master world
    is an O(1) copy-on-write clone of the base (the engine clones the
    slave's from it in turn), and reports, taint maps, outcome queues
    and the watchdog are all fresh per engine.

    This is the long-lived service shape: a daemon keeps one factory
    per (source, input-spec) and serves thousands of requests from it;
    nothing a run does — degradation, taints, crashes — can leak into
    the next, because no run-scoped object is shared.  Sequential and
    concurrent runs from one factory produce verdicts byte-identical to
    freshly constructed engines.
    """

    def __init__(
        self,
        instrumented: InstrumentedModule,
        base_world: World,
        costs: Optional[CostModel] = None,
        static_oracle=None,
    ) -> None:
        from repro.interp.compile import (
            BACKEND_THREADED,
            compiled_for_module,
            get_default_backend,
        )

        self.instrumented = instrumented
        self.base_world = base_world
        self.costs = costs
        self.static_oracle = static_oracle
        # The process default, fixed for every engine this factory builds.
        self.backend = get_default_backend()
        # Runs served so far (telemetry; never consulted by a run).
        self.runs = 0
        if self.backend == BACKEND_THREADED:
            # Warm the per-module compile memo: every Machine built from
            # this factory hits it instead of compiling.
            compiled_for_module(instrumented.module, instrumented.plan)

    @classmethod
    def for_workload(cls, workload, seed: int = 1, **kwargs) -> "EngineFactory":
        """A factory over a registered workload's program and world."""
        return cls(workload.instrumented, workload.build_world(seed), **kwargs)

    def engine(self, config: LdxConfig, **kwargs) -> LdxEngine:
        """A fresh engine whose master world is a clone of the base."""
        if self.costs is not None:
            kwargs.setdefault("costs", self.costs)
        kwargs.setdefault("static_oracle", self.static_oracle)
        kwargs.setdefault("backend", self.backend)
        self.runs += 1
        return LdxEngine(self.instrumented, self.base_world.clone(), config, **kwargs)

    def run(self, config: LdxConfig, **kwargs) -> DualResult:
        """Build and run one supervised dual execution."""
        return self.engine(config, **kwargs).run()
