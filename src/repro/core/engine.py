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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
from repro.core.supervisor import Checkpointer, EngineWatchdog
from repro.errors import BudgetExceededError, DualExecutionError, EngineStallError, InterpreterError
from repro.instrument.pipeline import InstrumentedModule
from repro.interp.costs import CostModel
from repro.interp.events import BarrierEvent, SyscallEvent
from repro.interp.machine import Machine
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


class _Side:
    """One half of the dual execution."""

    def __init__(self, role: str, machine: Machine) -> None:
        self.role = role
        self.machine = machine
        # tid -> the engine-visible event the thread is blocked on.
        self.waiting: Dict[int, object] = {}


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
        checkpointer: Optional[Checkpointer] = None,
        profile: bool = False,
    ) -> None:
        module = instrumented.module
        plan = instrumented.plan
        backend = config.interp_backend
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
        # Optional: snapshots the slave world at degradation rungs.
        self._checkpointer = checkpointer
        # Each side draws an independent deterministic fault schedule.
        self._fault_config = faults
        master_faults = faults.plan_for(MASTER) if faults is not None else None
        slave_faults = faults.plan_for(SLAVE) if faults is not None else None
        slave_world = slave_world if slave_world is not None else world.clone()
        self._master = _Side(
            MASTER,
            Machine(
                module,
                Kernel(world, faults=master_faults),
                plan=plan,
                costs=costs,
                name="master",
                schedule_seed=master_seed,
                max_instructions=max_instructions,
                backend=backend,
                profile=profile,
            ),
        )
        self._slave = _Side(
            SLAVE,
            Machine(
                module,
                Kernel(slave_world, faults=slave_faults),
                plan=plan,
                costs=costs,
                name="slave",
                schedule_seed=slave_seed,
                max_instructions=max_instructions,
                backend=backend,
                profile=profile,
            ),
        )
        # Per-thread-pair outcome queues (threads pair up by tid).
        self._queues: Dict[int, OutcomeQueue] = {}
        # Master lock-acquisition order per mutex, and the slave's replay
        # progress through it (Section 7 concurrency control).
        self._master_lock_order: Dict[int, List[int]] = {}
        self._slave_lock_progress: Dict[int, int] = {}
        self._master.machine.lock_hook = self._record_master_lock
        self._slave.machine.lock_hook = self._record_slave_lock

    # -- public API ----------------------------------------------------------

    @property
    def master(self) -> Machine:
        return self._master.machine

    @property
    def slave(self) -> Machine:
        return self._slave.machine

    def run(self) -> DualResult:
        """Drive both executions to completion; return the dual result.

        The supervisor guarantee: this never raises and never hangs.
        Any error escaping the event loop — an engine bug, a wedged
        fault schedule, a corrupted queue — is converted into a
        diagnosed, degraded :class:`DualResult` instead of a traceback.
        """
        try:
            self._drive()
        except Exception as failure:  # the supervisor's safety net
            self.degradation.engine_failures.append(
                f"{type(failure).__name__}: {failure}"
            )
            self._checkpoint_slave("engine-failure")
            for side in (self._master, self._slave):
                side.waiting.clear()
                if not side.machine.finished:
                    side.machine.terminate(-1)
        self._collect_degradation()
        self._finalize()
        return DualResult(
            self.master, self.slave, self.report, degradation=self.degradation
        )

    def _drive(self) -> None:
        """The discrete-event loop, watched for stalls."""
        watchdog = self._watchdog
        while True:
            self._pump(self._master)
            self._pump(self._slave)
            if self.master.finished and self.slave.finished:
                return
            watchdog.note_progress(self._progress_marker())
            if self._resolve_pass():
                continue
            if not self._break_stall():
                raise EngineStallError(
                    "dual execution stalled with no resolvable event"
                )
            if watchdog.exhausted():  # pragma: no cover - safety net
                raise EngineStallError("stall-breaking did not converge")

    def _checkpoint_slave(self, rung: str) -> None:
        """Snapshot the slave world at a degradation rung (no-op
        without an attached checkpointer)."""
        if self._checkpointer is not None:
            self._checkpointer.checkpoint(self.slave.kernel.world, rung)

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

    def _pump(self, side: _Side) -> None:
        """Advance a machine until every thread is blocked or done.

        A runtime error in one execution (the analogue of a crash) ends
        that execution without aborting the dual run — the perturbation
        may legitimately crash the slave (e.g. attack inputs).
        """
        machine = side.machine
        while machine.has_pending_work():
            try:
                event = machine.next_event()
            except BudgetExceededError as crash:
                # The run's deadline (instruction budget) cut this side
                # short: a diagnosed *partial* verdict, not a program
                # crash — only detections already recorded stand.
                self.report.crashes.append((side.role, str(crash)))
                self.degradation.budget_exhausted.append(
                    (side.role, machine.max_instructions)
                )
                side.waiting.clear()
                machine.terminate(-1)
                return
            except InterpreterError as crash:
                self.report.crashes.append((side.role, str(crash)))
                side.waiting.clear()
                machine.terminate(-1)
                return
            if event is None:
                break
            self._on_event(side, event)

    def _on_event(self, side: _Side, event) -> None:
        if isinstance(event, BarrierEvent):
            side.waiting[event.thread_id] = event
            return
        if not isinstance(event, SyscallEvent):
            raise DualExecutionError(
                f"{side.role} machine yielded an unexpected event: {event!r}"
            )
        if side.role == MASTER:
            self._on_master_syscall(event)
        else:
            side.waiting[event.thread_id] = event

    def _on_master_syscall(self, event: SyscallEvent) -> None:
        """Algorithm 2: the master blocks only at sinks."""
        if self.config.sinks.matches(event):
            self._master.waiting[event.thread_id] = event
            return
        if event.name in THREAD_SYSCALLS or event.name in ALWAYS_INDEPENDENT:
            # Process-level services are always executed independently
            # and never recorded for reuse (Section 4.2).
            resolve_syscall_locally(self.master, event)
            return
        resource = self.master.kernel.resource_of(event.name, event.args)
        signature = self.master.kernel.signature_of(event.name, event.args)
        try:
            result = self.master.execute_syscall(event)
        except ProgramExit as program_exit:
            self.master.terminate(program_exit.code)
            return
        self.master.charge(event.thread_id, self.master.syscall_cost())
        self._queue_for(event.thread_id).add(
            SyscallRecord(
                event.counter,
                event.name,
                event.args,
                result,
                resource,
                signature,
                published_at=self.master.threads[event.thread_id].clock,
            )
        )
        self.master.complete_syscall(event, result)

    # -- lock order sharing ----------------------------------------------------------

    def _record_master_lock(self, mutex_id: int, tid: int) -> None:
        self._master_lock_order.setdefault(mutex_id, []).append(tid)

    def _record_slave_lock(self, mutex_id: int, tid: int) -> None:
        self._slave_lock_progress[mutex_id] = (
            self._slave_lock_progress.get(mutex_id, 0) + 1
        )

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
            self.locks.taint(mutex_id)
            self.report.tainted_locks = len(self.locks)
            return True
        return False

    # -- positions ----------------------------------------------------------------------

    def _position(self, side: _Side, tid: int):
        """Progress of a thread: its blocked counter, or None (=infinity)
        when the thread/machine finished or does not exist."""
        machine = side.machine
        if machine.finished:
            return None
        if tid >= len(machine.threads):
            # The paired thread has not been spawned (yet).  While the
            # peer machine is alive it may still appear — wait.
            return RUNNING
        thread = machine.threads[tid]
        if thread.done:
            return None
        if tid in side.waiting:
            return side.waiting[tid].counter
        from repro.interp.machine import RUNNABLE as _RUNNABLE

        if thread.status == _RUNNABLE or thread.pending_transition is not None:
            return RUNNING
        # Internally blocked (mutex/join): its counter is stable.
        return thread.counter

    def _peer_clock(self, side: _Side, tid: int) -> float:
        peer = self._slave if side.role == MASTER else self._master
        if tid < len(peer.machine.threads):
            return peer.machine.threads[tid].clock
        return 0.0

    # -- resolution ----------------------------------------------------------------------

    def _resolve_pass(self) -> bool:
        """Try to resolve blocked events; True when any progress made."""
        entries: List[Tuple[tuple, int, _Side, int]] = []
        # On counter ties the slave goes first: its aligned lookups must
        # consume iteration records before a master barrier prunes them.
        # (Slave events that must defer to a master sink rendezvous at
        # the same counter return False on their own.)
        for order, side in ((0, self._slave), (1, self._master)):
            for tid, event in side.waiting.items():
                entries.append((event.counter, order, side, tid))
        entries.sort(key=lambda item: (_sort_key(item[0]), item[1]))
        progressed = False
        for _counter, _order, side, tid in entries:
            event = side.waiting.get(tid)
            if event is None:
                continue  # already handled (e.g. sink rendezvous pair)
            if side.role == MASTER:
                progressed |= self._try_resolve_master(event)
            else:
                progressed |= self._try_resolve_slave(event)
        return progressed

    # .. master side ..........................................................

    def _try_resolve_master(self, event) -> bool:
        tid = event.thread_id
        if isinstance(event, BarrierEvent):
            return self._try_resolve_barrier(self._master, event)
        # A sink syscall awaiting rendezvous.
        peer_position = self._position(self._slave, tid)
        slave_event = self._slave.waiting.get(tid)
        if (
            isinstance(slave_event, SyscallEvent)
            and slave_event.counter == event.counter
        ):
            self._rendezvous_sink(event, slave_event)
            return True
        if peer_position is RUNNING:
            return False
        if counter_geq(peer_position, event.counter) and peer_position != event.counter:
            # The slave moved past this counter without the sink (case 1).
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
        if peer_position is None:
            # Slave finished entirely before this sink.
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
        if (
            isinstance(slave_event, BarrierEvent)
            and slave_event.counter == event.counter
        ):
            # Slave is at its iteration-end barrier: it passed the sink's
            # position inside this iteration without the sink.
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
        master_signature = self.master.kernel.signature_of(
            master_event.name, master_event.args
        )
        slave_signature = self.slave.kernel.signature_of(
            slave_event.name, slave_event.args
        )
        if master_signature != slave_signature:
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
        del self._master.waiting[event.thread_id]
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
        peer = self._slave if side.role == MASTER else self._master
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
        del side.waiting[tid]
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
        source_resource = self.config.sources.matches(event, self.slave.kernel)
        peer_position = self._position(self._master, tid)
        if peer_position is RUNNING or not counter_geq(peer_position, event.counter):
            return False  # the master is behind or mid-flight: wait.
        # Master-only records before this counter are path differences.
        for record in self._queue_for(tid).prune_passed(event.counter):
            self.report.syscall_diffs += 1
            self.taints.taint(record.resource, "master-only syscall")
        record = self._queue_for(tid).find(event.counter, name)
        event_signature = self.slave.kernel.signature_of(name, event.args)
        if record is not None and record.signature == event_signature:
            record.consumed = True
            self._resolve_slave_locally(
                event, shared=True, master_record=record, source=source_resource
            )
            return True
        if record is not None:
            # Aligned counter, same syscall, different arguments: the
            # executions diverged in data — decouple this operation.
            record.consumed = True
            self.report.syscall_diffs += 1
            self.taints.taint(record.resource, "argument divergence")
            self.taints.taint(
                self.slave.kernel.resource_of(name, event.args),
                "argument divergence (slave)",
            )
            self._resolve_slave_locally(event, shared=False, source=source_resource)
            return True
        if peer_position == event.counter:
            # The master is blocked at this very counter (a sink or a
            # barrier with a different PC): path difference for us, but
            # give the master's rendezvous logic the first chance.
            master_event = self._master.waiting.get(tid)
            if isinstance(master_event, SyscallEvent):
                return False  # master's sink logic will handle the pair
        # No aligned outcome: the master took a different path.  The
        # slave learned this when the master first published progress
        # past this counter.
        learned_at = self._queue_for(tid).earliest_publication_after(event.counter)
        if learned_at is not None:
            self.slave.wait_until(tid, learned_at)
        self.report.syscall_diffs += 1
        self.taints.taint(
            self.slave.kernel.resource_of(name, event.args), "slave-only syscall"
        )
        self._resolve_slave_locally(event, shared=False, source=source_resource)
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
            del self._slave.waiting[tid]
            resolve_syscall_locally(self.slave, event)
            return True
        del self._slave.waiting[tid]
        resolve_syscall_locally(self.slave, event)
        return True

    def _resolve_slave_locally(
        self,
        event: SyscallEvent,
        shared: bool,
        master_record: Optional[SyscallRecord] = None,
        source: Optional[str] = None,
    ) -> None:
        """Execute a slave syscall on its own world; reuse the master's
        outcome for aligned nondeterministic inputs; mutate sources."""
        tid = event.thread_id
        self._slave.waiting.pop(tid, None)
        if master_record is not None:
            # Discrete-event semantics: the slave resumes when the
            # master's outcome was published, not at the master's
            # current (possibly far ahead) clock.
            self.slave.wait_until(tid, master_record.published_at)
        resource = self.slave.kernel.resource_of(event.name, event.args)
        try:
            result = self.slave.execute_syscall(event)
        except ProgramExit as program_exit:
            self.slave.terminate(program_exit.code)
            return
        coupled = (
            shared
            and master_record is not None
            and not self.taints.is_tainted(resource)
        )
        if coupled and event.name in NONDET_INPUT:
            # Nondeterministic outcomes must be copied from the master.
            result = master_record.result
        if coupled:
            # Aligned syscalls reuse the master's outcome instead of
            # re-entering the (real) kernel — the cheap path.  The local
            # execution above only maintains the private world's state.
            self.slave.charge(
                tid, self.slave.costs.syscall_shared + self.slave.jitter_units()
            )
        else:
            self.slave.charge(tid, self.slave.syscall_cost())
        if source is not None:
            mutator = self.config.sources.mutator_for(source) or self.config.mutation
            result = mutator(result)
            self.report.mutated_source_reads += 1
        self.slave.complete_syscall(event, result)

    # -- stall breaking and finalization -----------------------------------------------

    def _break_stall(self) -> bool:
        """Force progress when no event is resolvable (divergent lock
        orders, pathological waits).  Picks the earliest blocked event
        and resolves it decoupled."""
        entries: List[Tuple[tuple, int, _Side, int]] = []
        for order, side in ((1, self._master), (0, self._slave)):
            for tid, event in side.waiting.items():
                entries.append((event.counter, order, side, tid))
        if not entries:
            return False
        entries.sort(key=lambda item: (_sort_key(item[0]), item[1]))
        _counter, _order, side, tid = entries[0]
        event = side.waiting[tid]
        self.report.stall_breaks += 1
        if self._watchdog.record_stall_break(side.role, tid):
            # Decoupled resolution keeps stalling this thread with no
            # global progress: the watchdog's deadline has elapsed in
            # virtual time — abandon it and move on.
            self._abandon_thread(side, tid, "watchdog deadline exceeded")
            return True
        if isinstance(event, BarrierEvent):
            del side.waiting[tid]
            side.machine.complete_barrier(event)
            return True
        if side.role == SLAVE:
            if event.name == "mutex_lock" and event.args:
                self.locks.taint(event.args[0])
                self.report.tainted_locks = len(self.locks)
                del side.waiting[tid]
                resolve_syscall_locally(self.slave, event)
                return True
            self._resolve_slave_locally(event, shared=False)
            return True
        self._resolve_master_sink_locally(event)
        return True

    def _abandon_thread(self, side: _Side, tid: int, reason: str) -> None:
        """Rung 3 of the degradation ladder: give up on one thread.

        Its blocked resource is tainted (it can no longer be trusted
        for coupling), its clock is charged the watchdog deadline (the
        virtual time the watchdog waited before declaring it dead), and
        the machine releases its mutexes so peers make progress.
        """
        machine = side.machine
        # The slave world's last consistent state, captured before the
        # abandonment mutates it (taint, clock charge, mutex release).
        self._checkpoint_slave(f"abandon-{side.role}-t{tid}")
        event = side.waiting.pop(tid, None)
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
        if self._checkpointer is not None:
            degradation.checkpoints = list(self._checkpointer.taken)
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


def _sort_key(counter) -> tuple:
    """Counters sort by progress order; pad so tuples compare safely."""
    return tuple(counter)


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
    nothing a run does — degradation, taints, crashes, checkpoint
    rungs — can leak into the next, because no run-scoped object is
    shared.  Sequential and concurrent runs from one factory produce
    verdicts byte-identical to freshly constructed engines.
    """

    def __init__(
        self,
        instrumented: InstrumentedModule,
        base_world: World,
        costs: Optional[CostModel] = None,
        static_oracle=None,
        backend: Optional[str] = None,
    ) -> None:
        from repro.interp.compile import (
            BACKEND_THREADED,
            compiled_for_module,
            resolve_backend,
        )

        self.instrumented = instrumented
        self.base_world = base_world
        self.costs = costs
        self.static_oracle = static_oracle
        self.backend = resolve_backend(backend)
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
        if config.interp_backend is None and self.backend is not None:
            config.interp_backend = self.backend
        self.runs += 1
        return LdxEngine(self.instrumented, self.base_world.clone(), config, **kwargs)

    def run(self, config: LdxConfig, **kwargs) -> DualResult:
        """Build and run one supervised dual execution."""
        return self.engine(config, **kwargs).run()
