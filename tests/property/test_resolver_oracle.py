"""Differential test: the engine's resolver against the sorted rescan.

``LdxEngine`` resolves a single-threaded slave's syscalls and barriers
in place and otherwise retries only the waiting events whose inputs
changed.  Both
are claimed to be exact: the same tries succeed, in the same order, as
when every pass collected, sorted and retried *every* waiting event.
The class below keeps that older loop (its ``_drive``, ``_pump``,
``_resolve_pass``, ``_progress_marker`` and ``_break_stall``) on top of
the same tries, and every observable of a dual run must match:
reports field by field with detections in order, taint events in
order, the degradation report, clocks, stats and outputs.

Inputs: all registered workloads with each of their configurations,
under three schedule seeds and with and without injected faults; and
generated programs, single-threaded (``syscall_programs``) and with
two to four threads that share a mutex, run syscalls in loops and hit
sinks.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FaultConfig, LdxConfig, SinkSpec, SourceSpec
from repro.core.engine import MASTER, SLAVE, LdxEngine
from repro.core.report import Detection
from repro.errors import BudgetExceededError, EngineStallError, InterpreterError
from repro.instrument import instrument_module
from repro.interp.events import BarrierEvent
from repro.interp.resolve import resolve_syscall_locally
from repro.ir import compile_source
from repro.vos.world import World
from repro.workloads import ALL_WORKLOADS

from tests.property.test_backend_differential import _dual_observables
from tests.property.test_fault_tolerance import UNMUTATED, make_world, syscall_programs


class SortedRescanEngine(LdxEngine):
    """The resolver loop before in-place resolution and wakes."""

    def _drive(self) -> None:
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
            if watchdog.exhausted():
                raise EngineStallError("stall-breaking did not converge")

    def _progress_marker(self) -> tuple:
        master, slave = self.master.stats, self.slave.stats
        return (
            master.instructions + master.edge_actions + master.syscalls
            + master.barriers,
            slave.instructions + slave.edge_actions + slave.syscalls
            + slave.barriers,
            self.master.finished,
            self.slave.finished,
        )

    def _pump(self, side) -> None:
        machine = side.machine
        while machine.has_pending_work():
            try:
                event = machine.next_event()
            except BudgetExceededError as crash:
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

    def _entries(self, sides):
        entries = []
        for order, side in sides:
            for tid, event in side.waiting.items():
                entries.append((event.counter, order, side, tid))
        entries.sort(key=lambda item: (tuple(item[0]), item[1]))
        return entries

    def _resolve_pass(self) -> bool:
        progressed = False
        for _counter, _order, side, tid in self._entries(
            ((0, self._slave), (1, self._master))
        ):
            event = side.waiting.get(tid)
            if event is None:
                continue
            if side.role == MASTER:
                progressed |= self._try_resolve_master(event)
            else:
                progressed |= self._try_resolve_slave(event)
        return progressed

    def _break_stall(self) -> bool:
        entries = self._entries(((1, self._master), (0, self._slave)))
        if not entries:
            return False
        _counter, _order, side, tid = entries[0]
        event = side.waiting[tid]
        self.report.stall_breaks += 1
        if self._watchdog.record_stall_break(side.role, tid):
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


def _plain(value):
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if isinstance(value, Detection):
        return tuple(getattr(value, name) for name in Detection.__slots__)
    return value


def _observables(engine_class, instrumented, world, config, **kwargs):
    engine = engine_class(instrumented, world, config, **kwargs)
    result = engine.run()
    return (
        _dual_observables(result),
        {name: _plain(value) for name, value in vars(result.report).items()},
        list(engine.taints.taint_events),
        vars(result.degradation),
        result.master.exit_code,
        result.slave.exit_code,
    )


def _assert_same(instrumented, build_world, config, **kwargs):
    expected = _observables(
        SortedRescanEngine, instrumented, build_world(), config, **kwargs
    )
    actual = _observables(LdxEngine, instrumented, build_world(), config, **kwargs)
    assert actual == expected


SCHEDULE_SEEDS = (0, 1, 7)
FAULTS = (None, FaultConfig(seed=3, rate=0.1))


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_workloads_match_sorted_rescan(workload):
    configs = [workload.config(), workload.leak_variant()]
    if workload.noleak_variant() is not None:
        configs.append(workload.noleak_variant())
    for config in configs:
        for seed in SCHEDULE_SEEDS:
            for faults in FAULTS:
                _assert_same(
                    workload.instrumented,
                    lambda: workload.build_world(1),
                    config,
                    master_seed=seed,
                    slave_seed=seed + 1,
                    faults=faults,
                )


TAINTED_INPUT = LdxConfig(
    sources=SourceSpec(file_paths={"/data/in"}), sinks=SinkSpec.network_out()
)


@given(
    syscall_programs(),
    st.booleans(),
    st.sampled_from(FAULTS),
)
@settings(max_examples=30, deadline=None)
def test_single_thread_programs_match_sorted_rescan(source, mutate, faults):
    instrumented = instrument_module(compile_source(source))
    config = TAINTED_INPUT if mutate else UNMUTATED
    _assert_same(instrumented, make_world, config, faults=faults)


_STATEMENTS = (
    "mutex_lock(lock);\nshared = shared + 1;\nmutex_unlock(lock);",
    "mutex_lock(lock);\nshared = shared + ord(read(fd, 1));\nmutex_unlock(lock);",
    "mutex_lock(lock);\nsend(sock, shared);\nmutex_unlock(lock);",
    "read(fd, 4);",
    "send(sock, i);",
    "sleep(0);",
    "sleep(time() % 2);",
    "if (ord(read(fd, 1)) % 2 == 0) {\n  send(sock, n);\n  read(fd, 2);\n}",
    "if (shared % 2 == 0) {\n  read_line(fd);\n}",
    "if (ord(read(fd, 1)) % 2 == 1) {\n"
    "  mutex_lock(lock);\n  shared = shared + 2;\n  mutex_unlock(lock);\n}",
)


def locking_world():
    world = World(seed=1)
    world.fs.add_file("/data/in", "line one\nmore two\n" * 20)
    world.network.register("srv", 80, lambda req: f"ok:{len(req)}")
    return world


@st.composite
def locking_programs(draw):
    """Two to four threads (main and workers) sharing a mutex, with
    syscalls inside loops and sinks."""
    workers = draw(st.integers(1, 3))
    bodies = []
    for worker in range(workers):
        statements = draw(st.lists(st.sampled_from(_STATEMENTS), min_size=1, max_size=4))
        trips = draw(st.integers(1, 3))
        bodies.append(
            f"fn worker{worker}(n) {{\n"
            '  var fd = open("/data/in", "r");\n'
            "  var sock = socket();\n"
            '  connect(sock, "srv", 80);\n'
            "  var i = 0;\n"
            f"  while (i < {trips}) {{\n"
            + "\n".join(statements)
            + "\n    i = i + 1;\n  }\n  close(fd);\n  return n;\n}\n"
        )
    spawns = "".join(
        f"  var t{worker} = thread_spawn(worker{worker}, {worker + 1});\n"
        for worker in range(workers)
    )
    joins = "".join(f"  thread_join(t{worker});\n" for worker in range(workers))
    return (
        "var lock = 0;\nvar shared = 0;\n"
        + "".join(bodies)
        + "fn main() {\n"
        "  lock = mutex_create();\n"
        '  var fd = open("/data/in", "r");\n'
        "  var sock = socket();\n"
        '  connect(sock, "srv", 80);\n'
        + spawns
        + "  mutex_lock(lock);\n  shared = shared + len(read(fd, 2));\n"
        "  mutex_unlock(lock);\n"
        + joins
        + "  send(sock, shared);\n  print(shared);\n}\n"
    )


@given(
    locking_programs(),
    st.booleans(),
    st.integers(0, 10_000),
    st.sampled_from(FAULTS),
)
@settings(max_examples=40, deadline=None)
def test_threaded_programs_match_sorted_rescan(source, mutate, seed, faults):
    instrumented = instrument_module(compile_source(source))
    config = TAINTED_INPUT if mutate else UNMUTATED
    _assert_same(
        instrumented,
        locking_world,
        config,
        master_seed=seed,
        slave_seed=seed + 1,
        faults=faults,
    )
