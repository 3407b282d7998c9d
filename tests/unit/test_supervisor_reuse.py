"""A single factory serving many runs never leaks state across them.

The service keeps one :class:`EngineFactory` per (program, input spec)
and stamps out engines per request.  These tests pin the contract that
makes that safe: sequential and concurrent runs from one factory yield
verdicts byte-identical to freshly constructed engines, degradation
in one run never appears in the next, and no watchdog or worker
threads outlive their runs.
"""

import gc
import json
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

from repro.core import EngineFactory, FaultConfig, RunBudget, run_dual
from repro.core.supervisor import (
    DEFAULT_DEADLINE,
    DEFAULT_MAX_INSTRUCTIONS,
    INSTRUCTIONS_PER_UNIT,
)
from repro.interp import get_default_backend, set_default_backend
from repro.serve.api import verdict_payload
from repro.workloads import get_workload


def _canonical(result) -> str:
    return json.dumps(verdict_payload(result), sort_keys=True)


def _fresh_verdict(name="gzip", seed=1, **kwargs) -> str:
    workload = get_workload(name)
    return _canonical(
        run_dual(
            workload.instrumented,
            workload.build_world(seed),
            workload.leak_variant(),
            **kwargs,
        )
    )


# -- RunBudget -----------------------------------------------------------------


def test_budget_defaults():
    budget = RunBudget()
    assert budget.watchdog_deadline == DEFAULT_DEADLINE
    assert budget.max_instructions == DEFAULT_MAX_INSTRUCTIONS


def test_budget_from_deadline_scales_both_bounds():
    budget = RunBudget.from_deadline(1000.0)
    assert budget.watchdog_deadline == 1000.0
    assert budget.max_instructions == 1000 * INSTRUCTIONS_PER_UNIT
    kwargs = budget.engine_kwargs()
    assert set(kwargs) == {"watchdog_deadline", "max_instructions"}


def test_budget_clamps_to_minimums():
    budget = RunBudget.from_deadline(0.001)
    assert budget.watchdog_deadline >= RunBudget.MIN_DEADLINE
    assert budget.max_instructions >= RunBudget.MIN_INSTRUCTIONS


def test_budget_never_exceeds_default_instruction_cap():
    budget = RunBudget.from_deadline(10.0**9)
    assert budget.max_instructions == DEFAULT_MAX_INSTRUCTIONS


# -- sequential reuse ----------------------------------------------------------


def test_sequential_runs_match_fresh_engines():
    workload = get_workload("gzip")
    factory = EngineFactory.for_workload(workload)
    fresh = _fresh_verdict("gzip")
    for _ in range(5):
        assert _canonical(factory.run(workload.leak_variant())) == fresh
    assert factory.runs == 5


def test_factory_fixes_the_default_backend_when_built():
    # A factory resolves the process default once and hands it to
    # every engine it builds, whatever the default is changed to later.
    workload = get_workload("gzip")
    config = workload.leak_variant()
    saved = get_default_backend()
    try:
        set_default_backend("switch")
        switch = EngineFactory.for_workload(workload)
        set_default_backend("threaded")
        threaded = EngineFactory.for_workload(workload)
        set_default_backend("switch")
        engine = threaded.engine(config)
        assert engine.master.backend == engine.slave.backend == "threaded"
        engine = switch.engine(config)
        assert engine.master.backend == engine.slave.backend == "switch"
    finally:
        set_default_backend(saved)


def _freed_without_the_collector(run, machines_of):
    """Run twice (the first warms the compile memo and region code);
    dropping the second result must free its machines by reference
    counting alone, with no Machine, Kernel or World left in a cycle."""
    run()
    gc.collect()
    gc.disable()
    try:
        result = run()
        machines = [weakref.ref(machine) for machine in machines_of(result)]
        del result
        assert [machine() for machine in machines] == [None] * len(machines)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = {type(obj).__name__ for obj in gc.garbage}
        assert not cyclic & {"Machine", "Kernel", "World"}, sorted(cyclic)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_finished_run_leaves_no_reference_cycle():
    # Once the result is dropped, reference counting alone frees the
    # machines of a dual run and of each taint baseline (whose tracker,
    # the machine's observer, points back at it while the run lasts):
    # nothing of a run waits for the cyclic collector.
    from repro.baselines.taint import run_taint

    workload = get_workload("gzip")
    factory = EngineFactory.for_workload(workload)
    _freed_without_the_collector(
        lambda: factory.run(workload.leak_variant()),
        lambda result: (result.master, result.slave),
    )
    for tool in ("libdft", "taintgrind"):
        _freed_without_the_collector(
            lambda: run_taint(
                workload.module, workload.build_world(1),
                workload.leak_variant(), tool,
            ),
            lambda result: (result.machine,),
        )


def test_degradation_does_not_leak_between_runs():
    workload = get_workload("gzip")
    factory = EngineFactory.for_workload(workload)
    # A budget-starved run degrades to partial...
    starved = factory.run(workload.leak_variant(), max_instructions=50)
    assert starved.degradation.verdict_confidence == "partial"
    assert starved.degradation.budget_exhausted
    # ...and the very next run from the same factory is pristine.
    clean = factory.run(workload.leak_variant())
    assert clean.degradation.verdict_confidence == "full"
    assert not clean.degradation.budget_exhausted
    assert not clean.report.crashes
    assert _canonical(clean) == _fresh_verdict("gzip")


def test_faulted_run_does_not_contaminate_the_next():
    workload = get_workload("gzip")
    factory = EngineFactory.for_workload(workload)
    faulted = factory.run(
        workload.leak_variant(), faults=FaultConfig(seed=7, rate=0.2)
    )
    assert faulted.degradation.faults_injected
    clean = factory.run(workload.leak_variant())
    assert not clean.degradation.faults_injected
    assert _canonical(clean) == _fresh_verdict("gzip")


def _world_fingerprint(world):
    """The base world's observable content: files, clock, RNG stream
    (drawn on a clone, so observing it advances nothing) and network."""
    fs = world.fs
    return (
        {path: (fs.read_file(path).content, fs.read_file(path).mtime)
         for path in fs.paths()},
        world.clock.peek(),
        world.rng.clone().next_int(),
        [(c.address, list(c.sent), c.closed) for c in world.network.connections],
    )


def test_base_world_is_never_mutated_by_runs():
    workload = get_workload("gzip")
    factory = EngineFactory.for_workload(workload)
    # The first clone may compact the base overlay (copy-on-write
    # re-parenting); that is representation, not content.  After the
    # warmup the fingerprint must be stable across arbitrary runs.
    factory.run(workload.leak_variant())
    before = _world_fingerprint(factory.base_world)
    factory.run(workload.leak_variant())
    factory.run(workload.leak_variant(), faults=FaultConfig(seed=3, rate=0.3))
    factory.run(workload.leak_variant(), max_instructions=50)
    assert _world_fingerprint(factory.base_world) == before


# -- concurrent reuse ----------------------------------------------------------


def test_concurrent_runs_from_one_factory_are_identical():
    workload = get_workload("gzip")
    factory = EngineFactory.for_workload(workload)
    fresh = _fresh_verdict("gzip")
    with ThreadPoolExecutor(max_workers=4) as pool:
        verdicts = list(
            pool.map(
                lambda _: _canonical(factory.run(workload.leak_variant())),
                range(8),
            )
        )
    assert all(verdict == fresh for verdict in verdicts)


def test_no_threads_leak_after_many_runs():
    workload = get_workload("tnftp")
    factory = EngineFactory.for_workload(workload)
    before = set(threading.enumerate())
    for _ in range(3):
        factory.run(workload.leak_variant())
    factory.run(workload.leak_variant(), max_instructions=50)  # degraded run
    after = set(threading.enumerate())
    assert after == before


def test_service_workers_exit_after_drain():
    # Requests run on the submitting thread: the service starts no
    # thread of its own, and the engine's watchdogs end with each run.
    import io

    from repro.serve import LdxService, ServeConfig

    before = set(threading.enumerate())
    service = LdxService(
        ServeConfig(workers=3, log_stream=io.StringIO())
    ).start()
    for index in range(4):
        response = service.submit(
            {"id": f"r{index}", "workload": "tnftp", "variant": "leak"}
        )
        assert response["status"] == "ok"
    assert not [thread for thread in threading.enumerate()
                if thread.name.startswith("ldx-serve-")]
    assert set(threading.enumerate()) == before
    assert service.drain(timeout=60)
    after = set(threading.enumerate())
    assert after == before
