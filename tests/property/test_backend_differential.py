"""Differential property tests: switch vs threaded backend.

The threaded-code backend is a pure dispatch optimisation — every
observable of an execution must be bit-identical to the switch
interpreter's: stdout, virtual clocks, instruction/edge-action/syscall
counts, counter stacks, dual-execution verdicts.  These properties
drive both backends over the same random structured programs (reusing
the generators from the counter and fault-tolerance suites), including
under instrumentation, injected transient faults, and thread
interleavings, and with region code loaded back from the artifact
cache's code namespace, and assert exact equality.
"""

from hypothesis import given, settings, strategies as st

from repro import cache
from repro.baselines.native import run_native
from repro.core import FaultConfig, LdxConfig, SinkSpec, SourceSpec, run_dual
from repro.instrument import instrument_module
from repro.interp import relevance_enabled, set_relevance_enabled
from repro.interp.compile import clear_compile_memo
from repro.ir import compile_source
from repro.vos.world import World

from tests.property.test_counter_properties import random_programs
from tests.property.test_fault_tolerance import (
    UNMUTATED,
    make_world,
    syscall_programs,
)


def _stats_tuple(stats):
    return (
        stats.instructions,
        stats.edge_actions,
        stats.syscalls,
        stats.barriers,
        stats.max_counter,
        stats.counter_samples,
        stats.max_stack_depth,
    )


def _native_observables(result):
    return (
        result.stdout,
        result.exit_code,
        result.time,
        result.output_log,
        _stats_tuple(result.stats),
    )


def _dual_observables(result):
    return (
        result.report.causality_detected,
        result.report.syscall_diffs,
        result.report.stall_breaks,
        result.report.tainted_sinks,
        sorted(result.report.tainted_resources),
        result.master_stdout,
        result.slave_stdout,
        result.master.time,
        result.slave.time,
        _stats_tuple(result.master.stats),
        _stats_tuple(result.slave.stats),
    )


@given(random_programs(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_native_runs_identical_across_backends(source, instrumented):
    module = compile_source(source)
    plan = instrument_module(module).plan if instrumented else None
    switch = run_native(module, World(seed=1), plan=plan, backend="switch")
    threaded = run_native(module, World(seed=1), plan=plan, backend="threaded")
    assert _native_observables(switch) == _native_observables(threaded)


@given(random_programs())
@settings(max_examples=30, deadline=None)
def test_dual_execution_identical_across_backends(source):
    instrumented = instrument_module(compile_source(source))
    config = LdxConfig(sources=SourceSpec(), sinks=SinkSpec(syscall_names=()))
    results = []
    for backend in ("switch", "threaded"):
        config.interp_backend = backend
        results.append(run_dual(instrumented, World(seed=1), config))
    assert _dual_observables(results[0]) == _dual_observables(results[1])


@given(syscall_programs(), st.integers(0, 10_000), st.floats(0.0, 0.5, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_faulty_duals_identical_across_backends(source, fault_seed, rate):
    instrumented = instrument_module(compile_source(source))
    faults = FaultConfig(seed=fault_seed, rate=rate)
    results = []
    for backend in ("switch", "threaded"):
        config = LdxConfig(
            sources=SourceSpec(),
            sinks=SinkSpec.network_out(),
            interp_backend=backend,
        )
        results.append(run_dual(instrumented, make_world(), config, faults=faults))
    assert _dual_observables(results[0]) == _dual_observables(results[1])
    assert (
        results[0].degradation.faults_injected
        == results[1].degradation.faults_injected
    )


@given(st.integers(0, 10_000), st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_thread_interleavings_identical_across_backends(seed, workers):
    # Racy global increments: the interleaving is schedule-seed driven,
    # so identical seeds must produce identical races on both backends.
    source = (
        "var shared = 0;\n"
        "fn worker(n) {\n"
        "  var j = 0;\n"
        "  while (j < n) { shared = shared + 1; j = j + 1; }\n"
        "  return shared;\n"
        "}\n"
        "fn main() {\n"
        "  var handles = [];\n"
        f"  var k = 0;\n"
        f"  while (k < {workers}) {{\n"
        "    push(handles, thread_spawn(worker, 5 + k));\n"
        "    k = k + 1;\n"
        "  }\n"
        "  var m = 0;\n"
        f"  while (m < {workers}) {{\n"
        "    print(thread_join(handles[m]));\n"
        "    m = m + 1;\n"
        "  }\n"
        "  print(shared);\n"
        "}\n"
    )
    module = compile_source(source)
    switch = run_native(module, World(seed=1), seed=seed, backend="switch")
    threaded = run_native(module, World(seed=1), seed=seed, backend="threaded")
    assert _native_observables(switch) == _native_observables(threaded)


@given(random_programs())
@settings(max_examples=30, deadline=None)
def test_relevance_toggle_identical_native(source):
    # The sink-relevance optimisation (counter elision + widened
    # fusion) is byte-invisible: toggling it may change how the
    # threaded backend executes, never what it observes.
    module = compile_source(source)
    plan = instrument_module(module).plan
    saved = relevance_enabled()
    try:
        set_relevance_enabled(True)
        on = run_native(module, World(seed=1), plan=plan, backend="threaded")
        set_relevance_enabled(False)
        off = run_native(module, World(seed=1), plan=plan, backend="threaded")
    finally:
        set_relevance_enabled(saved)
    assert _native_observables(on) == _native_observables(off)


@given(random_programs())
@settings(max_examples=20, deadline=None)
def test_relevance_toggle_identical_dual(source):
    instrumented = instrument_module(compile_source(source))
    config = LdxConfig(
        sources=SourceSpec(),
        sinks=SinkSpec(syscall_names=()),
        interp_backend="threaded",
    )
    saved = relevance_enabled()
    results = []
    try:
        for enabled in (True, False):
            set_relevance_enabled(enabled)
            results.append(run_dual(instrumented, World(seed=1), config))
    finally:
        set_relevance_enabled(saved)
    assert _dual_observables(results[0]) == _dual_observables(results[1])


@given(random_programs())
@settings(max_examples=25, deadline=None)
def test_persisted_region_code_identical(tmp_path_factory, source):
    # Region code loaded from the on-disk code namespace behaves exactly
    # like freshly compiled code: a cold run fills a fresh cache dir, a
    # second "process" (cleared memo and memory layer) loads every
    # region from disk, and both match the switch interpreter.
    module = compile_source(source)
    plan = instrument_module(module).plan
    switch = run_native(module, World(seed=1), plan=plan, backend="switch")
    cache_dir = str(tmp_path_factory.mktemp("code"))
    runs, stats = [], []
    try:
        for _ in range(2):
            cache.configure(cache_dir=cache_dir)
            clear_compile_memo()
            runs.append(
                run_native(module, World(seed=1), plan=plan, backend="threaded")
            )
            stats.append(cache.get_compiled_cache().stats)
    finally:
        cache.configure()
        clear_compile_memo()
    cold, warm = stats
    assert warm.misses == 0
    assert warm.disk_hits == cold.stores == cold.misses
    assert cold.disk_errors == warm.disk_errors == 0
    for threaded in runs:
        assert _native_observables(threaded) == _native_observables(switch)
