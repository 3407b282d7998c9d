"""Differential property tests: switch vs threaded backend.

The threaded-code backend is a pure dispatch optimisation — every
observable of an execution must be bit-identical to the switch
interpreter's: stdout, virtual clocks, instruction/edge-action/syscall
counts, counter stacks, dual-execution verdicts.  These properties
drive both backends over the same random structured programs (reusing
the generators from the counter and fault-tolerance suites), including
under instrumentation, injected transient faults, and thread
interleavings, with the baselines' taint and execution-indexing
observers attached, and with region code loaded back from the artifact
cache's code namespace, and assert exact equality.
"""

from hypothesis import given, settings, strategies as st

from repro import cache
from repro.baselines.dualex import run_dualex
from repro.baselines.native import run_native
from repro.baselines.taint import run_taint
from repro.core import FaultConfig, LdxConfig, SinkSpec, SourceSpec, run_dual
from repro.errors import InterpreterError
from repro.instrument import instrument_module
from repro.interp import (
    get_default_backend,
    relevance_enabled,
    set_default_backend,
    set_relevance_enabled,
)
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
        results.append(
            run_dual(instrumented, World(seed=1), config, backend=backend)
        )
    assert _dual_observables(results[0]) == _dual_observables(results[1])


@given(syscall_programs(), st.integers(0, 10_000), st.floats(0.0, 0.5, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_faulty_duals_identical_across_backends(source, fault_seed, rate):
    instrumented = instrument_module(compile_source(source))
    faults = FaultConfig(seed=fault_seed, rate=rate)
    results = []
    for backend in ("switch", "threaded"):
        config = LdxConfig(sources=SourceSpec(), sinks=SinkSpec.network_out())
        results.append(
            run_dual(
                instrumented, make_world(), config, faults=faults, backend=backend
            )
        )
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


TAINTED_INPUT = LdxConfig(
    sources=SourceSpec(file_paths={"/data/in"}), sinks=SinkSpec.network_out()
)

CALLING_MAIN = """
fn main() {
  var fd = open("/data/in", "r");
  var secret = len(read(fd, 4));
  var sock = socket();
  connect(sock, "srv", 80);
  send(sock, run(secret));
  send(sock, run(0));
}
"""


def _called_twice(source):
    """The generated ``main`` as ``run(n)``, which seeds ``x`` from
    ``n`` and returns it, called with a tainted and a clean argument:
    the observers' call and return callbacks then carry taint."""
    prologue = "fn main() {\n  var x = "
    assert source.startswith(prologue)
    body = "fn run(n) {\n  var x = n + " + source[len(prologue):]
    return body[: body.rindex("}")] + "  return x;\n}\n" + CALLING_MAIN


def _observed_observables(module):
    """LIBDFT, TaintGrind and DualEx results: each attaches an observer
    (a taint tracker, an execution-indexing tracker) to its machines."""
    fields = []
    for tool in ("libdft", "taintgrind"):
        taint = run_taint(module, make_world(), TAINTED_INPUT, tool)
        fields.append(
            (repr(taint.time), taint.tainted_sinks, taint.sinks_total,
             taint.stdout, _stats_tuple(taint.machine.stats))
        )
    dualex = run_dualex(module, make_world(), TAINTED_INPUT)
    fields.append(
        (dualex.detections, dualex.sinks_total,
         repr(dualex.master_time), repr(dualex.slave_time))
    )
    return fields


@given(st.one_of(random_programs(), syscall_programs()))
@settings(max_examples=30, deadline=None)
def test_observed_baselines_identical_across_backends(source):
    module = compile_source(_called_twice(source))
    saved = get_default_backend()
    runs = []
    try:
        for backend in ("switch", "threaded"):
            set_default_backend(backend)
            runs.append(_observed_observables(module))
    finally:
        set_default_backend(saved)
    assert runs[0] == runs[1]


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
    config = LdxConfig(sources=SourceSpec(), sinks=SinkSpec(syscall_names=()))
    saved = relevance_enabled()
    results = []
    try:
        for enabled in (True, False):
            set_relevance_enabled(enabled)
            results.append(
                run_dual(instrumented, World(seed=1), config, backend="threaded")
            )
    finally:
        set_relevance_enabled(saved)
    assert _dual_observables(results[0]) == _dual_observables(results[1])


@given(random_programs())
@settings(max_examples=25, deadline=None)
def test_persisted_region_code_identical(tmp_path_factory, source):
    # Region code loaded from the on-disk code namespace behaves exactly
    # like freshly compiled code: a cold run fills a fresh cache dir, a
    # second "process" (cleared memo and memory layers) loads the
    # program's artifact and every region from disk, and both match the
    # switch interpreter.  Programs come through the artifact cache, as
    # every CLI and serve run does, so their regions are keyed by the
    # artifact's identity.
    module = compile_source(source)
    plan = instrument_module(module).plan
    switch = run_native(module, World(seed=1), plan=plan, backend="switch")
    cache_dir = str(tmp_path_factory.mktemp("code"))
    runs, stats = [], []
    try:
        for _ in range(2):
            cache.configure(cache_dir=cache_dir)
            clear_compile_memo()
            artifact = cache.instrumented_for(source)
            assert artifact.plan.artifact_key is not None
            runs.append(run_native(
                artifact.module, World(seed=1), plan=artifact.plan,
                backend="threaded",
            ))
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


_DIAMOND_STATEMENTS = (
    "s = s + i;", "y = y + 1;", "x = x + 1;", "s = s - y;", "y = s;",
    "x = i;", "x = 3;", 'x = "k";',
)


@st.composite
def diamond_loops(draw):
    """A loop holding a chain of 1-8 diamonds, mostly astar's
    ``if (a and b) continue;``: each short-circuit joins, each
    ``continue`` joins the loop's increment, and the region code must
    emit the shared tail once; the rest are if/else diamonds whose arms
    assign different values and shapes.  ``x`` may start as a str, so
    the int guard a region hoists for ``x = x + 1`` misses at entry and
    the generic variant runs, or become one in a single arm, so the arms
    disagree on its type; ``y = s`` binds one local to another's
    register; a ``print`` in the body makes the loop region re-enter
    after it."""
    statement = st.sampled_from(_DIAMOND_STATEMENTS)
    diamonds = draw(st.integers(1, 8))
    x_init = draw(st.sampled_from(["0", "3", '"k"']))
    lines = [
        "fn main() {",
        "  var s = 0;",
        f"  var x = {x_init};",
        "  var y = 1;",
        f"  for (var i = 0; i < {draw(st.integers(0, 12))}; i = i + 1) {{",
    ]
    for _ in range(diamonds):
        left = (
            f"{draw(st.sampled_from(['i', 's', 'y']))} "
            f"{draw(st.sampled_from(['<', '>', '==', '!=']))} "
            f"{draw(st.integers(-1, 9))}"
        )
        right = draw(st.sampled_from([
            f"i % {draw(st.integers(1, 4))} == {draw(st.integers(0, 3))}",
            "x == 3", 'x != "k"', "y > s", "s < i",
        ]))
        cond = f"{left} {draw(st.sampled_from(['and', 'or']))} {right}"
        if draw(st.integers(0, 3)):
            skip = draw(st.sampled_from(("",) + _DIAMOND_STATEMENTS))
            lines.append(f"    if ({cond}) {{ {skip} continue; }}")
        else:
            lines.append(
                f"    if ({cond}) {{ {draw(statement)} }} "
                f"else {{ {draw(statement)} }}"
            )
        lines.append(f"    {draw(statement)}")
    if draw(st.booleans()):
        lines.append("    print(s);")
    lines += ["  }", "  print(s);", "  print(x);", "  print(y);", "}"]
    return "\n".join(lines) + "\n"


def _native_or_crash(module, plan, backend):
    try:
        return _native_observables(
            run_native(module, World(seed=1), plan=plan, backend=backend)
        )
    except InterpreterError as crash:
        return str(crash)


@given(diamond_loops())
@settings(max_examples=40, deadline=None)
def test_diamond_chains_identical_across_backends_and_plans(source):
    # {switch, threaded} x {pruned, unpruned}: joined region code must
    # observe exactly what the reference interpreter does.
    module = compile_source(source)
    observed = []
    for prune in (True, False):
        plan = instrument_module(module, prune=prune).plan
        for backend in ("switch", "threaded"):
            clear_compile_memo()
            observed.append(_native_or_crash(module, plan, backend))
    assert all(run == observed[0] for run in observed[1:])
