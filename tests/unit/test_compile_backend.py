"""Unit tests for the threaded-code compiler and backend plumbing."""

import pytest

from repro import cache
from repro.baselines.native import run_native
from repro.errors import InterpreterError
from repro.instrument import instrument_module
from repro.interp.compile import (
    BACKEND_SWITCH,
    BACKEND_THREADED,
    clear_compile_memo,
    compile_module,
    compiled_for_module,
    get_default_backend,
    resolve_backend,
    set_default_backend,
)
from repro.interp.machine import Machine
from repro.interp.resolve import resolve_event_locally
from repro.ir import compile_source
from repro.vos.kernel import Kernel
from repro.vos.world import World

LOOP = """
fn main() {
    var i = 0;
    var total = 0;
    while (i < 20) {
        total = total + i;
        i = i + 1;
    }
    print(total);
    return total;
}
"""


def both_runs(source, world_factory=None, plan=False, seed=0, **kwargs):
    factory = world_factory or World
    module = compile_source(source)
    module_plan = instrument_module(module).plan if plan else None
    switch = run_native(
        module, factory(), plan=module_plan, seed=seed, backend="switch", **kwargs
    )
    threaded = run_native(
        module, factory(), plan=module_plan, seed=seed, backend="threaded", **kwargs
    )
    return switch, threaded


# -- backend resolution --------------------------------------------------------


def test_resolve_backend_none_uses_default():
    assert resolve_backend(None) == get_default_backend()


def test_resolve_backend_rejects_unknown():
    with pytest.raises(ValueError):
        resolve_backend("jit")


def test_set_default_backend_rejects_unknown():
    with pytest.raises(ValueError):
        set_default_backend("bogus")


def test_set_default_backend_round_trips():
    original = get_default_backend()
    try:
        set_default_backend(BACKEND_SWITCH)
        assert get_default_backend() == BACKEND_SWITCH
    finally:
        set_default_backend(original)


# -- compilation ----------------------------------------------------------------


def test_compile_produces_step_per_instruction():
    module = compile_source(LOOP)
    compiled = compile_module(module, fuse=False)
    for function in module.functions.values():
        steps = compiled.steps_for(function.name)
        assert len(steps) == len(function.instrs)
        assert all(callable(step) for step in steps)


def test_fusion_finds_superinstructions():
    module = compile_source(LOOP)
    fused = compile_module(module, fuse=True)
    unfused = compile_module(module, fuse=False)
    assert unfused.fused_count == 0
    # The loop body has const->binop and binop->cjump chains to fuse.
    assert fused.fused_count > 0


def test_fusion_does_not_change_results():
    switch, threaded = both_runs(LOOP)
    assert switch.stdout == threaded.stdout == "190"
    assert switch.time == threaded.time
    assert switch.stats.instructions == threaded.stats.instructions


def test_compile_memo_reuses_compilations():
    module = compile_source(LOOP)
    first = compiled_for_module(module, None, fuse=True)
    second = compiled_for_module(module, None, fuse=True)
    assert first is second
    other = compiled_for_module(module, None, fuse=False)
    assert other is not first
    clear_compile_memo()
    third = compiled_for_module(module, None, fuse=True)
    assert third is not first


def test_compiled_for_cache_content_addresses():
    compiled = cache.compiled_for(LOOP)
    again = cache.compiled_for(LOOP)
    assert compiled is again
    unfused = cache.compiled_for(LOOP, fuse=False)
    assert unfused is not compiled
    assert compiled.fused_count > 0
    assert unfused.fused_count == 0


def test_compiled_cache_is_memory_only():
    # Closures never round-trip pickle; configure() must keep the
    # compiled layer off disk even when a cache_dir is given.
    cache.configure(cache_dir="/tmp/ldx-test-should-not-be-used")
    try:
        assert cache.get_compiled_cache().cache_dir is None
    finally:
        cache.configure()


# -- identity of observable behaviour -------------------------------------------


def test_backends_agree_on_global_reads_and_writes():
    source = """
    var g = 10;
    fn bump() { g = g + 1; return g; }
    fn main() {
        var local = 99;
        print(bump());
        print(local);
        print(bump());
        print(g);
    }
    """
    switch, threaded = both_runs(source)
    assert switch.stdout == threaded.stdout == "11991212"
    assert switch.time == threaded.time


def test_backends_agree_under_instrumentation():
    switch, threaded = both_runs(LOOP, plan=True)
    assert switch.stdout == threaded.stdout
    assert switch.time == threaded.time
    assert switch.stats.edge_actions == threaded.stats.edge_actions > 0


def test_backends_agree_on_error_surface():
    source = "fn main() { print(1 / 0); }"
    module = compile_source(source)
    errors = []
    for backend in ("switch", "threaded"):
        with pytest.raises(InterpreterError) as exc_info:
            run_native(module, World(), backend=backend)
        errors.append(str(exc_info.value))
    assert errors[0] == errors[1]


def test_backends_agree_on_budget_exhaustion():
    source = "fn main() { while (1) { } }"
    module = compile_source(source)
    errors = []
    for backend in ("switch", "threaded"):
        with pytest.raises(InterpreterError) as exc_info:
            run_native(module, World(), backend=backend, max_instructions=500)
        errors.append(str(exc_info.value))
    assert errors[0] == errors[1]
    assert "instruction budget exceeded" in errors[0]


def test_instr_hook_forces_switch_loop():
    module = compile_source(LOOP)
    machine = Machine(module, Kernel(World()), backend="threaded")
    seen = []
    machine.instr_hook = lambda thread, frame, instr: seen.append(instr.opname)
    while True:
        event = machine.next_event()
        if event is None:
            break
        resolve_event_locally(machine, event)
    assert machine.finished
    # The hook observed every instruction despite the threaded backend.
    assert len(seen) == machine.stats.instructions


# -- profiling ------------------------------------------------------------------


def test_profile_disabled_records_nothing():
    switch, threaded = both_runs(LOOP)
    for result in (switch, threaded):
        assert not result.stats.profiled
        assert result.stats.opcode_counts is None


def test_profile_enabled_counts_match_instructions():
    for backend in ("switch", "threaded"):
        module = compile_source(LOOP)
        result = run_native(module, World(), backend=backend, profile=True)
        stats = result.stats
        assert stats.profiled
        assert sum(stats.opcode_counts.values()) == stats.instructions
        assert set(stats.opcode_time) <= set(stats.opcode_counts)


def test_profile_histograms_identical_across_backends():
    module = compile_source(LOOP)
    switch = run_native(module, World(), backend="switch", profile=True)
    threaded = run_native(module, World(), backend="threaded", profile=True)
    assert dict(switch.stats.opcode_counts) == dict(threaded.stats.opcode_counts)
    assert dict(switch.stats.opcode_time) == dict(threaded.stats.opcode_time)
    assert switch.time == threaded.time


# -- region cap env overrides ---------------------------------------------------


def test_region_caps_default_without_env(monkeypatch):
    from repro.interp import compile as compile_mod

    monkeypatch.delenv("REPRO_REGION_CAP", raising=False)
    assert compile_mod._cap_from_env("REPRO_REGION_CAP", 320) == (320, None)


def test_region_caps_read_from_env(monkeypatch):
    from repro.interp import compile as compile_mod

    monkeypatch.setenv("REPRO_REGION_CAP", "64")
    assert compile_mod._cap_from_env("REPRO_REGION_CAP", 320) == (64, None)


@pytest.mark.parametrize("bad", ["0", "-3", "ten", "1.5", ""])
def test_region_caps_reject_invalid_env(monkeypatch, bad):
    from repro.errors import ReproError
    from repro.interp import compile as compile_mod

    monkeypatch.setenv("REPRO_REGION_PATH_CAP", bad)
    value, error = compile_mod._cap_from_env("REPRO_REGION_PATH_CAP", 80)
    assert value == 80  # invalid override keeps the default
    assert isinstance(error, ReproError)
    assert "REPRO_REGION_PATH_CAP" in str(error)


def test_invalid_region_cap_raises_at_first_compile(monkeypatch):
    # The deferred error surfaces as a ReproError from compiled_for_module
    # (which the CLI turns into a one-line diagnosis), never as an
    # import-time traceback.
    from repro.errors import ReproError
    from repro.interp import compile as compile_mod

    bad = ReproError("REPRO_REGION_CAP must be a positive integer, got 'x'")
    monkeypatch.setattr(compile_mod, "_REGION_CAP_ERROR", bad)
    module = compile_source(LOOP)
    with pytest.raises(ReproError, match="REPRO_REGION_CAP"):
        compile_mod.compiled_for_module(module)


def test_small_region_caps_stay_byte_identical(monkeypatch):
    # Any cap setting is byte-safe: a tiny region budget only shrinks
    # how much code fuses, never what the program observes.
    from repro.interp import compile as compile_mod

    module = compile_source(LOOP)
    baseline = run_native(compile_source(LOOP), World(), backend="threaded")
    monkeypatch.setattr(compile_mod, "REGION_CAP", 2)
    monkeypatch.setattr(compile_mod, "REGION_PATH_CAP", 4)
    monkeypatch.setattr(compile_mod, "REGION_BOUND", 6)
    clear_compile_memo()
    try:
        capped = run_native(module, World(), backend="threaded")
    finally:
        clear_compile_memo()
    assert capped.stdout == baseline.stdout
    assert capped.time == baseline.time
    assert capped.stats.instructions == baseline.stats.instructions


# -- lazily generated superinstruction runs --------------------------------------


def _count_compiles(monkeypatch):
    """Count the generated-code ``compile()`` calls of the compiler."""
    from repro.interp import compile as compile_mod

    calls = []
    real = compile

    def counting(source, filename, mode, *args, **kwargs):
        calls.append(filename)
        return real(source, filename, mode, *args, **kwargs)

    monkeypatch.setattr(compile_mod, "compile", counting, raising=False)
    return calls


def _eager_fused_indices(module, plan):
    """The eager definition: every index whose run compiles."""
    from repro.interp.compile import _FunctionCompiler

    global_names = frozenset(module.global_values)
    result = {}
    for name, function in module.functions.items():
        function_plan = plan.functions.get(name) if plan is not None else None
        compiler = _FunctionCompiler(
            module, function, function_plan, global_names, True, None, {}
        )
        base = [
            compiler._compile_one(index, instr)
            for index, instr in enumerate(function.instrs)
        ]
        result[name] = tuple(
            index
            for index in range(len(base))
            if compiler._compile_run(index, base) is not None
        )
    return result


def test_lazy_chains_keep_eager_fused_indices():
    from repro.workloads import ALL_WORKLOADS

    for workload in ALL_WORKLOADS:
        module = workload.module
        for plan in (None, workload.instrumented.plan):
            compiled = compile_module(module, plan, relevance=False)
            lazy = {
                name: function.fused_indices
                for name, function in compiled.functions.items()
            }
            assert lazy == _eager_fused_indices(module, plan), workload.name


def test_planless_compile_generates_no_code_before_first_run(monkeypatch):
    calls = _count_compiles(monkeypatch)
    compiled = compile_module(compile_source(LOOP))
    assert compiled.fused_count > 0
    assert calls == []


def test_chain_stub_installs_generated_step_on_first_landing(monkeypatch):
    module = compile_source(LOOP)
    clear_compile_memo()
    compiled = compiled_for_module(module, None, fuse=True)
    steps = compiled.steps_for("main")
    stubs = {index: steps[index] for index in compiled.functions["main"].fused_indices}
    calls = _count_compiles(monkeypatch)
    first = run_native(module, World(), backend="threaded")
    landed = [index for index, stub in stubs.items() if steps[index] is not stub]
    # One compile() per landed index; indices never landed on (chain
    # interiors here) keep their stub and cost nothing.
    assert landed and len(landed) < len(stubs)
    assert len(calls) == len(landed)
    assert all(steps[index].__name__ == "run" for index in landed)
    calls.clear()
    second = run_native(module, World(), backend="threaded")
    assert calls == []
    assert first.stdout == second.stdout == "190"
    assert first.time == second.time
    clear_compile_memo()


def test_planless_native_runs_identical_with_lazy_chains():
    # A cleared memo makes every threaded run start from stubs, so the
    # comparison covers first landings, not steps an earlier test
    # already installed.
    from repro.workloads import ALL_WORKLOADS

    for workload in ALL_WORKLOADS:
        clear_compile_memo()
        runs = []
        for backend in ("switch", "threaded"):
            result = run_native(
                workload.module, workload.build_world(1), backend=backend
            )
            runs.append((
                result.stdout,
                result.time,
                result.stats.instructions,
                result.stats.edge_actions,
                result.sink_values(),
            ))
        assert runs[0] == runs[1], workload.name


def test_lazy_stubs_safe_under_concurrent_first_landing():
    # Serve worker threads share one compiled module; racing first
    # landings may each generate a run, and either install must be
    # observably identical.
    import sys
    import threading

    module = compile_source(LOOP)
    clear_compile_memo()
    compiled_for_module(module, None, fuse=True)
    expected = run_native(compile_source(LOOP), World(), backend="switch")
    results = []

    def worker():
        result = run_native(module, World(), backend="threaded")
        results.append((result.stdout, result.time, result.stats.instructions))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        clear_compile_memo()
    assert not any(thread.is_alive() for thread in threads)
    assert results == [
        (expected.stdout, expected.time, expected.stats.instructions)
    ] * len(threads)
