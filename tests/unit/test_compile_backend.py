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
    plan = instrument_module(module).plan
    fused = compile_module(module, plan, fuse=True)
    unfused = compile_module(module, plan, fuse=False)
    assert unfused.fused_count == 0
    # The loop head, body and branch are event-free: one region.
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


# -- region code namespace --------------------------------------------------------
#
# Generated region code persists in the artifact cache's code namespace:
# one compile() per unique region source, loaded back by later
# processes.  ``configure`` plus ``clear_compile_memo`` stands in for a
# fresh process over the same cache directory.

CODE_WORKLOADS = ("gzip", "bzip2", "mcf", "tnftp")


def _fresh_process(cache_dir=None, enabled=True):
    cache.configure(cache_dir=cache_dir, enabled=enabled)
    clear_compile_memo()


def _threaded_observables():
    """Observables of an instrumented threaded run of each workload."""
    from repro.workloads import get_workload

    rows = []
    for name in CODE_WORKLOADS:
        workload = get_workload(name)
        instrumented = workload.instrumented
        result = run_native(
            instrumented.module,
            workload.build_world(1),
            plan=instrumented.plan,
            backend="threaded",
        )
        rows.append((
            name,
            result.stdout,
            result.time,
            result.output_log,
            result.stats.instructions,
            result.stats.edge_actions,
            result.stats.syscalls,
            result.sink_values(),
        ))
    return rows


def _blob_rows(root, query, params=()):
    """Run one statement against ``root/blobs.sqlite`` from a second
    connection, as another process would."""
    import sqlite3

    conn = sqlite3.connect(str(root / "blobs.sqlite"))
    with conn:
        rows = conn.execute(query, params).fetchall()
    conn.close()
    return rows


def _code_keys(root):
    return _blob_rows(
        root, "SELECT key FROM blobs WHERE namespace GLOB 'ldx-code-*' ORDER BY key"
    )


def test_warm_code_cache_compiles_nothing(tmp_path, monkeypatch):
    from repro.interp import compile as compile_mod

    _fresh_process(str(tmp_path))
    cold = _threaded_observables()
    entries = _code_keys(tmp_path)
    assert entries
    assert cache.get_compiled_cache().stats.stores == len(entries)

    _fresh_process(str(tmp_path))

    def no_compile(*args, **kwargs):
        raise AssertionError("a warm code cache compiled a region")

    monkeypatch.setattr(compile_mod, "compile", no_compile, raising=False)
    warm = _threaded_observables()
    stats = cache.get_compiled_cache().stats
    assert warm == cold
    assert stats.misses == 0
    assert stats.disk_errors == 0
    assert stats.disk_hits == len(entries)


def test_identical_region_sources_compile_once(monkeypatch):
    # Two plan objects for one module are two compilations; their
    # regions emit identical source, which one process compiles once.
    _fresh_process()
    sources = _count_compiles(monkeypatch, keep_source=True)
    module = compile_source(LOOP)
    plans = [instrument_module(module).plan for _ in range(2)]
    first = run_native(module, World(), plan=plans[0], backend="threaded")
    compiled = len(sources)
    second = run_native(module, World(), plan=plans[1], backend="threaded")
    assert compiled
    assert len(sources) == compiled == len(set(sources))
    assert cache.get_compiled_cache().stats.memory_hits == compiled
    assert (first.stdout, first.time) == (second.stdout, second.time)


def test_corrupt_code_entries_heal(tmp_path, monkeypatch):
    _fresh_process(str(tmp_path))
    cold = _threaded_observables()
    entries = _code_keys(tmp_path)
    assert len(entries) >= 2
    (truncated,), (flipped,) = entries[:2]
    _blob_rows(
        tmp_path,
        "UPDATE blobs SET payload = substr(payload, 1, length(payload) / 2)"
        " WHERE key = ?",
        (truncated,),
    )
    ((blob,),) = _blob_rows(
        tmp_path, "SELECT payload FROM blobs WHERE key = ?", (flipped,)
    )
    blob = bytearray(blob)
    blob[len(blob) // 2] ^= 0x01
    _blob_rows(
        tmp_path, "UPDATE blobs SET payload = ? WHERE key = ?", (bytes(blob), flipped)
    )

    _fresh_process(str(tmp_path))
    calls = _count_compiles(monkeypatch)
    healed = _threaded_observables()
    stats = cache.get_compiled_cache().stats
    assert healed == cold
    assert stats.disk_errors == 2
    assert calls == ["<ldx-region>"] * 2
    assert stats.stores == 2

    # Both entries were rewritten: the next process compiles nothing.
    _fresh_process(str(tmp_path))
    calls.clear()
    assert _threaded_observables() == cold
    assert calls == []
    assert cache.get_compiled_cache().stats.disk_errors == 0


def test_foreign_magic_code_entries_never_load(tmp_path, monkeypatch):
    import importlib.util
    import sys

    from repro.cache import artifact_key, code_schema_tag

    with monkeypatch.context() as patch:
        patch.setattr(importlib.util, "MAGIC_NUMBER", b"\xff\xff\r\n")
        foreign_tag = code_schema_tag()
        _fresh_process(str(tmp_path))
        emitted = _count_compiles(patch, keep_source=True)
        cold = _threaded_observables()
    sources = set(emitted)
    native_tag = code_schema_tag()
    assert foreign_tag != native_tag
    assert len(_code_keys(tmp_path)) == len(sources) > 0

    # The foreign namespace is never read; copy every row to where this
    # interpreter looks for the same source as well, so the digest,
    # which covers the namespace, must reject each one.
    config = {"filename": "<ldx-region>", "optimize": sys.flags.optimize}
    for source in sources:
        _blob_rows(
            tmp_path,
            "INSERT INTO blobs SELECT ?, ?, payload, digest, created_at"
            " FROM blobs WHERE namespace = ? AND key = ?",
            (native_tag, artifact_key(source, config, native_tag),
             foreign_tag, artifact_key(source, config, foreign_tag)),
        )
    assert len(_code_keys(tmp_path)) == 2 * len(sources)

    _fresh_process(str(tmp_path))
    calls = _count_compiles(monkeypatch)
    native = _threaded_observables()
    stats = cache.get_compiled_cache().stats
    assert native == cold
    assert stats.disk_hits == 0
    assert stats.disk_errors == len(calls) == len(sources)


def test_no_cache_writes_no_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for cache_dir in (None, str(tmp_path)):
        _fresh_process(cache_dir, enabled=False)
        calls = _count_compiles(monkeypatch)
        _threaded_observables()
        assert calls, "no region was generated"
        assert not list(tmp_path.iterdir())
        assert cache.get_compiled_cache().stats.stores == 0

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


# -- region caps ----------------------------------------------------------------


def test_small_region_caps_stay_byte_identical(monkeypatch):
    # Any cap setting is byte-safe: a tiny region budget only shrinks
    # how much code fuses, never what the program observes.
    from repro.interp import compile as compile_mod

    module = compile_source(LOOP)
    plan = instrument_module(module).plan
    baseline = run_native(module, World(), plan=plan, backend="switch")
    monkeypatch.setattr(compile_mod, "REGION_CAP", 2)
    monkeypatch.setattr(compile_mod, "REGION_PATH_CAP", 4)
    monkeypatch.setattr(compile_mod, "REGION_BOUND", 6)
    clear_compile_memo()
    calls = _count_compiles(monkeypatch)
    try:
        capped = run_native(module, World(), plan=plan, backend="threaded")
    finally:
        clear_compile_memo()
    assert "<ldx-region>" in calls
    assert capped.stdout == baseline.stdout
    assert capped.time == baseline.time
    assert capped.stats.instructions == baseline.stats.instructions
    assert capped.stats.edge_actions == baseline.stats.edge_actions


# -- lazily generated regions -----------------------------------------------------


def _count_compiles(monkeypatch, keep_source=False):
    """Record the generated-code ``compile()`` calls of the compiler:
    their filenames, or with *keep_source* the generated source."""
    from repro.interp import compile as compile_mod

    calls = []
    real = compile

    def counting(source, filename, mode, *args, **kwargs):
        calls.append(source if keep_source else filename)
        return real(source, filename, mode, *args, **kwargs)

    monkeypatch.setattr(compile_mod, "compile", counting, raising=False)
    return calls


def _fused_indices(compiled):
    return {
        name: frozenset(function.fused_indices)
        for name, function in compiled.functions.items()
    }


def test_fused_indices_equal_plan_fusible_set():
    # The compiler fuses exactly the plan's fusible set and relies on
    # its definition: every out-edge of a fusible index folds on the
    # plan actually compiled, pruned or not.
    from repro.instrument.plan import fold_counter_adds
    from repro.workloads import ALL_WORKLOADS

    for workload in ALL_WORKLOADS:
        module = workload.module
        for prune in (True, False):
            plan = instrument_module(module, prune=prune).plan
            compiled = compile_module(module, plan)
            assert _fused_indices(compiled) == {
                name: relevance.fusible
                for name, relevance in plan.relevance.functions.items()
            }, workload.name
            for name, indices in _fused_indices(compiled).items():
                function = module.functions[name]
                function_plan = plan.functions[name]
                for index in indices:
                    for succ in function.successors(index):
                        actions = function_plan.actions_for(index, succ)
                        assert not actions or (
                            fold_counter_adds(actions) is not None
                        ), (workload.name, name, index, succ)


def test_relevance_switch_does_not_change_compiled_code(monkeypatch):
    # The switch only picks the plan variant at instrumentation time;
    # for one given plan the compiler emits the same code either way.
    from repro.instrument import relevance_enabled, set_relevance_enabled

    module = compile_source(LOOP)
    for prune in (True, False):
        plan = instrument_module(module, prune=prune).plan
        emitted = []
        saved = relevance_enabled()
        try:
            for enabled in (True, False):
                set_relevance_enabled(enabled)
                clear_compile_memo()
                calls = _count_compiles(monkeypatch, keep_source=True)
                compiled = compiled_for_module(module, plan)
                run_native(module, World(), plan=plan, backend="threaded")
                emitted.append((_fused_indices(compiled), list(calls)))
        finally:
            set_relevance_enabled(saved)
            clear_compile_memo()
        assert emitted[0] == emitted[1]
        assert emitted[0][1], "no region was generated"


def test_planless_compile_generates_no_code_before_first_run(monkeypatch):
    # Without a plan there is no fusible set: nothing fuses, so no code
    # is generated before (or during) a run.
    calls = _count_compiles(monkeypatch)
    module = compile_source(LOOP)
    compiled = compile_module(module)
    assert compiled.fused_count == 0
    run_native(module, World(), backend="threaded")
    assert calls == []


def test_region_stub_installs_generated_step_on_first_landing(monkeypatch):
    module = compile_source(LOOP)
    plan = instrument_module(module).plan
    clear_compile_memo()
    calls = _count_compiles(monkeypatch)
    compiled = compiled_for_module(module, plan, fuse=True)
    assert calls == []
    steps = compiled.steps_for("main")
    stubs = {index: steps[index] for index in compiled.functions["main"].fused_indices}
    first = run_native(module, World(), plan=plan, backend="threaded")
    landed = [index for index, stub in stubs.items() if steps[index] is not stub]
    # Code is generated only for landed indices (one compile(), or two
    # when a region with hoisted int guards also builds its generic
    # variant); indices never landed on keep their stub and cost nothing.
    assert landed and len(landed) < len(stubs)
    assert set(calls) == {"<ldx-region>"}
    assert len(landed) <= len(calls) <= 2 * len(landed)
    assert all(steps[index].__name__ == "run" for index in landed)
    calls.clear()
    second = run_native(module, World(), plan=plan, backend="threaded")
    assert calls == []
    assert first.stdout == second.stdout == "190"
    assert first.time == second.time
    clear_compile_memo()


def test_planless_native_runs_fuse_nothing_and_match_switch(monkeypatch):
    # Plan-less runs (native baselines, `repro run`) execute unfused:
    # every workload compiles with empty fused indices and issues zero
    # compile() calls across a run, whose observables match the switch
    # backend.  A cleared memo makes every threaded run start afresh.
    from repro.workloads import ALL_WORKLOADS

    calls = _count_compiles(monkeypatch)
    for workload in ALL_WORKLOADS:
        clear_compile_memo()
        compiled = compiled_for_module(workload.module)
        assert compiled.fused_count == 0, workload.name
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
    clear_compile_memo()
    assert calls == []


def test_lazy_stubs_safe_under_concurrent_first_landing():
    # Serve worker threads share one compiled module; racing first
    # landings may each generate a region, and either install must be
    # observably identical.
    import sys
    import threading

    module = compile_source(LOOP)
    plan = instrument_module(module).plan
    clear_compile_memo()
    compiled = compiled_for_module(module, plan, fuse=True)
    assert compiled.fused_count > 0
    expected = run_native(module, World(), plan=plan, backend="switch")
    results = []

    def worker():
        result = run_native(module, World(), plan=plan, backend="threaded")
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
