"""Unit tests for the threaded-code compiler and backend plumbing."""

import gc
import weakref

import pytest

from repro import cache
from repro.baselines.native import run_native
from repro.errors import BudgetExceededError, InterpreterError
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
from repro.interp.machine import Machine, Observer
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
    # Without a plan nothing fuses, so an unfused request shares it.
    assert compiled_for_module(module, None, fuse=False) is first
    # A relevance-carrying plan fuses, so the two requests differ.
    plan = instrument_module(module).plan
    assert compiled_for_module(module, plan, fuse=False) is not (
        compiled_for_module(module, plan, fuse=True)
    )
    clear_compile_memo()
    third = compiled_for_module(module, None, fuse=True)
    assert third is not first


def test_compile_memo_entry_dies_with_its_module():
    """The memo's key is weak and nothing compiled refers back to the
    module, so a long-running process that compiles many programs
    frees each compilation, landed regions included, with its module."""
    source = "fn add(a, b) {\n    return a + b;\n}\n" + LOOP.replace(
        "total + i", "add(total, i)"
    )
    artifact = instrument_module(compile_source(source))
    result = run_native(artifact.module, World(), plan=artifact.plan, backend="threaded")
    assert result.stdout == "190"
    module = weakref.ref(artifact.module)
    del artifact, result
    gc.collect()
    assert module() is None


def test_observed_baseline_shares_the_native_compilation(monkeypatch):
    # A plan-less native run and a taint run (an observed machine) ask
    # for the same compilation, fused and unfused alike.
    from repro.baselines.taint import run_taint
    from repro.core.config import LdxConfig, SinkSpec, SourceSpec
    from repro.interp import compile as compile_mod

    calls = []
    real_compile_module = compile_mod.compile_module

    def counting(*args, **kwargs):
        calls.append(args)
        return real_compile_module(*args, **kwargs)

    monkeypatch.setattr(compile_mod, "compile_module", counting)
    monkeypatch.setattr(compile_mod, "_DEFAULT_BACKEND", BACKEND_THREADED)
    module = compile_source(LOOP)
    run_native(module, World())
    config = LdxConfig(SourceSpec(), SinkSpec.network_out())
    run_taint(module, World(), config, "libdft")
    assert len(calls) == 1


# -- region code namespace --------------------------------------------------------
#
# Generated region code persists in the artifact cache's code namespace,
# keyed by the identity of the instrumented artifact it belongs to: one
# entry per landed region, loaded back by later processes without
# emitting or compiling anything.  ``configure`` plus ``clear_compile_memo`` stands in
# for a fresh process over the same cache directory.

CODE_WORKLOADS = ("gzip", "bzip2", "mcf", "tnftp")


def _fresh_process(cache_dir=None, enabled=True):
    cache.configure(cache_dir=cache_dir, enabled=enabled)
    clear_compile_memo()


def _threaded_observables():
    """Observables of an instrumented threaded run of each workload,
    its artifact taken from the (current) artifact cache."""
    from repro.workloads import get_workload

    rows = []
    for name in CODE_WORKLOADS:
        instrumented = cache.instrumented_for(get_workload(name).source)
        result = run_native(
            instrumented.module,
            get_workload(name).build_world(1),
            plan=instrumented.plan,
            backend="threaded",
        )
        rows.append(_observables(name, result))
    return rows


def _observables(name, result):
    return (
        name,
        result.stdout,
        result.time,
        result.output_log,
        result.stats.instructions,
        result.stats.edge_actions,
        result.stats.syscalls,
        result.sink_values(),
    )


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


def _forbid_emission(monkeypatch):
    from repro.interp import compile as compile_mod

    def no_emission(*args, **kwargs):
        raise AssertionError("a warm code cache emitted a region")

    def no_compile(*args, **kwargs):
        raise AssertionError("a warm code cache compiled a region")

    monkeypatch.setattr(
        compile_mod._FunctionCompiler, "_emit_region_parts", no_emission
    )
    monkeypatch.setattr(compile_mod, "compile", no_compile, raising=False)


def test_warm_code_cache_compiles_nothing(tmp_path, monkeypatch):
    _fresh_process(str(tmp_path))
    cold = _threaded_observables()
    entries = _code_keys(tmp_path)
    assert entries
    assert cache.get_compiled_cache().stats.stores == len(entries)

    # A fresh process over the same cache dir finds every region by its
    # artifact's identity: it neither emits nor compiles anything.
    _fresh_process(str(tmp_path))
    with monkeypatch.context() as patch:
        _forbid_emission(patch)
        warm = _threaded_observables()
    stats = cache.get_compiled_cache().stats
    assert warm == cold
    assert stats.misses == 0
    assert stats.disk_errors == 0
    assert stats.disk_hits == len(entries)


def test_one_artifact_compiles_its_regions_once(tmp_path, monkeypatch):
    # Two artifact objects with one content key (the second loaded back
    # from disk) are two compilations; their regions share keys, so the
    # process emits and compiles each region once and the second
    # compilation reads every region back from disk.
    _fresh_process(str(tmp_path))
    calls = _count_compiles(monkeypatch)
    first_artifact = cache.instrumented_for(LOOP)
    cache.get_cache().clear_memory()
    second_artifact = cache.instrumented_for(LOOP)
    assert second_artifact is not first_artifact
    assert (
        first_artifact.plan.artifact_key == second_artifact.plan.artifact_key
    )
    runs = []
    for artifact in (first_artifact, second_artifact):
        runs.append(run_native(
            artifact.module, World(), plan=artifact.plan, backend="threaded"
        ))
        if len(runs) == 1:
            compiled = len(calls)
    stats = cache.get_compiled_cache().stats
    assert compiled
    assert len(calls) == compiled
    assert stats.disk_hits == stats.misses == stats.stores > 0
    assert stats.memory_hits == 0
    assert (runs[0].stdout, runs[0].time) == (runs[1].stdout, runs[1].time)


def test_changed_codegen_tag_misses(tmp_path, monkeypatch):
    from repro.interp import compile as compile_mod

    _fresh_process(str(tmp_path))
    calls = _count_compiles(monkeypatch)
    cold = _threaded_observables()
    compiles = len(calls)
    landed = len(_code_keys(tmp_path))
    assert compiles >= landed > 0

    # An edit to the emitter changes the codegen tag: no stored region
    # is found, every landing emits afresh, and nothing else changes.
    _fresh_process(str(tmp_path))
    monkeypatch.setattr(compile_mod, "codegen_tag", lambda: "0" * 64)
    calls.clear()
    assert _threaded_observables() == cold
    stats = cache.get_compiled_cache().stats
    assert len(calls) == compiles
    assert stats.misses == stats.stores == landed
    assert stats.disk_hits == 0
    assert len(_code_keys(tmp_path)) == 2 * landed


def test_codegen_tag_covers_every_repro_import_of_the_emitter():
    # Every repro module interp/compile.py imports, at module level or
    # inside a function, is hashed into the codegen tag, so no edit to
    # what emission reads can load stale region code.
    import ast
    import importlib
    import types

    from repro.interp import compile as compile_mod

    with open(compile_mod.__file__) as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            package = importlib.import_module(node.module)
            for alias in node.names:
                # ``from repro import cache`` imports the module
                # repro.cache; ``from repro.errors import X`` imports
                # from repro.errors.
                value = getattr(package, alias.name, None)
                if isinstance(value, types.ModuleType):
                    imported.add(value.__name__)
                else:
                    imported.add(node.module)
    ours = {name for name in imported if name.split(".")[0] == "repro"}
    assert {"repro.cache", "repro.interp.machine"} <= ours
    assert ours <= set(compile_mod.CODEGEN_MODULES), (
        ours - set(compile_mod.CODEGEN_MODULES)
    )
    assert compile_mod.CODEGEN_MODULES[0] == compile_mod.__name__


def test_artifactless_module_runs_identically_and_stores_nothing(
    tmp_path, monkeypatch
):
    # A module instrumented outside the artifact cache has no artifact
    # key: its regions are emitted and compiled on every landing of a
    # fresh compilation, never stored, and run byte-identically.
    from repro.workloads import get_workload

    _fresh_process(str(tmp_path))
    calls = _count_compiles(monkeypatch)
    for name in CODE_WORKLOADS:
        workload = get_workload(name)
        module = compile_source(workload.source)
        plan = instrument_module(module).plan
        assert plan.artifact_key is None
        runs = []
        for backend in ("switch", "threaded", "threaded"):
            clear_compile_memo()
            calls.clear()
            result = run_native(
                module, workload.build_world(1), plan=plan, backend=backend
            )
            runs.append((_observables(name, result), len(calls)))
        (switch, none), (first, compiled), (second, again) = runs
        assert switch == first == second
        assert none == 0
        assert compiled == again > 0
    stats = cache.get_compiled_cache().stats
    assert stats.lookups == stats.stores == 0
    assert not (tmp_path / "blobs.sqlite").exists()


def test_artifact_key_never_pickles():
    import pickle

    artifact = cache.instrumented_for(LOOP)
    assert artifact.plan.artifact_key
    assert pickle.loads(pickle.dumps(artifact.plan)).artifact_key is None


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
    assert stats.disk_errors == stats.misses == stats.stores == 2
    assert calls and set(calls) == {"<ldx-region>"}

    # Both entries were rewritten: the next process compiles nothing.
    _fresh_process(str(tmp_path))
    calls.clear()
    assert _threaded_observables() == cold
    assert calls == []
    assert cache.get_compiled_cache().stats.disk_errors == 0


def test_foreign_magic_code_entries_never_load(tmp_path, monkeypatch):
    import importlib.util

    from repro.cache import code_schema_tag

    with monkeypatch.context() as patch:
        patch.setattr(importlib.util, "MAGIC_NUMBER", b"\xff\xff\r\n")
        foreign_tag = code_schema_tag()
        _fresh_process(str(tmp_path))
        emitted = _count_compiles(patch)
        cold = _threaded_observables()
    native_tag = code_schema_tag()
    assert foreign_tag != native_tag
    keys = _code_keys(tmp_path)
    assert len(emitted) >= len(keys) > 0

    # The foreign namespace is never read; copy every row to where this
    # interpreter looks for the same region as well, so the digest,
    # which covers the namespace, must reject each one.
    for (key,) in keys:
        _blob_rows(
            tmp_path,
            "INSERT INTO blobs SELECT ?, key, payload, digest, created_at"
            " FROM blobs WHERE namespace = ? AND key = ?",
            (native_tag, foreign_tag, key),
        )
    assert len(_code_keys(tmp_path)) == 2 * len(keys)

    _fresh_process(str(tmp_path))
    calls = _count_compiles(monkeypatch)
    native = _threaded_observables()
    stats = cache.get_compiled_cache().stats
    assert native == cold
    assert stats.disk_hits == 0
    assert stats.disk_errors == stats.misses == len(keys)
    assert len(calls) == len(emitted)


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


def test_observer_takes_observed_threaded_loop():
    class Recorder(Observer):
        def __init__(self):
            self.seen = []

        def on_instruction(self, thread, frame, instr):
            self.seen.append(instr.opname)

    module = compile_source(LOOP)
    plan = instrument_module(module).plan
    recorder = Recorder()
    machine = Machine(
        module, Kernel(World()), plan=plan, backend="threaded", observer=recorder
    )
    while True:
        event = machine.next_event()
        if event is None:
            break
        resolve_event_locally(machine, event)
    assert machine.finished
    assert machine._driver is Machine._run_thread_observed
    # Unfused steps: the observer saw every instruction, one per step.
    assert len(recorder.seen) == machine.stats.instructions


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


def _continue_chain(diamonds):
    # astar's shape: a loop of ``if (a and b) continue;`` diamonds.
    tests = "\n".join(
        f"    if (m == {d} and s == {d}) {{ continue; }}"
        for d in range(diamonds)
    )
    return (
        "fn main() {\n  var s = 0;\n"
        "  for (var m = 0; m < 40; m = m + 1) {\n"
        f"{tests}\n    s = s + m;\n  }}\n  print(s);\n}}\n"
    )


def test_region_members_grow_linearly_with_diamonds(monkeypatch):
    # Each diamond's arms meet again at a join, after which the rest of
    # the loop body is emitted once: one more diamond adds a fixed
    # number of emitted members.  Tail-duplicating every arm doubles
    # them per diamond instead.  Caps are lifted so they cannot hide
    # the growth.
    from repro.interp import compile as compile_mod
    from repro.ir import instructions as ins

    monkeypatch.setattr(compile_mod, "REGION_CAP", 10**6)
    monkeypatch.setattr(compile_mod, "REGION_PATH_CAP", 10**4)
    monkeypatch.setattr(compile_mod, "REGION_BOUND", 10**4 + 2)
    compiler_cls = compile_mod._FunctionCompiler
    real_member = compiler_cls._emit_member
    emitted = [0]

    def counting(self, *args):
        emitted[0] += 1
        return real_member(self, *args)

    monkeypatch.setattr(compiler_cls, "_emit_member", counting)
    members = []
    for diamonds in range(1, 9):
        module = compile_source(_continue_chain(diamonds))
        plan = instrument_module(module).plan
        main = module.functions["main"]
        head = next(
            index for index, instr in enumerate(main.instrs)
            if type(instr) is ins.Nop and instr.note == "loophead"
        )
        compiler = compiler_cls(
            module, main, plan.functions["main"],
            frozenset(module.global_values),
            plan.relevance.functions["main"].fusible,
        )
        emitted[0] = 0
        compiler._region_sources(head)
        members.append(emitted[0])
    steps = {later - earlier for earlier, later in zip(members, members[1:])}
    assert len(steps) == 1 and steps.pop() > 0, members


# At each if/else join the arms disagree: on ``x``'s shape (int in one
# arm, str in the other, then ``x + 1``), and on the register ``y`` was
# copied from (``s`` is rewritten in one arm, then ``y`` read).
JOIN_PROGRAMS = {
    "shapes": """
fn main() {
  var x = "k";
  var s = 0;
  for (var i = 0; i < 6; i = i + 1) {
    if (i % 2 == 1) { x = 3; } else { x = x + 1; }
    x = x + 1;
    s = s + i;
  }
  print(x);
  print(s);
}
""",
    "registers": """
fn main() {
  var s = 1;
  var t = 0;
  for (var i = 0; i < 5; i = i + 1) {
    var y = s;
    if (i % 2 == 0) { s = s + 10; } else { t = t + 1; }
    t = t + y;
  }
  print(s);
  print(t);
}
""",
}


@pytest.mark.parametrize("name", sorted(JOIN_PROGRAMS))
def test_joins_keep_only_what_every_arm_agrees_on(name):
    switch, threaded = both_runs(JOIN_PROGRAMS[name], plan=True)
    assert switch.stdout == threaded.stdout
    assert switch.time == threaded.time
    assert switch.stats.instructions == threaded.stats.instructions
    assert switch.stats.edge_actions == threaded.stats.edge_actions


def _budget_cut_state(module, plan, backend, limit):
    clear_compile_memo()
    machine = Machine(
        module, Kernel(World()), plan=plan, backend=backend,
        max_instructions=limit,
    )
    try:
        while True:
            event = machine.next_event()
            if event is None:
                break
            resolve_event_locally(machine, event)
    except BudgetExceededError:
        pass
    thread = machine.threads[0]
    return (
        machine.stats.instructions, machine.stats.edge_actions,
        list(thread.counter_stack), thread.clock, thread.frames[-1].index,
    )


def test_budget_cut_at_reentry_flushes_the_path_once():
    # A counter add on the loop's back edge: the re-entering path
    # carries it, and a budget cut right at the re-entry must flush it
    # exactly once before handing back to the driver.
    from repro.instrument.plan import CounterAdd
    from repro.ir import instructions as ins

    module = compile_source(LOOP)
    plan = instrument_module(module).plan
    main = module.functions["main"]
    back = next(
        index for index, instr in enumerate(main.instrs)
        if type(instr) is ins.Jump and instr.target < index
    )
    assert back in plan.relevance.functions["main"].fusible
    plan.functions["main"].add_action(
        (back, main.instrs[back].target), CounterAdd(2)
    )
    try:
        for limit in range(10, 200):
            assert _budget_cut_state(module, plan, "switch", limit) == (
                _budget_cut_state(module, plan, "threaded", limit)
            ), limit
    finally:
        clear_compile_memo()


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


def test_single_instruction_regions_are_their_base_steps(monkeypatch):
    # A fusible instruction whose successors all leave the fusible set
    # would make a one-member region: its landing installs the base
    # step and generates nothing.
    from repro.interp import compile as compile_mod

    module = compile_source(LOOP)
    plan = instrument_module(module).plan
    main = module.functions["main"]
    fusible = plan.relevance.functions["main"].fusible
    compiler = compile_mod._FunctionCompiler(
        module, main, plan.functions["main"],
        frozenset(module.global_values), fusible,
    )
    base = [compiler._compile_one(i, instr) for i, instr in enumerate(main.instrs)]
    single = [
        index for index in sorted(fusible)
        if all(succ != index and succ not in fusible
               for succ in main.successors(index))
    ]
    assert single
    calls = _count_compiles(monkeypatch)
    for index in single:
        assert compiler._compile_region(index, base) is base[index]
    assert calls == []


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
