"""Benchmark: threaded-code dispatch vs the switch interpreter.

Records (as ``extra_info`` in the pytest-benchmark JSON):

* per-workload drive-loop timings for both backends over all 28
  registry workloads (min of ``REPS`` repetitions each) and the
  geometric-mean speedup — the acceptance target is >= 3.2x with a
  warm compile cache, the sink-relevance pass enabled and plans
  pruned at instrumentation time;
* the relevance switch's worst case: on an all-sink-relevant workload
  (zero elision) the pruned plan and the full plan ``--no-relevance``
  emits carry identical edge actions and compile to identical region
  source, so the pass costs nothing (asserted structurally; the
  interleaved on/off timings are recorded for trend tracking);
* cold vs warm closure-compile timings through the module memo — a
  warm lookup must be at least 10x cheaper than compiling;
* the profiler's off-path cost: with ``profile=False`` the driver
  loop memoized by ``Machine._run_thread`` must *be* the plain
  threaded loop (asserted structurally); the wall-clock delta against
  a hand-bound loop is recorded for trend tracking.

Timings exclude world construction and ``Machine`` setup: the paper's
Figure 6 numbers are about executing instructions, so the clock starts
at the first ``next_event`` call.
"""

import math
import time

import pytest

from repro.instrument import instrument_module
from repro.interp.compile import clear_compile_memo, compiled_for_module
from repro.interp.machine import Machine
from repro.interp.resolve import resolve_event_locally
from repro.ir import compile_source
from repro.vos.kernel import Kernel
from repro.vos.world import World
from repro.workloads import ALL_WORKLOADS

REPS = 15
SPEEDUP_FLOOR = 3.2
WARM_COMPILE_RATIO = 10.0


def _drive(machine):
    """Run a machine to completion, resolving every event locally."""
    while True:
        event = machine.next_event()
        if event is None:
            return
        resolve_event_locally(machine, event)


def _build(workload, backend, profile=False):
    instrumented = workload.instrumented
    return Machine(
        instrumented.module,
        Kernel(workload.build_world(1)),
        plan=instrumented.plan,
        backend=backend,
        profile=profile,
    )


def _time_drive(workload, backend, reps=REPS, profile=False, bind_direct=False):
    """Best-of-*reps* drive-loop seconds for one workload/backend."""
    instrumented = workload.instrumented
    compiled_for_module(instrumented.module, instrumented.plan)  # warm memo
    best = float("inf")
    for _ in range(reps):
        machine = _build(workload, backend, profile=profile)
        if bind_direct:
            # Shadow the dispatch wrapper with the plain threaded loop:
            # the timing difference vs the normal path is exactly the
            # profiler's off-path residue.
            machine._run_thread = machine._run_thread_threaded
        start = time.perf_counter()
        _drive(machine)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.paper
def test_threaded_dispatch_speedup(benchmark):
    """Geomean speedup of the threaded backend across all workloads."""
    switch_seconds = {}
    for workload in ALL_WORKLOADS:
        switch_seconds[workload.name] = _time_drive(workload, "switch")

    threaded_seconds = {}

    def threaded_sweep():
        for workload in ALL_WORKLOADS:
            threaded_seconds[workload.name] = _time_drive(workload, "threaded")

    benchmark.pedantic(threaded_sweep, rounds=1, iterations=1)

    rows = []
    logs = []
    for workload in ALL_WORKLOADS:
        sw = switch_seconds[workload.name]
        th = threaded_seconds[workload.name]
        ratio = sw / th if th else 0.0
        logs.append(math.log(ratio))
        rows.append((workload.name, sw, th, ratio))
    geomean = math.exp(sum(logs) / len(logs))

    print()
    for name, sw, th, ratio in sorted(rows, key=lambda r: -r[3]):
        print(
            f"{name:14s} switch={sw * 1000:8.2f}ms "
            f"threaded={th * 1000:8.2f}ms  {ratio:5.2f}x"
        )
    print(f"geomean speedup {geomean:.3f}x over {len(rows)} workloads")

    benchmark.extra_info["workloads"] = len(rows)
    benchmark.extra_info["geomean_speedup"] = round(geomean, 3)
    benchmark.extra_info["speedup_floor"] = SPEEDUP_FLOOR
    benchmark.extra_info["per_workload"] = {
        name: {
            "switch_ms": round(sw * 1000, 3),
            "threaded_ms": round(th * 1000, 3),
            "speedup": round(ratio, 3),
        }
        for name, sw, th, ratio in rows
    }

    assert geomean >= SPEEDUP_FLOOR, (
        f"threaded geomean speedup {geomean:.3f}x below the "
        f"{SPEEDUP_FLOOR}x acceptance floor"
    )


@pytest.mark.paper
def test_compile_cache_cold_vs_warm(benchmark):
    """Closure compilation is paid once per module, then memoized."""
    artifacts = [w.instrumented for w in ALL_WORKLOADS]

    clear_compile_memo()
    start = time.perf_counter()
    for artifact in artifacts:
        compiled_for_module(artifact.module, artifact.plan)
    cold_seconds = time.perf_counter() - start

    def warm_sweep():
        for artifact in artifacts:
            compiled_for_module(artifact.module, artifact.plan)

    benchmark.pedantic(warm_sweep, rounds=1, iterations=1)
    warm_seconds = benchmark.stats.stats.total

    benchmark.extra_info["cold_ms"] = round(cold_seconds * 1000, 3)
    benchmark.extra_info["warm_ms"] = round(warm_seconds * 1000, 3)
    benchmark.extra_info["workloads"] = len(artifacts)
    print(
        f"\ncold compile {cold_seconds * 1000:.1f}ms  "
        f"warm memo {warm_seconds * 1000:.2f}ms over "
        f"{len(artifacts)} modules"
    )

    assert warm_seconds * WARM_COMPILE_RATIO < cold_seconds, (
        f"warm compile lookups ({warm_seconds * 1000:.2f}ms) not at least "
        f"{WARM_COMPILE_RATIO}x cheaper than cold compiles "
        f"({cold_seconds * 1000:.2f}ms)"
    )


@pytest.mark.paper
def test_profiler_off_path_overhead(benchmark):
    """With profiling off, the profiler must cost (almost) nothing.

    The per-opcode histograms are ``None`` unless ``profile=True``, and
    ``Machine._run_thread`` memoizes the selected driver loop as a
    bound instance attribute on first use — so after the first event a
    profile-off machine runs *exactly* the plain threaded loop, with
    zero residual dispatch.  That makes the claim checkable
    structurally (the memoized runner IS the plain loop, the same
    object ``bind_direct`` installs by hand); the wall-clock comparison
    is recorded as ``extra_info`` for trend tracking but not asserted,
    since two identical code paths differ only by machine noise.
    """
    from repro.interp.machine import Machine

    # Structural half of the claim: no per-opcode accounting happens
    # unless it was asked for.
    probe = _build(ALL_WORKLOADS[0], "threaded")
    _drive(probe)
    assert probe.stats.opcode_counts is None
    assert probe.stats.opcode_time is None
    # The memoized driver loop is the plain threaded loop itself: the
    # off path IS the direct path after the first event.
    memoized = probe.__dict__.get("_run_thread")
    assert memoized is not None, "driver loop was not memoized"
    assert memoized.__func__ is Machine._run_thread_threaded, (
        f"profile-off machine memoized {memoized.__func__.__qualname__}"
    )

    profiled = _build(ALL_WORKLOADS[0], "threaded", profile=True)
    _drive(profiled)
    assert profiled.stats.opcode_counts
    assert sum(profiled.stats.opcode_counts.values()) > 0
    assert profiled.__dict__["_run_thread"].__func__ is (
        Machine._run_thread_threaded_profiled
    )

    direct_total = 0.0
    dispatched_total = 0.0

    def interleaved_sweep():
        # Adjacent per-workload timings (direct, then dispatched):
        # machine drift between two full sweeps would otherwise swamp
        # the sub-percent residue being measured.
        nonlocal direct_total, dispatched_total
        for w in ALL_WORKLOADS:
            direct_total += _time_drive(w, "threaded", bind_direct=True)
            dispatched_total += _time_drive(w, "threaded")

    benchmark.pedantic(interleaved_sweep, rounds=1, iterations=1)

    overhead = (dispatched_total - direct_total) / direct_total
    benchmark.extra_info["direct_ms"] = round(direct_total * 1000, 3)
    benchmark.extra_info["dispatched_ms"] = round(dispatched_total * 1000, 3)
    benchmark.extra_info["off_path_overhead"] = round(overhead, 4)
    print(
        f"\ndirect {direct_total * 1000:.1f}ms  "
        f"dispatched {dispatched_total * 1000:.1f}ms  "
        f"off-path delta {overhead * 100:+.2f}% (noise; not asserted)"
    )


# Every value computed below flows into a print (an outcome sink) or
# controls a branch on the path to one, so the relevance pass can elide
# no user computation — only structural glue (nops, the loop jump, the
# ret), which carries no counter updates anyway: the worst case for
# paying the pass's bookkeeping with no payoff.
ZERO_ELISION_SOURCE = """
fn main() {
  var acc = 0;
  var i = 0;
  while (i < 60000) {
    acc = acc + i;
    i = i + 1;
  }
  print(acc);
  print(i);
}
"""


@pytest.mark.paper
def test_zero_elision_overhead(benchmark, monkeypatch):
    """An all-sink-relevant workload must not pay for the relevance pass.

    With zero elidable computation, pruning has nothing to remove: the
    pruned plan (relevance on) and the full plan ``--no-relevance``
    emits (off) carry identical edge actions, and the compiler, which
    fuses each plan's fusible set regardless of the switch, emits
    identical region source for both.  Identical code is zero overhead
    -- stricter than any wall-clock ceiling, so that is what is
    asserted; the interleaved best-of timings are recorded for trend
    tracking only, since two identical code paths differ only by
    machine noise.
    """
    from repro.interp import compile as compile_mod

    module = compile_source(ZERO_ELISION_SOURCE)
    plans = {
        enabled: instrument_module(module, prune=enabled).plan
        for enabled in (True, False)
    }
    relevance = plans[True].relevance
    from repro.ir import instructions as ins

    structural = (ins.Nop, ins.Jump, ins.Ret)
    for name, fn_relevance in relevance.functions.items():
        fn = module.functions[name]
        computational = [
            idx
            for idx in fn_relevance.elidable
            if not isinstance(fn.instrs[idx], structural)
        ]
        assert not computational, (
            f"expected an all-relevant workload, {name} elides "
            f"computation at {sorted(computational)}"
        )

    # Structural half: same plan edges, same generated regions.
    for name in module.functions:
        assert plans[True].functions[name].actions == (
            plans[False].functions[name].actions
        ), f"pruning changed the edge actions of {name}"
    real_compile = compile
    sources = {}

    def one_run(enabled):
        machine = Machine(
            module,
            Kernel(World(seed=1)),
            plan=plans[enabled],
            backend="threaded",
        )
        start = time.perf_counter()
        _drive(machine)
        return time.perf_counter() - start

    for enabled in (True, False):
        emitted = sources[enabled] = []

        def recording(source, filename, mode, *args, _out=emitted, **kwargs):
            _out.append(source)
            return real_compile(source, filename, mode, *args, **kwargs)

        monkeypatch.setattr(compile_mod, "compile", recording, raising=False)
        clear_compile_memo()
        compiled_for_module(module, plans[enabled])
        one_run(enabled)  # first landings generate every region
    monkeypatch.undo()
    assert sources[True], "no region was generated"
    assert sources[True] == sources[False], (
        "pruned and full plans compiled to different region source"
    )

    best = {True: float("inf"), False: float("inf")}

    def interleaved_sweep():
        for _ in range(15):
            for enabled in (True, False):
                best[enabled] = min(best[enabled], one_run(enabled))

    benchmark.pedantic(interleaved_sweep, rounds=1, iterations=1)

    overhead = (best[True] - best[False]) / best[False]
    benchmark.extra_info["relevance_on_ms"] = round(best[True] * 1000, 3)
    benchmark.extra_info["relevance_off_ms"] = round(best[False] * 1000, 3)
    benchmark.extra_info["zero_elision_overhead"] = round(overhead, 4)
    print(
        f"\nzero-elision relevance on {best[True] * 1000:.2f}ms  "
        f"off {best[False] * 1000:.2f}ms  delta {overhead * 100:+.2f}% "
        f"(identical code; noise, not asserted)"
    )
