"""Run one ``repro`` CLI command in process, with a timing span around
every call into a layer's public functions.

    python benchmarks/e2e/tracer.py --spans OUT.json -- eval --check-static

The command line after ``--`` goes to ``repro.cli.main`` unchanged, so
the traced run takes the same path as ``python -m repro ...``.  Nothing
under ``src/`` changes: each wrapper replaces the name its callers bind.
For ``from X import f`` that means every module holding ``f``, e.g.
``repro.cache.instrument_module`` as well as
``repro.instrument.pipeline.instrument_module``.  Lazy imports inside
function bodies read the patched module attribute when they run.

Spans stay in memory with their parent ids and are written once, at
exit, as compact lists (see :data:`SPAN_FIELDS`); ``spans.py`` turns
them into a Chrome trace and an Amdahl table.  The per-event drive loop
(``Machine.next_event``) is deliberately not wrapped: a wrapper there
would cost more than the work it times, so interpretation counts as
self time of ``core`` (dual runs) or ``baselines`` (baseline runs).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SPAN_FIELDS = ("id", "parent", "thread", "layer", "name", "start_ns", "end_ns", "args")

# (module, attribute) pairs; the layer is the module's first component
# below ``repro`` unless LAYER_OVERRIDES says otherwise.
TARGETS = (
    ("repro.cli", "main"),
    ("repro.lang.parser", "parse"),
    ("repro.lang.semantics", "check_program"),
    ("repro.ir.lowering", "compile_source"),
    ("repro.ir.lowering", "lower_program"),
    ("repro.instrument.pipeline", "instrument_module"),
    ("repro.analysis.analyzer", "analyze_source"),
    ("repro.analysis.analyzer", "analyze_module"),
    ("repro.analysis.relevance", "compute_relevance"),
    ("repro.baselines.native", "run_native"),
    ("repro.baselines.taint.runner", "run_taint"),
    ("repro.baselines.dualex.engine", "run_dualex"),
    ("repro.baselines.tightlip", "run_tightlip"),
    ("repro.interp.compile", "compiled_for_module"),
    ("repro.interp.compile", "compile_module"),
    ("repro.core.engine", "LdxEngine.__init__"),
    ("repro.core.engine", "LdxEngine.run"),
    ("repro.core.engine", "EngineFactory.__init__"),
    ("repro.vos.world", "World.clone"),
    ("repro.serve.service", "_world_from_spec"),
    ("repro.cache", "artifact_key"),
    ("repro.cache", "ArtifactCache.lookup"),
    ("repro.cache", "ArtifactCache.load"),
    ("repro.cache", "ArtifactCache.store"),
    ("repro.results.store", "ResultsStore.__init__"),
    ("repro.results.store", "ResultsStore.get_cell"),
    ("repro.results.store", "ResultsStore.get_cells"),
    ("repro.results.store", "ResultsStore.put_cell"),
    ("repro.results.store", "ResultsStore.record_run"),
    ("repro.results.store", "ResultsStore.close"),
    ("repro.eval.runner", "run_all"),
    ("repro.eval.robustness", "run_chaos"),
    ("repro.eval.parallel", "run_cells"),
    ("repro.eval.parallel", "assemble_report"),
    ("repro.eval.executors.local", "SerialExecutor.stream"),
    ("repro.serve.service", "LdxService._serve"),
)

# A world built from a request spec is VOS work even though the helper
# lives in the serve package.
LAYER_OVERRIDES = {"repro.serve.service._world_from_spec": "vos"}


def _engine_run_args(call_args, call_kwargs, result):
    """What one dual run did, read from the returned DualResult."""
    return {
        "instructions": result.master.stats.instructions
        + result.slave.stats.instructions,
        "faults": len(result.degradation.faults_injected),
        "virtual_time": result.dual_time,
    }


def _serve_args(call_args, call_kwargs, result):
    """The request id, so timed requests can be told from priming ones."""
    return {"request": call_args[1].id}


ARG_HOOKS = {
    "repro.core.engine.LdxEngine.run": _engine_run_args,
    "repro.serve.service.LdxService._serve": _serve_args,
}


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent, time.perf_counter_ns()

    def exit(self, token, layer: str, name: str, args=None) -> None:
        end = time.perf_counter_ns()
        span_id, parent, start = token
        self._stack().pop()
        self.spans.append(
            [span_id, parent, threading.get_ident(), layer, name, start, end, args]
        )

    def wrap(self, fn, layer: str, name: str, hook=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # Time each step of the generator, not its creation.
            @functools.wraps(fn)
            def stepper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        token = tracer.enter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer.exit(token, layer, name)
                        yield item
                finally:
                    inner.close()

            return stepper

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            token = tracer.enter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                extra = hook(args, kwargs, result) if hook and result is not None else None
                tracer.exit(token, layer, name, extra)

        return timed


def install(tracer: Tracer) -> None:
    """Wrap every target at every binding."""
    for module_name, attribute in TARGETS:
        module = importlib.import_module(module_name)
        qualified = f"{module_name}.{attribute}"
        layer = LAYER_OVERRIDES.get(qualified, module_name.split(".")[1])
        name = f"{layer}.{attribute}"
        hook = ARG_HOOKS.get(qualified)
        if "." in attribute:
            owner_name, method = attribute.split(".")
            owner = getattr(module, owner_name)
            setattr(owner, method, tracer.wrap(getattr(owner, method), layer, name, hook))
            continue
        original = getattr(module, attribute)
        wrapper = tracer.wrap(original, layer, name, hook)
        for holder in list(sys.modules.values()):
            if getattr(holder, "__name__", "").startswith("repro") and (
                getattr(holder, attribute, None) is original
            ):
                setattr(holder, attribute, wrapper)
    # Registered workloads carry their world builder as an attribute.
    from repro.workloads import ALL_WORKLOADS

    for workload in ALL_WORKLOADS:
        workload.build_world = tracer.wrap(
            workload.build_world, "vos", "vos.build_world"
        )


def _cache_stats() -> dict:
    from repro import cache

    totals = {"memory_hits": 0, "disk_hits": 0, "misses": 0, "disk_errors": 0}
    for instance in (cache.get_cache(), cache.get_analysis_cache(), cache.get_compiled_cache()):
        for key in totals:
            totals[key] += getattr(instance.stats, key)
    return totals


def main(argv) -> int:
    started = time.perf_counter_ns()
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans OUT.json -- <repro arguments>", file=sys.stderr)
        return 2
    spans_path, command = argv[1], argv[3:]
    tracer = Tracer()

    token = tracer.enter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro.cli  # noqa: F401  (the import every CLI run pays)

    tracer.exit(token, "cli", "cli.import")
    token = tracer.enter()
    install(tracer)
    tracer.exit(token, "trace", "trace.install")

    from repro import cli

    code = 1
    try:
        code = cli.main(command)
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    finally:
        sys.stdout.flush()
        payload = {
            "fields": list(SPAN_FIELDS),
            "started_ns": started,
            "cache": _cache_stats(),
            "spans": tracer.spans,
        }
        with open(spans_path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
