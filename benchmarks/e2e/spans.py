"""Turn the tracer's spans into per-layer numbers, an Amdahl table and
a Chrome trace-event file.

A span's self time is its duration minus the time its direct children
(same thread, opened while it was on top of the stack) cover.  A layer's
self time is the sum over its spans.  Whatever no repro layer covers is
reported as ``unattributed``: interpreter start and exit, the tracer's
own set-up and span dump.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, Iterable, List, Optional

# The src/repro modules a span can be attributed to, in pipeline order.
LAYERS = (
    "cli", "lang", "ir", "instrument", "analysis", "baselines", "interp",
    "core", "vos", "cache", "results", "eval", "serve",
)

# Call counts reported per layer: span name -> metric name.
COUNTED = {
    "ir.lower_program": "ir.calls",
    "instrument.instrument_module": "instrument.calls",
    "analysis.analyze_module": "analysis.calls",
    "interp.compile_module": "interp.compiles",
    "core.LdxEngine.run": "core.engine_runs",
    "vos.World.clone": "vos.world_clones",
    "results.ResultsStore.put_cell": "results.puts",
}


class Span:
    __slots__ = ("id", "parent", "thread", "layer", "name", "start", "end", "args")

    def __init__(self, row) -> None:
        (self.id, self.parent, self.thread, self.layer, self.name,
         self.start, self.end, self.args) = row
        self.args = self.args or {}

    @property
    def duration(self) -> int:
        return self.end - self.start


def load(path) -> dict:
    with open(path) as handle:
        payload = json.load(handle)
    payload["spans"] = [Span(row) for row in payload["spans"]]
    return payload


def timed_requests_only(spans: List[Span], prefix: str) -> List[Span]:
    """Spans under a ``serve._serve`` root whose request id starts with
    *prefix*: the timed phase, without priming requests."""
    by_id = {span.id: span for span in spans}
    root_of: Dict[int, Span] = {}

    def root(span: Span) -> Span:
        path = []
        while span.id not in root_of:
            parent = by_id.get(span.parent)
            if parent is None:
                root_of[span.id] = span
                break
            path.append(span)
            span = parent
        top = root_of[span.id]
        for member in path:
            root_of[member.id] = top
        return top

    kept = []
    for span in spans:
        top = root(span)
        if top.name == "serve.LdxService._serve" and str(
            top.args.get("request", "")
        ).startswith(prefix):
            kept.append(span)
    return kept


def self_times(spans: Iterable[Span]):
    """({layer: self ns}, {name: [self ns, calls]})."""
    spans = list(spans)
    covered = defaultdict(int)
    for span in spans:
        if span.parent:
            covered[span.parent] += span.duration
    by_layer: Dict[str, int] = defaultdict(int)
    by_name: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for span in spans:
        own = span.duration - covered.get(span.id, 0)
        by_layer[span.layer] += own
        by_name[span.name][0] += own
        by_name[span.name][1] += 1
    return dict(by_layer), dict(by_name)


def layer_metrics(
    spans: List[Span],
    wall_s: float,
    cache: dict,
    derived_s: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """The per-layer metric set for one traced run.

    *wall_s* is the traced wall the shares are taken of; *derived_s*
    adds time no span covers but the benchmark measured (for serve: the
    transport and queue-wait parts of the client's latency).
    """
    rows, functions = amdahl_rows(spans, wall_s, derived_s)
    share = {name: pct for name, _seconds, pct, _calls in rows}
    calls = {name: count for name, _seconds, _pct, count in functions}
    metrics: Dict[str, float] = {
        f"{layer}.self_pct": share.get(layer, 0.0) for layer in LAYERS
    }
    for name in derived_s or {}:
        metrics[f"{name}_pct"] = share[name]
    metrics["trace.unattributed_pct"] = share["unattributed"]
    for span_name, metric in COUNTED.items():
        metrics[metric] = calls.get(span_name, 0)
    runs = [span for span in spans if span.name == "core.LdxEngine.run"]
    metrics["core.instructions"] = sum(s.args.get("instructions", 0) for s in runs)
    metrics["vos.faults_injected"] = sum(s.args.get("faults", 0) for s in runs)
    lookups = cache["memory_hits"] + cache["disk_hits"] + cache["misses"]
    hits = cache["memory_hits"] + cache["disk_hits"]
    metrics["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["cache.disk_errors"] = cache["disk_errors"]
    metrics["trace.wall_s"] = wall_s
    return metrics


def amdahl_rows(spans: List[Span], wall_s: float, derived_s=None):
    """[(row name, self seconds, share %, calls)], layers then functions."""
    by_layer, by_name = self_times(spans)
    calls_by_layer: Dict[str, int] = defaultdict(int)
    for name, (_own, calls) in by_name.items():
        calls_by_layer[name.split(".")[0]] += calls
    rows = [
        (layer, by_layer[layer] / 1e9, 100.0 * by_layer[layer] / 1e9 / wall_s,
         calls_by_layer[layer])
        for layer in LAYERS if layer in by_layer
    ]
    for name, seconds in (derived_s or {}).items():
        rows.append((name, seconds, 100.0 * seconds / wall_s, 0))
    rows.sort(key=lambda row: -row[1])
    rest = wall_s - sum(row[1] for row in rows)
    rows.append(("unattributed", rest, 100.0 * rest / wall_s, 0))
    functions = sorted(
        ((name, ns / 1e9, 100.0 * ns / 1e9 / wall_s, calls)
         for name, (ns, calls) in by_name.items()),
        key=lambda row: -row[1],
    )
    return rows, functions


def render_amdahl(title: str, wall_s: float, rows, functions, top: int = 12) -> str:
    lines = [
        f"{title}: traced wall {wall_s:.3f} s",
        f"  {'layer':<24} {'self s':>9} {'share':>7} {'calls':>8}",
    ]
    for name, seconds, share, calls in rows:
        lines.append(f"  {name:<24} {seconds:>9.3f} {share:>6.1f}% {calls:>8}")
    lines.append(f"  {'top functions (self)':<24}")
    for name, seconds, share, calls in functions[:top]:
        lines.append(f"  {name:<36} {seconds:>9.3f} {share:>6.1f}% {calls:>8}")
    return "\n".join(lines)


def chrome_trace(spans: List[Span], started_ns: int) -> dict:
    """Chrome trace-event JSON (open in Perfetto or chrome://tracing)."""
    threads = {tid: index for index, tid in enumerate(sorted({s.thread for s in spans}))}
    events = [
        {
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": (span.start - started_ns) / 1000.0,
            "dur": span.duration / 1000.0,
            "pid": 1,
            "tid": threads[span.thread],
            "args": {"id": span.id, "parent": span.parent, **span.args},
        }
        for span in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
