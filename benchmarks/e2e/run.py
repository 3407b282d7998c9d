#!/usr/bin/env python3
"""End-to-end benchmark of the LDX reproduction's user paths.

Four workloads drive the real entry points from outside, as child
processes with tracing off:

  eval-cold    python -m repro eval --check-static, every cache cold
  chaos-sweep  python -m repro chaos --seeds 10, artifact cache primed
  serve-warm   python -m repro serve --http 0, warm requests only
  serve-mixed  the same daemon; one request in four is a never-seen source

Usage, from the repository root:

  python3 benchmarks/e2e/run.py                        # every workload once
  python3 benchmarks/e2e/run.py --workload serve-warm --seed 3 --seconds 20 --trace 0
  python3 benchmarks/e2e/run.py --trace 1              # per-layer run: Chrome trace + Amdahl table
  python3 benchmarks/e2e/run.py --set 10 --out A.json  # ten fresh-process runs per workload
  python3 benchmarks/e2e/run.py --compare A.json B.json
  python3 benchmarks/e2e/run.py --quick                # small sizes, for the smoke test

Every metric is printed with its unit and sample count, every
correctness check runs, and the run is written to a results JSON
(``--out``).  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``.  The exit code is
1 when a correctness check failed, 2 when the source tree is missing.
``--compare`` exits 1 when B regressed and 3 when a verdict is
unresolved.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".e2e-work"
PY = sys.executable

WORKLOADS = ("eval-cold", "chaos-sweep", "serve-warm", "serve-mixed")

END_TO_END_UNITS = {
    "latency_ms": "ms",
    "throughput_ops_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Child processes that exceed this are killed and count as failed.
REP_TIMEOUT_S = 150.0
# Batch latency is the median invocation of the run, of at least two.
MIN_BATCH_REPS = 2
# Set-up samples still missing after the last invocation are spaced by
# this, so they meet more than one of the host's slow or fast spells.
SETUP_GAP_S = 0.5

# Serve workloads: open-loop rate, cold-request period, and the share
# of the measured time spent in the open loop (the rest is closed loop).
# An untimed open-loop warm-up (Sizes.serve_warmup_s) comes first: the
# first few seconds of requests after set-up often run up to 25% slower.
#
# The rate keeps 125 ms between requests on each of the two connections.
# At 80 ms (25 req/s), after one slow reply nearly every later reply sat
# out the ~40 ms two-write reply stall (open target 1 in the README) for
# the rest of the run, so the median jumped ten-fold; at 100 ms single
# replies still stalled.
SERVE = {
    "serve-warm": {"rate": 16.0, "cold_every": 0},
    "serve-mixed": {"rate": 16.0, "cold_every": 4},
}
OPEN_SHARE = 0.8

sys.path.insert(0, str(HERE))
from serveload import (  # noqa: E402
    BenchError,
    Client,
    Daemon,
    RequestPlan,
    closed_loop,
    load_threads,
    open_loop,
    prime,
)
import checks  # noqa: E402
import spans  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

PER_LAYER_UNITS = {
    **{f"{layer}.self_pct": "%" for layer in spans.LAYERS},
    "serve.transport_pct": "%",
    "serve.queue_wait_pct": "%",
    "trace.unattributed_pct": "%",
    **{metric: "count" for metric in spans.COUNTED.values()},
    "core.instructions": "count",
    "vos.faults_injected": "count",
    "cache.hit_ratio": "ratio",
    "cache.disk_errors": "count",
    "serve.factory_hit_ratio": "ratio",
    "serve.overloaded": "count",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


class Sizes:
    """Input sizes; ``--quick`` shrinks them for the smoke test."""

    def __init__(self, quick: bool) -> None:
        self.quick = quick
        self.table4_runs = 5 if quick else 100
        self.chaos_seeds = 5 if quick else 10
        self.import_setups = 3 if quick else 20
        self.setups_per_rep = 1 if quick else 4
        self.serve_setups = 1 if quick else 3
        self.serve_warmup_s = 0.5 if quick else 4.0

    def reference_key(self, workload: str) -> str:
        return f"{workload}-quick" if self.quick else workload


# -- statistics ----------------------------------------------------------------


def quartiles(values: List[float]):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def tail(values: List[float]):
    """(percentile, value, n): the highest of p99/p95/p90/p75 with at
    least ten samples beyond it, or None when there are too few."""
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100)[pct - 1], len(values)
    return None


def metric(value: float, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


# -- child processes -----------------------------------------------------------


def child_env() -> dict:
    """The caller's environment with ``src/`` importable and temporary
    files kept inside the checkout.  Bytecode is always cached, so
    ``setup_s`` measures the import an installed package pays whatever
    the caller's ``PYTHONDONTWRITEBYTECODE``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(WORK)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(command: List[str], cwd: Path, stdout_path: Path, stderr_path: Path):
    """(wall s, exit code, peak RSS MB) of one child, from spawn to exit."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(REP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def repro_command(argv: List[str], spans_path: Optional[Path] = None) -> List[str]:
    if spans_path is None:
        return [PY, "-m", "repro"] + argv
    return [PY, str(HERE / "tracer.py"), "--spans", str(spans_path), "--"] + argv


def spawn_checked(command: List[str], cwd: Path, name: str) -> float:
    """Wall seconds of a child that must exit 0; its output goes to
    ``<name>.out`` / ``<name>.err`` in *cwd*."""
    err = cwd / f"{name}.err"
    wall, code, _ = spawn(command, cwd, cwd / f"{name}.out", err)
    if code != 0:
        raise BenchError(f"{name} exited {code}: {err.read_text()[-400:]}")
    return wall


def import_setup(run_dir: Path) -> float:
    """Spawn-to-exit of a process that only imports the CLI."""
    return spawn_checked([PY, "-c", "import repro.cli"], run_dir, "import")


# -- batch workloads -----------------------------------------------------------


def batch_argv(workload: str, sizes: Sizes) -> List[str]:
    if workload == "eval-cold":
        return ["eval", "--check-static", "--table4-runs", str(sizes.table4_runs)]
    return ["chaos", "--seeds", str(sizes.chaos_seeds)]


def reference_argv(workload: str, sizes: Sizes) -> List[str]:
    """The independent configuration the reference digests come from."""
    return batch_argv(workload, sizes) + [
        "--interp-backend", "switch", "--no-relevance", "--no-cache", "--no-store",
    ]


Rep = namedtuple("Rep", "wall rss cells problems spans_path")


def batch_rep(workload: str, sizes: Sizes, run_dir: Path, index: int,
              reference: str, traced: bool = False) -> Rep:
    """One invocation with fresh caches (eval-cold) or the primed shared
    artifact cache (chaos-sweep), and always a fresh results store."""
    rep_dir = run_dir / f"rep{index}"
    rep_dir.mkdir()
    cache_dir = rep_dir / "cache" if workload == "eval-cold" else run_dir / "shared-cache"
    argv = batch_argv(workload, sizes) + [
        "--cache-dir", str(cache_dir), "--store-path", str(rep_dir / "results.sqlite"),
    ]
    spans_path = rep_dir / "spans.json" if traced else None
    wall, code, rss = spawn(
        repro_command(argv, spans_path), run_dir, rep_dir / "stdout", rep_dir / "stderr"
    )
    stderr = (rep_dir / "stderr").read_bytes()
    problems = []
    if code != 0:
        problems.append(f"rep {index}: exit code {code}: {stderr[-400:].decode(errors='replace')}")
    problem = checks.check_digest(
        f"rep {index}", (rep_dir / "stdout").read_bytes(), reference
    )
    if problem:
        problems.append(problem)
    cells = sum(int(n) for n in re.findall(rb"(\d+) executed", stderr))
    return Rep(wall, rss, cells, problems, spans_path)


def prime_chaos_cache(run_dir: Path) -> float:
    """Instrument all 28 workloads into the shared on-disk artifact cache."""
    argv = ["chaos", "--seeds", "1", "--no-store", "--cache-dir", str(run_dir / "shared-cache")]
    return spawn_checked(repro_command(argv), run_dir, "prime")


def run_batch(workload: str, args, sizes: Sizes, run_dir: Path, references: dict) -> dict:
    reference = references[sizes.reference_key(workload)]
    extras: Dict[str, object] = {}
    if workload == "chaos-sweep":
        extras["prime_s"] = prime_chaos_cache(run_dir)
    if args.trace:
        return batch_traced(workload, args, sizes, run_dir, reference, extras)
    # Set-up samples are spread over the run, a few before each
    # invocation: import times shift in bursts of a second or more, which
    # every sample of a block taken at once would share.
    speed = HostSpeed(run_dir / "hostspeed.log")
    setups: List[float] = []
    reps: List[Rep] = []
    with speed:
        start = time.perf_counter()
        while len(reps) < MIN_BATCH_REPS or time.perf_counter() - start < args.seconds:
            setups.extend(import_setup(run_dir) for _ in range(sizes.setups_per_rep))
            reps.append(batch_rep(workload, sizes, run_dir, len(reps), reference))
        while len(setups) < sizes.import_setups:
            time.sleep(SETUP_GAP_S)
            setups.append(import_setup(run_dir))
    n = len(reps)
    # Latency is the median invocation; throughput is the sustained rate
    # over every invocation.  Both are at the reference speed.
    median_wall = statistics.median(rep.wall for rep in reps)
    factor = speed.factor()
    extras.update(speed.extras())
    extras["raw_latency_ms"] = median_wall * 1000
    extras["raw_setups_ms"] = [setup * 1000 for setup in setups]
    extras["best_wall_ms"] = min(rep.wall for rep in reps) * 1000
    extras["rep_walls_s"] = [rep.wall for rep in reps]
    extras["cells_per_rep"] = [rep.cells for rep in reps]
    return {
        "metrics": {
            "latency_ms": metric(median_wall * 1000 * factor, "ms", n),
            "throughput_ops_s": metric(
                sum(rep.cells for rep in reps) / (sum(rep.wall for rep in reps) * factor),
                "1/s", n,
            ),
            "setup_s": metric(statistics.median(setups) * factor, "s", len(setups)),
            "peak_rss_mb": metric(statistics.median(r.rss for r in reps), "MB", n),
        },
        "extras": extras,
        "attempted": n,
        "failed": sum(1 for rep in reps if rep.problems),
        "problems": [p for rep in reps for p in rep.problems],
    }


def batch_traced(workload, args, sizes, run_dir, reference, extras) -> dict:
    """Pairs of (untraced, traced) invocations; per-layer numbers from
    the traced ones, tracing overhead from each pair's wall ratio."""
    pairs = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < args.seconds:
        plain = batch_rep(workload, sizes, run_dir, 2 * len(pairs), reference)
        traced = batch_rep(workload, sizes, run_dir, 2 * len(pairs) + 1, reference, traced=True)
        pairs.append((plain, traced))
    per_pair = []
    for plain, traced in pairs:
        trace = spans.load(traced.spans_path)
        layer = spans.layer_metrics(
            trace["spans"], traced.wall, trace["cache"],
            {"serve.transport": 0.0, "serve.queue_wait": 0.0},
        )
        layer.update({
            "serve.factory_hit_ratio": 0.0,
            "serve.overloaded": 0,
            "trace.overhead_frac": traced.wall / plain.wall - 1.0,
        })
        per_pair.append(layer)
    write_trace(args, workload, trace, trace["spans"], traced.wall)
    reps = [rep for pair in pairs for rep in pair]
    return {
        "metrics": {
            name: metric(statistics.median(p[name] for p in per_pair), unit, len(per_pair))
            for name, unit in PER_LAYER_UNITS.items()
        },
        "extras": extras,
        "attempted": len(reps),
        "failed": sum(1 for rep in reps if rep.problems),
        "problems": [p for rep in reps for p in rep.problems],
    }


# -- serve workloads -----------------------------------------------------------


def request_plan(workload: str, seed: int) -> RequestPlan:
    from repro.workloads import ALL_WORKLOADS

    shapes = [(w.name, "leak") for w in ALL_WORKLOADS] + [
        (w.name, "noleak") for w in ALL_WORKLOADS if w.noleak_variant() is not None
    ]
    sources = {w.name: w.source for w in ALL_WORKLOADS}
    return RequestPlan(seed, shapes, sources, SERVE[workload]["cold_every"])


def start_primed(run_dir: Path, tag: str, spans_path: Optional[Path] = None):
    """(daemon, seconds from spawn to the last priming reply)."""
    from repro.workloads import workload_names

    start = time.perf_counter()
    argv = ["serve", "--http", "0", "--cache-dir", str(run_dir / f"cache-{tag}")]
    daemon = Daemon(repro_command(argv, spans_path), run_dir, child_env(),
                    run_dir / f"serve-{tag}.log")
    try:
        prime(daemon.port, workload_names(), tag)
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - start


Phases = namedtuple("Phases", "warmup opened closed")


def drive(daemon: Daemon, workload: str, seed: int, seconds: float, warmup_s: float,
          speed: HostSpeed) -> Phases:
    """An untimed open-loop warm-up (request ids ``w<i>``), then the
    timed phase: open loop, with *speed* sampling, then closed loop
    (ids ``t<i>``), all drawn from one plan."""
    plan = request_plan(workload, seed)
    threads = load_threads()
    rate = SERVE[workload]["rate"]
    warmup = open_loop(daemon.port, plan, rate, warmup_s, threads, tag="w")
    with speed:
        opened = open_loop(daemon.port, plan, rate, seconds * OPEN_SHARE, threads)
    closed = closed_loop(daemon.port, plan, seconds * (1 - OPEN_SHARE), threads)
    return Phases(warmup, opened, closed)


def stop_checked(daemon: Daemon, label: str, problems: List[str]) -> None:
    code = daemon.stop()
    if code != 0:
        problems.append(f"{label}: daemon exit code {code} after SIGTERM (drain)")


def verify(records, expected: checks.BatchVerdicts, problems: List[str]) -> int:
    """Check every timed verdict against batch run_dual; failed count."""
    failed, found = checks.verify_responses(records, expected)
    problems.extend(found)
    return failed


def serve_timing(records, field: str, kind: Optional[str] = None) -> List[float]:
    return [
        r.response["timing"][field] * 1000 for r in records
        if r.ok and (kind is None or r.request.kind == kind)
    ]


def serve_extras(opened, closed) -> dict:
    records = opened + closed
    extras: Dict[str, object] = {}
    for kind in ("warm", "cold"):
        latencies = [(r.done - r.due) * 1000 for r in opened if r.ok and r.request.kind == kind]
        if latencies:
            extras[f"{kind}_p50_ms"] = [statistics.median(latencies), len(latencies)]
            extras[f"{kind}_tail_ms"] = tail(latencies)
        service = serve_timing(records, "service_s", kind)
        if service:
            extras[f"serve.service_{kind}_ms"] = [statistics.median(service), len(service)]
    # Client latency minus the daemon's own queue and service time: HTTP,
    # the kernel's TCP path, and the load generator.
    for phase, phase_records in (("open", opened), ("closed", closed)):
        transport = [
            (r.done - r.sent) * 1000 - (r.response["timing"]["queue_wait_s"]
                                        + r.response["timing"]["service_s"]) * 1000
            for r in phase_records if r.ok
        ]
        if transport:
            extras[f"serve.transport_{phase}_ms"] = [statistics.median(transport), len(transport)]
    queue = serve_timing(records, "queue_wait_s")
    extras["serve.queue_wait_ms"] = [statistics.median(queue), len(queue)]
    lateness = [r.sent - r.due for r in opened]
    extras["lateness_max_s"] = max(lateness)
    extras["lateness_end_s"] = lateness[-1]
    extras["serve.factory_hit_ratio"] = factory_hit_ratio(records)
    extras["serve.overloaded"] = overloaded(records)
    return extras


def factory_hit_ratio(records) -> float:
    served = [r for r in records if r.ok]
    hits = sum(1 for r in served if r.response.get("cache", {}).get("factory") == "hit")
    return hits / len(served) if served else 0.0


def overloaded(records) -> int:
    return sum(1 for r in records if r.response and r.response.get("status") == "overloaded")


def run_serve(workload: str, args, sizes: Sizes, run_dir: Path) -> dict:
    if args.trace:
        return serve_traced(workload, args, sizes, run_dir)
    problems: List[str] = []
    # The host's speed is sampled while the set-ups run and while the
    # open loop runs, each scaling the times taken during it.
    setup_speed = HostSpeed(run_dir / "hostspeed-setup.log")
    open_speed = HostSpeed(run_dir / "hostspeed-open.log")
    setups = []
    daemon = None
    try:
        with setup_speed:
            for index in range(sizes.serve_setups):
                if daemon is not None:
                    stop_checked(daemon, f"setup {index - 1}", problems)
                daemon, seconds = start_primed(run_dir, str(index))
                setups.append(seconds)
        phases = drive(daemon, workload, args.seed, args.seconds, sizes.serve_warmup_s,
                       open_speed)
        statz = Client(daemon.port).call("GET", "/statz")
        rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            stop_checked(daemon, "timed daemon", problems)
    opened, closed = phases.opened, phases.closed
    records = opened + closed
    failed = verify(phases.warmup + records, checks.BatchVerdicts(), problems)
    warm = [(r.done - r.due) * 1000 for r in opened if r.ok and r.request.kind == "warm"]
    served = [r for r in closed if r.ok]
    if not warm or not served:
        raise BenchError(f"{workload}: no successful timed requests")
    elapsed = max(r.done for r in closed) - min(r.sent for r in closed)
    extras = serve_extras(opened, closed)
    extras["open_speed"] = open_speed.extras()
    extras["setup_speed"] = setup_speed.extras()
    extras["raw_latency_ms"] = statistics.median(warm)
    if statz:
        extras["statz"] = {key: statz[key] for key in ("served", "rejected", "errors", "factories")}
    extras["warmup_requests"] = len(phases.warmup)
    extras["open_requests"] = len(opened)
    extras["closed_requests"] = len(closed)
    # Latency and set-up are CPU-bound, so they are reported at the
    # reference speed.  Closed-loop throughput is not: it is set by the
    # reply stall's delayed-ACK timer (open target 1), and scaling it by
    # the host's speed would only add the sampler's noise.
    return {
        "metrics": {
            "latency_ms": metric(statistics.median(warm) * open_speed.factor(), "ms", len(warm)),
            "throughput_ops_s": metric(len(served) / elapsed, "1/s", len(served)),
            "setup_s": metric(statistics.median(setups) * setup_speed.factor(), "s",
                              len(setups)),
            "peak_rss_mb": metric(rss, "MB", 1),
        },
        "extras": extras,
        "attempted": len(phases.warmup) + len(records),
        "failed": failed,
        "problems": problems,
    }


def serve_traced(workload: str, args, sizes: Sizes, run_dir: Path) -> dict:
    """The timed phase twice on the same request plan: against a plain
    daemon, then against one running under the tracer."""
    problems: List[str] = []
    passes = {}
    speeds = {}
    for tag, spans_path in (("plain", None), ("traced", run_dir / "spans.json")):
        daemon, _ = start_primed(run_dir, tag, spans_path)
        speeds[tag] = HostSpeed(run_dir / f"hostspeed-{tag}.log")
        try:
            passes[tag] = drive(daemon, workload, args.seed, args.seconds / 2,
                                sizes.serve_warmup_s, speeds[tag])
        finally:
            stop_checked(daemon, f"{tag} daemon", problems)
    expected = checks.BatchVerdicts()
    failed = sum(verify(p.warmup + p.opened + p.closed, expected, problems)
                 for p in passes.values())

    def mean_service(tag: str) -> float:
        """At the reference speed, since the two passes run at different times."""
        service = statistics.mean(serve_timing(passes[tag].opened, "service_s"))
        return service * speeds[tag].factor()

    trace = spans.load(run_dir / "spans.json")
    timed = spans.timed_requests_only(trace["spans"], "t")
    records = [r for r in passes["traced"].opened + passes["traced"].closed if r.response]
    client_s = sum(r.done - r.sent for r in records)
    queue_s = sum(r.response["timing"]["queue_wait_s"] for r in records if r.ok)
    service_s = sum(s.duration for s in timed if s.name == "serve.LdxService._serve") / 1e9
    derived = {"serve.transport": client_s - queue_s - service_s, "serve.queue_wait": queue_s}
    layer = spans.layer_metrics(timed, client_s, trace["cache"], derived)
    layer.update({
        "serve.factory_hit_ratio": factory_hit_ratio(records),
        "serve.overloaded": overloaded(records),
        "trace.overhead_frac": mean_service("traced") / mean_service("plain") - 1.0,
    })
    write_trace(args, workload, trace, timed, client_s, derived)
    attempted = sum(len(p.warmup) + len(p.opened) + len(p.closed) for p in passes.values())
    return {
        "metrics": {name: metric(layer[name], unit, 1) for name, unit in PER_LAYER_UNITS.items()},
        "extras": {},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def write_trace(args, workload: str, trace: dict, counted, wall_s: float, derived=None) -> None:
    """Chrome trace of every span plus the Amdahl table of *counted*."""
    out_dir = Path(args.trace_dir) / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "trace.json", "w") as handle:
        json.dump(spans.chrome_trace(trace["spans"], trace["started_ns"]), handle)
    rows, functions = spans.amdahl_rows(counted, wall_s, derived)
    table = spans.render_amdahl(workload, wall_s, rows, functions)
    (out_dir / "amdahl.txt").write_text(table + "\n")
    print(table)


# -- one run -------------------------------------------------------------------


def run_workload(workload: str, args, sizes: Sizes, references: dict) -> dict:
    run_dir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    started = time.perf_counter()
    try:
        if workload in SERVE:
            result = run_serve(workload, args, sizes, run_dir)
        else:
            result = run_batch(workload, args, sizes, run_dir, references)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result.update({
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": sizes.quick,
        "correct": not result["problems"],
        "run_wall_s": time.perf_counter() - started,
    })
    return result


def print_run(result: dict) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  seconds={result['seconds']}  "
          f"trace={result['trace']}  quick={result['quick']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<26} {entry['value']:>14.4f} {entry['unit']:<6} n={entry['n']}")
    for name, value in result["extras"].items():
        print(f"  . {name:<24} {json.dumps(value)}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']} ({result['run_wall_s']:.1f} s)")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def final_line(results: List[dict]) -> str:
    """The machine-readable last line; metric names are prefixed with
    the workload when more than one ran."""
    prefix = len(results) > 1
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}/{name}" if prefix else name):
                {"value": entry["value"], "unit": entry["unit"]}
            for r in results for name, entry in r["metrics"].items()
        },
    })


def meta(args) -> dict:
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }


# -- sets and comparison -------------------------------------------------------


def summarize(runs: List[dict]) -> dict:
    """Per workload and metric: median, quartiles, spread and n."""
    summary: Dict[str, dict] = {}
    for run in runs:
        entry = summary.setdefault(run["workload"], {
            "runs": 0, "attempted": 0, "failed": 0, "correct": True, "metrics": {},
        })
        entry["runs"] += 1
        entry["attempted"] += run.get("attempted", 0)
        entry["failed"] += run.get("failed", 0)
        entry["correct"] = entry["correct"] and run.get("correct", False)
        for name, value in run.get("metrics", {}).items():
            entry["metrics"].setdefault(name, {"unit": value["unit"], "values": []})
            entry["metrics"][name]["values"].append(value["value"])
    for entry in summary.values():
        for stats in entry["metrics"].values():
            q1, median, q3 = quartiles(stats["values"])
            stats.update({
                "median": median, "q1": q1, "q3": q3, "n": len(stats["values"]),
                "spread": (q3 - q1) / median if median else 0.0,
            })
    return summary


def run_set(args) -> int:
    """``--set N``: N runs per workload, each a fresh ``run.py`` process
    with its own seed, as the regression gate runs them."""
    runs = []
    started = time.perf_counter()
    for workload in args.workloads:
        for offset in range(args.set):
            seed = args.seed + offset
            out = WORK / f"set-{workload}-{seed}-{os.getpid()}.json"
            command = [PY, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", str(out)]
            if args.quick:
                command.append("--quick")
            proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE)
            try:
                _, stderr = proc.communicate(timeout=900)
            except BaseException:
                # SIGTERM lets the run stop its own children before it exits.
                proc.terminate()
                proc.wait()
                raise
            if out.exists():
                run = json.loads(out.read_text())["runs"][0]
                out.unlink()
            else:
                run = {"workload": workload, "seed": seed, "correct": False,
                       "error": stderr.decode(errors="replace")[-800:]}
            runs.append(run)
            print(f"{workload} seed={seed} exit={proc.returncode} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in run.get("metrics", {}).items()
                             if k in END_TO_END_UNITS or args.trace), flush=True)
    payload = {
        "meta": {**meta(args), "set_size": args.set, "set_wall_s": time.perf_counter() - started},
        "summary": summarize(runs),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if all(run.get("correct") for run in runs) else 1


def metric_verdict(a: dict, b: dict, spec: dict) -> str:
    """within-bound, regressed or unresolved for one metric.

    B regressed when its median is worse than A's by more than the
    bound and either both spreads are within the bound or every B run
    is worse than every A run.  A spread wider than the bound with
    neither side always ahead leaves the verdict unresolved."""
    bound = spec["bound"]
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / a["median"]
    always_better = all(sign * (vb - va) < 0 for va in a["values"] for vb in b["values"])
    always_worse = all(sign * (vb - va) > 0 for va in a["values"] for vb in b["values"])
    if max(a["spread"], b["spread"]) <= bound or always_better or always_worse:
        return "regressed" if worse > bound else "within-bound"
    return "unresolved"


def health_problems(a: dict, b: dict) -> List[str]:
    """Why B's runs of one workload are worse than A's whatever the
    timings: a failed check, or a larger share of failed operations."""
    problems = []
    if not b["correct"]:
        problems.append("a B run failed a correctness check or crashed")
    if b["failed"] * a["attempted"] > a["failed"] * b["attempted"]:
        problems.append(f"failed share rose from {a['failed']}/{a['attempted']} "
                        f"to {b['failed']}/{b['attempted']}")
    return problems


def compare(path_a: str, path_b: str) -> int:
    """Per workload and end-to-end metric: each side's median and
    quartiles, and whether B is within A's bound, regressed, or
    unresolved.  Exit code 1 when anything regressed (a metric, a
    correctness check, the failed share, or a workload or metric of A
    that B lacks), 3 when nothing regressed but a verdict is
    unresolved, 0 when every verdict is within-bound."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [summarize(json.loads(Path(p).read_text())["runs"]) for p in (path_a, path_b)]
    verdicts: Dict[str, int] = {"within-bound": 0, "regressed": 0, "unresolved": 0}
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<12} {'metric':<17} {'A q1/median/q3':>30} {'B q1/median/q3':>30} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in WORKLOADS:
        if workload not in sides[0]:
            continue
        if workload not in sides[1]:
            print(f"{workload:<12} missing from B  regressed")
            verdicts["regressed"] += 1
            continue
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            a = sides[0][workload]["metrics"].get(name)
            b = sides[1][workload]["metrics"].get(name)
            if a is None:
                continue
            if b is None:
                print(f"{workload:<12} {name:<17} missing from B  regressed")
                verdicts["regressed"] += 1
                continue
            verdict = metric_verdict(a, b, spec)
            verdicts[verdict] += 1
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (b["median"] - a["median"]) / a["median"]
            spread = max(a["spread"], b["spread"])
            print(f"{workload:<12} {name:<17} "
                  f"{a['q1']:>9.4g}/{a['median']:>9.4g}/{a['q3']:>9.4g} "
                  f"{b['q1']:>9.4g}/{b['median']:>9.4g}/{b['q3']:>9.4g} "
                  f"{100 * worse:>+7.1f}% {100 * spread:>6.1f}% {100 * bound:>5.0f}%  {verdict}")
        for side, label in zip(sides, "AB"):
            entry = side[workload]
            print(f"{'':<12} {label}: runs={entry['runs']} attempted={entry['attempted']} "
                  f"failed={entry['failed']} correct={entry['correct']}")
        for problem in health_problems(sides[0][workload], sides[1][workload]):
            print(f"{'':<12} regressed: {problem}")
            verdicts["regressed"] += 1
    print(" ".join(f"{verdict}={count}" for verdict, count in verdicts.items()))
    if verdicts["regressed"]:
        return 1
    return 3 if verdicts["unresolved"] else 0


# -- entry point ---------------------------------------------------------------


def write_references() -> int:
    """Regenerate references.json from the independent configuration."""
    references = {}
    for sizes in (Sizes(False), Sizes(True)):
        for workload in ("eval-cold", "chaos-sweep"):
            spawn_checked(repro_command(reference_argv(workload, sizes)), WORK, "reference")
            references[sizes.reference_key(workload)] = checks.sha256(
                (WORK / "reference.out").read_bytes()
            )
            print(f"{sizes.reference_key(workload)}: {references[sizes.reference_key(workload)]}")
    (HERE / "references.json").write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer run (traced child processes) instead of end-to-end")
    parser.add_argument("--trace-dir", default=str(WORK / "trace"),
                        help="where --trace 1 writes trace.json and amdahl.txt per workload")
    parser.add_argument("--quick", action="store_true", help="small sizes (smoke test)")
    parser.add_argument("--out", default=str(WORK / "results.json"),
                        help="results JSON (default: .e2e-work/results.json)")
    parser.add_argument("--set", type=int, default=0, metavar="N",
                        help="N fresh-process runs per workload with seeds seed..seed+N-1")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-references", action="store_true",
                        help="regenerate references.json (switch backend, no relevance)")
    args = parser.parse_args(argv)
    args.workloads = args.workload or list(WORKLOADS)
    if args.seconds is None:
        if args.quick:
            args.seconds = 2.0
        else:
            args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no source tree at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    # SIGTERM unwinds like an error, so every child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.write_references:
            return write_references()
        if args.set:
            return run_set(args)
        return run_once(args)
    except BenchError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1


def run_once(args) -> int:
    """Each selected workload once; the results JSON and the last line."""
    sizes = Sizes(args.quick)
    references = json.loads((HERE / "references.json").read_text())
    results = []
    started = time.perf_counter()
    for workload in args.workloads:
        result = run_workload(workload, args, sizes, references)
        print_run(result)
        results.append(result)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "meta": {**meta(args), "wall_s": time.perf_counter() - started},
        "runs": results,
    }, indent=1) + "\n")
    print(final_line(results))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
