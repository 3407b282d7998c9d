"""Command-line interface.

Usage::

    python -m repro leak program.mc --secret-file /etc/secret [options]
    python -m repro run  program.mc [--stdin TEXT] [--file PATH=CONTENT ...]
    python -m repro eval [--table4-runs N] [--check-static] [--no-store]
    python -m repro chaos [--seeds N] [--fault-rate R] [--no-store]
    python -m repro report [--chaos | --trend [BENCH]] [--store-path PATH]
    python -m repro analyze program.mc | --workload NAME | --all [--dump-ir]
    python -m repro profile WORKLOAD [--top N] [--json PATH]
    python -m repro serve [--http PORT] [--workers N] [--queue-capacity N]
    python -m repro serve-chaos [--requests N] [--fault-rate R] [--url URL]
    python -m repro checkpoints prune [--max-entries N] [--max-age-hours H]

``leak`` dual-executes a MiniC program with LDX and reports causality;
``run`` executes it natively; ``eval`` regenerates the paper's tables
(``--check-static`` adds Table 5 and the soundness-oracle check);
``chaos`` sweeps fault-injection seeds across the workloads and checks
the robustness invariants (Ctrl-C exits cleanly with a resume hint);
``analyze`` runs the static causality analyzer and lints without
executing anything; ``profile`` runs one workload
with the opcode-level profiler and prints per-opcode count /
virtual-time histograms; ``serve`` runs the causality-as-a-service
daemon (stdin JSONL by default, localhost HTTP with ``--http``; see
docs/SERVICE.md); ``serve-chaos`` storms a service with concurrent
requests under injected faults and checks the service invariants;
``checkpoints prune`` garbage-collects the world-checkpoint store;
``report`` re-renders the eval tables, the chaos sweep or the
benchmark trend straight from the columnar results store — sub-second,
nothing executes.

``eval`` and ``chaos`` are **incremental** by default: every completed
cell persists into the results store (``--store-path``, default
``.repro-cache/results.sqlite``) keyed by workload source × variant ×
seeds × config, so a re-run executes only cells whose key is absent
and still renders a byte-identical report.  That is also how an
interrupted run resumes: re-run the same command.  ``--no-store`` opts
out.

``run``, ``eval``, ``chaos`` and ``profile`` accept ``--interp-backend
{switch,threaded}`` to pick the interpreter dispatch strategy (default
``threaded``).  Events, verdicts, clocks and reports are byte-identical
across backends; only wall-clock speed differs.

``eval``, ``chaos`` and ``serve-chaos`` accept ``--jobs N``: one job
runs every experiment cell in process, more fan the cells out over a
local process pool.  Reports are byte-identical for any job count.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.baselines.native import run_native
from repro.core import FaultConfig, LdxConfig, SinkSpec, SourceSpec, run_dual
from repro.errors import ReproError
from repro.instrument import instrument_module
from repro.ir import compile_source
from repro.vos.world import World


def _unescape(text: str) -> str:
    r"""Resolve --file CONTENT escapes: ``\n``/``\t`` become control
    characters, ``\\n`` a literal backslash-n (a blind ``.replace``
    would rewrite the latter to backslash-newline)."""
    out: List[str] = []
    index = 0
    while index < len(text):
        ch = text[index]
        if ch == "\\" and index + 1 < len(text):
            follower = text[index + 1]
            if follower == "n":
                out.append("\n")
                index += 2
                continue
            if follower == "t":
                out.append("\t")
                index += 2
                continue
            if follower == "\\":
                out.append("\\")
                index += 2
                continue
        out.append(ch)
        index += 1
    return "".join(out)


def _build_world(args) -> World:
    world = World(seed=args.seed)
    world.stdin = args.stdin or ""
    for spec in args.file or []:
        if "=" not in spec:
            raise SystemExit(f"--file expects PATH=CONTENT, got {spec!r}")
        path, content = spec.split("=", 1)
        world.fs.add_file(path, _unescape(content))
    for spec in args.endpoint or []:
        if "=" not in spec:
            raise SystemExit(f"--endpoint expects HOST:PORT=REPLY, got {spec!r}")
        address, reply = spec.split("=", 1)
        host, _, port_text = address.rpartition(":")
        if not host:
            raise SystemExit(
                f"--endpoint address must be HOST:PORT, got {address!r}"
            )
        try:
            port = int(port_text)
        except ValueError:
            raise SystemExit(
                f"--endpoint port must be an integer, got {port_text!r} in {spec!r}"
            ) from None
        world.network.register(host, port, lambda req, reply=reply: reply)
    return world


def _add_world_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("program", help="path to a MiniC source file")
    parser.add_argument("--stdin", default="", help="stdin content")
    parser.add_argument(
        "--file",
        action="append",
        metavar="PATH=CONTENT",
        help="add a virtual file (repeatable; \\n escapes allowed)",
    )
    parser.add_argument(
        "--endpoint",
        action="append",
        metavar="HOST:PORT=REPLY",
        help="register a network endpoint returning REPLY (repeatable)",
    )
    parser.add_argument("--seed", type=int, default=1, help="world seed")


def _at_least(minimum, what: str, number=int):
    """An argparse ``type`` for a finite *number* (``int`` or ``float``)
    that must be >= *minimum*; *what* names the value in the error
    (argparse prefixes the option)."""

    def parse(text: str):
        try:
            value = number(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {what} {text!r}") from None
        if not minimum <= value < float("inf"):  # also rejects nan
            raise argparse.ArgumentTypeError(
                f"{what} must be >= {minimum}, got {text}"
            )
        return value

    return parse


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed artifact cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro-cache",
        metavar="DIR",
        help="on-disk artifact cache location (default: .repro-cache)",
    )


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    from repro.results import DEFAULT_STORE_PATH

    parser.add_argument(
        "--store-path",
        default=DEFAULT_STORE_PATH,
        metavar="PATH",
        help="columnar results store; completed cells persist there and "
        f"re-runs execute only missing cells (default: {DEFAULT_STORE_PATH})",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="skip the results store entirely (every cell executes)",
    )


def _open_store(args):
    """The ResultsStore the flags ask for, or None with --no-store."""
    if args.no_store:
        return None
    from repro.results import ResultsStore

    return ResultsStore(args.store_path)


def _add_parallel_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_at_least(1, "job count"),
        default=1,
        metavar="N",
        help="worker processes for the evaluation fan-out (1 = serial; "
        "output is byte-identical for any value)",
    )
    _add_cache_options(parser)


def _configure_cache(args) -> None:
    from repro import cache

    if args.no_cache:
        cache.configure(enabled=False)
    else:
        cache.configure(cache_dir=args.cache_dir)


def _add_backend_option(parser: argparse.ArgumentParser) -> None:
    from repro.interp import BACKENDS

    parser.add_argument(
        "--interp-backend",
        choices=sorted(BACKENDS),
        default="threaded",
        help="interpreter dispatch strategy (results are identical; "
        "threaded is faster)",
    )
    parser.add_argument(
        "--no-relevance",
        action="store_true",
        help="emit full (unpruned) plans; results are identical",
    )


def _apply_backend(args) -> None:
    from repro.interp import set_default_backend, set_relevance_enabled

    set_default_backend(args.interp_backend)
    set_relevance_enabled(not getattr(args, "no_relevance", False))


def _rate(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid rate {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"fault rate must be in [0, 1], got {text}")
    return value


def _add_fault_options(parser: argparse.ArgumentParser, default_rate: float) -> None:
    parser.add_argument(
        "--fault-rate",
        type=_rate,
        default=default_rate,
        help="transient-fault probability per eligible syscall (0 disables)",
    )
    parser.add_argument(
        "--watchdog-deadline",
        type=float,
        default=25_000.0,
        help="virtual-time budget before the watchdog abandons a stalled thread",
    )


def _cmd_run(args) -> int:
    _apply_backend(args)
    source = open(args.program).read()
    result = run_native(
        compile_source(source), _build_world(args), profile=args.profile_interp
    )
    sys.stdout.write(result.stdout)
    if result.exit_code:
        print(f"\n[exit code {result.exit_code}]")
    if args.profile_interp:
        from repro.interp import render_profile

        # Keep stdout reserved for the program's own output.
        print(render_profile(result.stats, "native", top=args.top), file=sys.stderr)
    return 0


def _cmd_leak(args) -> int:
    source = open(args.program).read()
    instrumented = instrument_module(compile_source(source))
    sources = SourceSpec(
        file_paths=set(args.secret_file or []),
        stdin=args.secret_stdin,
        network=set(args.secret_endpoint or []),
        env_names=set(args.secret_env or []),
        labels=set(args.secret_label or []),
    )
    if sources.count == 0:
        raise SystemExit("specify at least one source (--secret-file, ...)")
    sinks = (
        SinkSpec.network_out() if args.sinks == "network" else SinkSpec.file_out()
    )
    faults = None
    if args.fault_rate > 0.0:
        faults = FaultConfig(seed=args.fault_seed, rate=args.fault_rate)
    result = run_dual(
        instrumented,
        _build_world(args),
        LdxConfig(sources, sinks),
        faults=faults,
        watchdog_deadline=args.watchdog_deadline,
    )
    print(result.report.summary())
    if faults is not None or result.degradation.degraded:
        print(result.degradation.summary())
    for detection in result.report.detections:
        print(
            f"  {detection.kind}: {detection.syscall} at {detection.where} "
            f"master={detection.master_args} slave={detection.slave_args}"
        )
    return 1 if result.report.causality_detected else 0


def _cmd_profile(args) -> int:
    import json

    from repro.interp import profiles_payload, render_profiles
    from repro.workloads import get_workload

    _apply_backend(args)
    workload = get_workload(args.workload)
    instrumented = workload.instrumented
    world = workload.build_world(args.seed)

    native = run_native(
        instrumented.module,
        workload.build_world(args.seed),
        plan=instrumented.plan,
        profile=True,
    )
    dual = run_dual(instrumented, world, workload.config(), profile=True)

    sections = [
        ("native (instrumented)", native.stats),
        ("master", dual.master.stats),
        ("slave", dual.slave.stats),
    ]
    relevance = instrumented.plan.relevance
    pruned_by_function = {
        name: fn_rel.prunable_count
        for name, fn_rel in sorted(relevance.functions.items())
        if fn_rel.prunable_count
    }
    print(f"workload: {workload.name}  backend: {args.interp_backend}")
    print(
        f"pruned counter updates: {relevance.prunable_count}"
        + (
            " ("
            + ", ".join(f"{n}: {c}" for n, c in pruned_by_function.items())
            + ")"
            if pruned_by_function
            else ""
        )
    )
    print(render_profiles(sections, top=args.top))
    if args.json:
        payload = profiles_payload(
            sections, workload=workload.name, backend=args.interp_backend
        )
        payload["pruned_edge_updates"] = {
            "total": relevance.prunable_count,
            "functions": pruned_by_function,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


def _cmd_eval(args) -> int:
    from repro.eval.runner import run_all

    _apply_backend(args)
    _configure_cache(args)
    try:
        result = run_all(
            table4_runs=args.table4_runs,
            jobs=args.jobs,
            check_static=args.check_static,
            table5_path=args.table5_json,
            store_path=None if args.no_store else args.store_path,
        )
    except KeyboardInterrupt:
        # Graceful Ctrl-C: with a results store every finished cell was
        # persisted as it streamed back (run_cells printed the partial
        # counts), so point at the reuse path instead of a traceback.
        if args.no_store:
            print(
                "\neval: interrupted — nothing was persisted (the results "
                "store was disabled with --no-store)",
                file=sys.stderr,
            )
        else:
            print(
                "\neval: interrupted — finished cells are persisted in the "
                f"results store ({args.store_path}); rerun the same command "
                "to reuse them",
                file=sys.stderr,
            )
        return 130
    print(result.report)
    if not result.static_ok:
        print(
            "eval: soundness violations — dynamic detections outside the "
            "static may-depend set (see Table 5)",
            file=sys.stderr,
        )
        return 1
    return 0


def _analysis_targets(args) -> List[tuple]:
    """(name, source, config) triples for every requested program."""
    from repro.workloads import ALL_WORKLOADS, get_workload

    targets: List[tuple] = []
    for path in args.programs:
        targets.append((path, open(path).read(), None))
    for name in args.workload or []:
        workload = get_workload(name)
        targets.append((workload.name, workload.source, workload.config()))
    if args.all_workloads:
        for workload in ALL_WORKLOADS:
            targets.append((workload.name, workload.source, workload.config()))
    if not targets:
        raise SystemExit("analyze: give PROGRAM files, --workload NAME, or --all")
    return targets


def _cmd_analyze(args) -> int:
    from repro.analysis import analyze_source, render_analysis
    from repro.ir.printer import format_module

    _configure_cache(args)
    analyses = []
    chunks: List[str] = []
    for name, source, config in _analysis_targets(args):
        analysis = analyze_source(source, config, name)
        analyses.append(analysis)
        chunks.append(
            render_analysis(
                analysis, verbose=args.verbose, relevance=args.relevance
            )
        )
        if args.dump_ir:
            chunks.append(format_module(compile_source(source), analysis.annotate))
    print("\n".join(chunks), end="")

    if args.json:
        import json

        payload = {
            "schema": "ldx-analyze-v2",
            "programs": [
                {
                    "name": analysis.name,
                    "diagnostics": sorted(analysis.diagnostic_keys()),
                    "flagged_sinks": sorted(
                        f"{fn}:{syscall}" for fn, syscall in analysis.flagged_sinks
                    ),
                    "sink_sites": len(analysis.sink_sites),
                    "may_abort": analysis.may_abort,
                    "races": list(analysis.races),
                    "relevance": {
                        "totals": dict(
                            sorted(analysis.relevance_totals.items())
                        ),
                        "functions": [
                            {
                                "name": row[0],
                                "instructions": row[1],
                                "relevant": row[2],
                                "elidable": row[3],
                                "fusible": row[4],
                                "summarizable": row[5],
                                "regions": row[6],
                                "pruned_edge_updates": row[7],
                            }
                            for row in analysis.relevance_functions
                        ],
                    },
                }
                for analysis in analyses
            ],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    # Baseline comparison: one "<program>|<diagnostic key>" line each.
    current = sorted(
        {
            f"{analysis.name}|{key}"
            for analysis in analyses
            for key in analysis.diagnostic_keys()
        }
    )
    if args.write_baseline:
        with open(args.write_baseline, "w") as handle:
            handle.write("\n".join(current) + ("\n" if current else ""))
    status = 0
    known: set = set()
    if args.baseline:
        known = {
            line.strip()
            for line in open(args.baseline)
            if line.strip() and not line.startswith("#")
        }
        new = [key for key in current if key not in known]
        fixed = sorted(known - set(current))
        for key in fixed:
            print(f"analyze: baseline diagnostic no longer fires: {key}")
        if new:
            for key in new:
                print(f"analyze: NEW diagnostic (not in baseline): {key}")
            status = 1
    if args.strict:
        # Baselined findings are accepted debt: strict gates only on
        # warnings/errors the baseline does not already pin.
        loud = {
            f"{analysis.name}|{diagnostic.key()}"
            for analysis in analyses
            for diagnostic in analysis.diagnostics
            if diagnostic.severity in ("error", "warn")
        }
        if loud - known:
            status = 1
    return status


def _cmd_chaos(args) -> int:
    from repro.eval.robustness import chaos_ok, render_chaos, run_chaos

    _apply_backend(args)
    _configure_cache(args)
    store = _open_store(args)
    try:
        rows = run_chaos(
            names=args.workload or None,
            seeds=args.seeds,
            rate=args.fault_rate,
            watchdog_deadline=args.watchdog_deadline,
            jobs=args.jobs,
            store=store,
        )
    except KeyboardInterrupt:
        # Graceful Ctrl-C: with a results store every finished cell was
        # persisted as it streamed back, so tell the user how to pick
        # the sweep back up instead of dumping a traceback.
        if store is not None:
            print(
                "\nchaos: interrupted — finished cells are persisted in the "
                f"results store ({store.path}); rerun the same command to "
                "reuse finished cells",
                file=sys.stderr,
            )
        else:
            print(
                "\nchaos: interrupted — nothing was persisted (the results "
                "store was disabled with --no-store)",
                file=sys.stderr,
            )
        return 130
    finally:
        if store is not None:
            store.close()
    print(render_chaos(rows, args.seeds, args.fault_rate))
    return 0 if chaos_ok(rows) else 1


def _cmd_report(args) -> int:
    from repro.results import (
        ResultsStore,
        chaos_report_from_store,
        eval_report_from_store,
        trend_report,
    )

    store = ResultsStore(args.store_path)
    try:
        if args.trend is not None:
            print(trend_report(store, args.trend or None))
        elif args.chaos:
            print(chaos_report_from_store(store))
        else:
            print(eval_report_from_store(store))
    finally:
        store.close()
    return 0


def _cmd_checkpoints(args) -> int:
    from repro.checkpoint import prune_checkpoints

    max_age = None
    if args.max_age_hours is not None:
        max_age = args.max_age_hours * 3600.0
    summary = prune_checkpoints(
        args.checkpoint_dir,
        max_entries=args.max_entries,
        max_age_seconds=max_age,
    )
    print(
        f"checkpoints: scanned {summary['scanned']}, "
        f"removed {summary['removed']}, kept {summary['kept']}, "
        f"reclaimed {summary['reclaimed_bytes']} bytes"
    )
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import HttpTransport, LdxService, ServeConfig, StdioTransport

    _apply_backend(args)
    _configure_cache(args)
    service = LdxService(
        ServeConfig(
            workers=args.workers,
            queue_capacity=args.queue_capacity,
            high_watermark=args.high_watermark,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            max_factories=args.max_factories,
            checkpoint_dir=args.serve_checkpoint_dir,
        )
    )
    if args.http is not None:
        transport = HttpTransport(service, port=args.http)
    else:
        transport = StdioTransport(service)
    return transport.serve_forever()


def _cmd_serve_chaos(args) -> int:
    from repro.eval.serve_chaos import render_storm, run_storm, storm_ok

    _apply_backend(args)
    _configure_cache(args)
    outcome = run_storm(
        requests=args.requests,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        fault_rate=args.fault_rate,
        fault_seed=args.fault_seed,
        tiny_deadline_every=args.tiny_deadline_every,
        poison_every=args.poison_every,
        url=args.url,
        jobs=args.jobs,
    )
    store = _open_store(args)
    if store is not None and store.enabled:
        store.record_bench(
            "serve_chaos_storm",
            outcome.metrics(),
            context={
                "requests": args.requests,
                "workers": args.workers,
                "queue_capacity": args.queue_capacity,
                "fault_rate": args.fault_rate,
                "fault_seed": args.fault_seed,
            },
        )
        store.close()
    print(render_storm(outcome))
    return 0 if storm_ok(outcome) else 1


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="LDX causality inference (ASPLOS 2016 reproduction)"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="execute a MiniC program natively")
    _add_world_options(run_parser)
    _add_backend_option(run_parser)
    run_parser.add_argument(
        "--profile-interp",
        action="store_true",
        help="record per-opcode counts and virtual time; print a top-N "
        "report to stderr after the program's output",
    )
    run_parser.add_argument(
        "--top", type=int, default=10, metavar="N", help="profile rows to show"
    )
    run_parser.set_defaults(handler=_cmd_run)

    leak_parser = commands.add_parser(
        "leak", help="dual-execute with LDX and report causality"
    )
    _add_world_options(leak_parser)
    leak_parser.add_argument("--secret-file", action="append", metavar="PATH")
    leak_parser.add_argument("--secret-stdin", action="store_true")
    leak_parser.add_argument("--secret-endpoint", action="append", metavar="HOST:PORT")
    leak_parser.add_argument("--secret-env", action="append", metavar="NAME")
    leak_parser.add_argument("--secret-label", action="append", metavar="LABEL")
    leak_parser.add_argument(
        "--sinks", choices=("network", "file"), default="network"
    )
    # Only leak takes one fault seed; a chaos sweep runs seeds 0..N-1.
    leak_parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the deterministic fault-injection plan",
    )
    _add_fault_options(leak_parser, default_rate=0.0)
    leak_parser.set_defaults(handler=_cmd_leak)

    eval_parser = commands.add_parser("eval", help="regenerate the paper's tables")
    eval_parser.add_argument(
        "--table4-runs",
        type=_at_least(1, "run count"),
        default=100,
        metavar="N",
        help="seeded runs per concurrent workload in Table 4 (default: 100)",
    )
    eval_parser.add_argument(
        "--check-static",
        action="store_true",
        help="append Table 5 and verify every dynamic detection against the "
        "static may-depend oracle (exit 1 on any soundness violation)",
    )
    eval_parser.add_argument(
        "--table5-json",
        metavar="PATH",
        default=None,
        help="with --check-static, also write the Table 5 JSON artifact",
    )
    _add_parallel_options(eval_parser)
    _add_store_options(eval_parser)
    _add_backend_option(eval_parser)
    eval_parser.set_defaults(handler=_cmd_eval)

    report_parser = commands.add_parser(
        "report",
        help="re-render reports from the results store (nothing executes)",
    )
    report_parser.add_argument(
        "--chaos",
        action="store_true",
        help="render the latest recorded chaos sweep instead of the eval tables",
    )
    report_parser.add_argument(
        "--trend",
        nargs="?",
        const="",
        default=None,
        metavar="BENCH",
        help="render the benchmark history (optionally one bench only): "
        "the perf trajectory over recorded runs",
    )
    from repro.results import DEFAULT_STORE_PATH

    report_parser.add_argument(
        "--store-path",
        default=DEFAULT_STORE_PATH,
        metavar="PATH",
        help=f"columnar results store to read (default: {DEFAULT_STORE_PATH})",
    )
    report_parser.set_defaults(handler=_cmd_report)

    profile_parser = commands.add_parser(
        "profile",
        help="run one workload with the opcode-level interpreter profiler",
    )
    profile_parser.add_argument("workload", help="registered workload name")
    profile_parser.add_argument("--seed", type=int, default=1, help="world seed")
    profile_parser.add_argument(
        "--top", type=int, default=10, metavar="N", help="profile rows to show"
    )
    profile_parser.add_argument(
        "--json", metavar="PATH", default=None, help="write the JSON artifact"
    )
    _add_backend_option(profile_parser)
    profile_parser.set_defaults(handler=_cmd_profile)

    analyze_parser = commands.add_parser(
        "analyze",
        help="static causality analysis and lints (no execution)",
    )
    analyze_parser.add_argument(
        "programs", nargs="*", help="MiniC source files to analyze"
    )
    analyze_parser.add_argument(
        "--workload",
        action="append",
        metavar="NAME",
        help="analyze a registered workload under its config (repeatable)",
    )
    analyze_parser.add_argument(
        "--all",
        dest="all_workloads",
        action="store_true",
        help="analyze every registered workload",
    )
    analyze_parser.add_argument(
        "--dump-ir",
        action="store_true",
        help="print the IR annotated with def-use and control-dependence facts",
    )
    analyze_parser.add_argument(
        "--verbose", action="store_true", help="include notes and per-function stats"
    )
    analyze_parser.add_argument(
        "--relevance",
        action="store_true",
        help="include the per-function sink-relevance table "
        "(Algorithm 2: relevant / elidable / summarizable counts)",
    )
    analyze_parser.add_argument(
        "--json", metavar="PATH", default=None, help="write a JSON summary"
    )
    analyze_parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="known-diagnostics file; exit 1 on any diagnostic not listed",
    )
    analyze_parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="write the current diagnostic keys as a new baseline",
    )
    analyze_parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 if any warning or error fires",
    )
    _add_cache_options(analyze_parser)
    analyze_parser.set_defaults(handler=_cmd_analyze)

    chaos_parser = commands.add_parser(
        "chaos", help="sweep fault-injection seeds and check robustness invariants"
    )
    chaos_parser.add_argument(
        "--seeds",
        type=_at_least(1, "seed count"),
        default=50,
        metavar="N",
        help="number of fault seeds to sweep",
    )
    chaos_parser.add_argument(
        "--workload",
        action="append",
        metavar="NAME",
        help="restrict the sweep to a workload (repeatable; default: all)",
    )
    _add_fault_options(chaos_parser, default_rate=0.1)
    _add_parallel_options(chaos_parser)
    _add_store_options(chaos_parser)
    _add_backend_option(chaos_parser)
    chaos_parser.set_defaults(handler=_cmd_chaos)

    serve_parser = commands.add_parser(
        "serve",
        help="run the causality-as-a-service daemon (stdin JSONL or HTTP)",
    )
    serve_parser.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help="listen on 127.0.0.1:PORT instead of stdin JSONL (0 = "
        "ephemeral; the bound port is announced on stdout)",
    )
    serve_parser.add_argument(
        "--workers", type=_at_least(1, "worker count"), default=2, metavar="N",
        help="worker threads draining the admission queue",
    )
    serve_parser.add_argument(
        "--queue-capacity", type=_at_least(1, "queue capacity"), default=64,
        metavar="N",
        help="admission queue bound (beyond it requests shed as overloaded)",
    )
    serve_parser.add_argument(
        "--high-watermark", type=_at_least(1, "high watermark"), default=None,
        metavar="N",
        help="queue depth above which cold requests shed (default: 3/4 capacity)",
    )
    serve_parser.add_argument(
        "--breaker-threshold", type=_at_least(1, "breaker threshold"),
        default=3, metavar="N",
        help="consecutive engine failures before a workload's breaker opens",
    )
    serve_parser.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="open-breaker cooldown before a half-open probe is admitted",
    )
    serve_parser.add_argument(
        "--max-factories", type=_at_least(1, "factory count"), default=32,
        metavar="N",
        help="warm engine-factory LRU capacity",
    )
    serve_parser.add_argument(
        "--serve-checkpoint-dir", metavar="DIR", default=None,
        help="checkpoint degraded in-flight requests here (drain protocol)",
    )
    _add_cache_options(serve_parser)
    _add_backend_option(serve_parser)
    serve_parser.set_defaults(handler=_cmd_serve)

    serve_chaos_parser = commands.add_parser(
        "serve-chaos",
        help="storm a service with concurrent faulty requests and check "
        "the service invariants (verdicts never change; failures are "
        "always explicit)",
    )
    serve_chaos_parser.add_argument(
        "--requests", type=_at_least(1, "request count"), default=60,
        metavar="N",
        help="requests in the storm",
    )
    serve_chaos_parser.add_argument(
        "--workers", type=_at_least(1, "worker count"), default=2, metavar="N",
        help="service worker threads (in-process mode)",
    )
    serve_chaos_parser.add_argument(
        "--queue-capacity", type=_at_least(1, "queue capacity"), default=8,
        metavar="N",
        help="admission queue bound (small by default to exercise shedding)",
    )
    serve_chaos_parser.add_argument(
        "--tiny-deadline-every", type=int, default=7, metavar="N",
        help="every Nth request gets a near-zero deadline (0 disables)",
    )
    serve_chaos_parser.add_argument(
        "--poison-every", type=int, default=11, metavar="N",
        help="every Nth request is malformed/oversized (0 disables)",
    )
    serve_chaos_parser.add_argument(
        "--url", metavar="URL", default=None,
        help="storm a running daemon at URL instead of an in-process service",
    )
    serve_chaos_parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the deterministic fault-injection plan",
    )
    serve_chaos_parser.add_argument(
        "--fault-rate", type=_rate, default=0.1,
        help="transient-fault probability per eligible syscall (0 disables)",
    )
    serve_chaos_parser.add_argument(
        "--jobs", type=_at_least(1, "job count"), default=1, metavar="N",
        help="worker processes for the post-storm baseline verification "
        "(1 = serial; the outcome is identical for any value)",
    )
    _add_cache_options(serve_chaos_parser)
    _add_store_options(serve_chaos_parser)
    _add_backend_option(serve_chaos_parser)
    serve_chaos_parser.set_defaults(handler=_cmd_serve_chaos)

    checkpoints_parser = commands.add_parser(
        "checkpoints", help="manage the on-disk checkpoint store"
    )
    checkpoint_actions = checkpoints_parser.add_subparsers(
        dest="action", required=True
    )
    prune_parser = checkpoint_actions.add_parser(
        "prune",
        help="delete stale checkpoint entries (TTL and/or entry cap)",
    )
    from repro.checkpoint import DEFAULT_CHECKPOINT_DIR

    prune_parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=DEFAULT_CHECKPOINT_DIR,
        help=f"checkpoint store location (default: {DEFAULT_CHECKPOINT_DIR})",
    )
    prune_parser.add_argument(
        "--max-entries", type=_at_least(0, "entry count"), default=None,
        metavar="N", help="keep at most the newest N entries",
    )
    prune_parser.add_argument(
        "--max-age-hours", type=_at_least(0, "age", float), default=None,
        metavar="H", help="delete entries older than H hours",
    )
    prune_parser.set_defaults(handler=_cmd_checkpoints)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as failure:
        # One-line diagnosis, not a traceback: engine errors are results.
        print(f"repro: {type(failure).__name__}: {failure}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
