"""Per-program static analysis summaries — the cacheable unit behind
``repro analyze`` and the ``--check-static`` soundness oracle.

:func:`analyze_module` runs every pass (dataflow lints, locksets,
interprocedural taint) over one compiled module and condenses the
results into a :class:`ProgramAnalysis` — a small, picklable value with
no references to IR objects, so it content-addresses cleanly through
:func:`repro.cache.analysis_for` (a pure function of source text plus
the seed fingerprint).  The summary keeps:

* diagnostics (for the lint report and the CI baseline comparison);
* the static may-depend relation (for the engine oracle and Table 5);
* per-instruction annotation strings (def-use chains and direct
  control dependences) that ``repro analyze --dump-ir`` feeds to the IR
  printer's annotate hook.

:func:`render_analysis` produces the deterministic text report — byte
identical between a cold and a warm cache run, which CI asserts.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.controldep import control_dependence
from repro.analysis.dataflow import (
    GLOBAL_DEF,
    PARAM_DEF,
    UNINIT_DEF,
    ReachingDefinitions,
    solve,
)
from repro.analysis.lint import Diagnostic, lint_module
from repro.analysis.lockset import analyze_locksets
from repro.analysis.relevance import ModuleRelevance
from repro.analysis.taint import StaticSeeds, static_causality
from repro.cfg.callgraph import CallGraph
from repro.ir.function import IRModule

# Seeds used when no LdxConfig is supplied (plain ``repro analyze`` on
# an arbitrary program): every input kind is a source, every output
# kind plus the explicit annotations are sinks.
DEFAULT_SEEDS = StaticSeeds(
    source_syscalls=frozenset({"read", "read_line", "recv", "getenv", "source_read"}),
    sink_syscalls=frozenset({"write", "print", "send", "sink_observe"}),
)


class ProgramAnalysis:
    """Everything the static passes learned about one program."""

    __slots__ = (
        "name",
        "seeds_fingerprint",
        "function_summaries",
        "diagnostics",
        "thread_entries",
        "races",
        "racy_globals",
        "shared_globals",
        "flagged_sinks",
        "sink_sites",
        "tainted_globals",
        "tainted_channels",
        "skip_functions",
        "may_abort",
        "abort_reasons",
        "annotations",
        "relevance_functions",
        "relevance_totals",
        "relevant_syscall_sites",
    )

    def __init__(
        self,
        name: str,
        seeds_fingerprint: str,
        function_summaries: List[Tuple[str, int, int]],
        diagnostics: List[Diagnostic],
        thread_entries: Dict[str, int],
        races: List[str],
        racy_globals: FrozenSet[str],
        shared_globals: FrozenSet[str],
        flagged_sinks: FrozenSet[Tuple[str, str]],
        sink_sites: FrozenSet[Tuple[str, str]],
        tainted_globals: FrozenSet[str],
        tainted_channels: FrozenSet[str],
        skip_functions: FrozenSet[str],
        may_abort: bool,
        abort_reasons: Tuple[str, ...],
        annotations: Dict[str, Dict[int, str]],
        relevance_functions: List[Tuple[str, int, int, int, int, int, int, int]],
        relevance_totals: Dict[str, int],
        relevant_syscall_sites: FrozenSet[Tuple[str, str]],
    ) -> None:
        self.name = name
        self.seeds_fingerprint = seeds_fingerprint
        self.function_summaries = function_summaries
        self.diagnostics = diagnostics
        self.thread_entries = thread_entries
        self.races = races
        self.racy_globals = racy_globals
        self.shared_globals = shared_globals
        self.flagged_sinks = flagged_sinks
        self.sink_sites = sink_sites
        self.tainted_globals = tainted_globals
        self.tainted_channels = tainted_channels
        self.skip_functions = skip_functions
        self.may_abort = may_abort
        self.abort_reasons = abort_reasons
        self.annotations = annotations
        # Sink-relevance classification (analysis/relevance.py): one
        # (name, total, relevant, elidable, fusible, summarizable,
        # regions, prunable) row per function, the module-wide totals,
        # and the Syscall sites classified sink-relevant.
        self.relevance_functions = relevance_functions
        self.relevance_totals = relevance_totals
        self.relevant_syscall_sites = relevant_syscall_sites

    # -- oracle interface (duck-typed with StaticCausality) --------------------

    def relevant_site(self, function: str, syscall: str) -> bool:
        """Is the Syscall site *syscall* in *function* sink-relevant?

        Relevance roots at every syscall site, so a dynamic detection
        at a site the classification elided is a soundness violation.
        """
        return (function, syscall) in self.relevant_syscall_sites

    def may_depend(self, function: str, syscall: str) -> bool:
        """May the configured sources influence sink *syscall* in
        *function*?  Every dynamic LDX detection must satisfy this."""
        if self.may_abort:
            return True
        return (function, syscall) in self.flagged_sinks

    def causality_possible(self) -> bool:
        return self.may_abort or bool(self.flagged_sinks)

    # -- reporting -------------------------------------------------------------

    def diagnostic_keys(self) -> FrozenSet[str]:
        return frozenset(d.key() for d in self.diagnostics)

    def annotate(self, function_name: str, index: int, instr) -> Optional[str]:
        """Printer hook (see :mod:`repro.ir.printer`)."""
        return self.annotations.get(function_name, {}).get(index)


def _def_site_label(site: int) -> str:
    if site == PARAM_DEF:
        return "param"
    if site == GLOBAL_DEF:
        return "glob"
    if site == UNINIT_DEF:
        return "uninit"
    return f"@{site}"


def _function_annotations(function, global_names) -> Dict[int, str]:
    """Def-use + control-dependence comments, keyed by index."""
    problem = ReachingDefinitions(function, global_names)
    result = solve(problem, function)
    cdep = control_dependence(function)
    notes: Dict[int, str] = {}
    for index, instr in enumerate(function.instrs):
        parts: List[str] = []
        for name in instr.uses():
            sites = sorted(problem.defs_reaching(result, index, name))
            if sites:
                parts.append(f"{name}<-" + ",".join(_def_site_label(s) for s in sites))
        branches = sorted(cdep.get(index, ()))
        if branches:
            parts.append("cdep=" + ",".join(f"@{b}" for b in branches))
        if parts:
            notes[index] = " ".join(parts)
    return notes


def analyze_module(
    module: IRModule,
    seeds: Optional[StaticSeeds] = None,
    name: str = "<program>",
    relevance: Optional[ModuleRelevance] = None,
) -> ProgramAnalysis:
    """Run every static pass over *module* and summarize.

    *relevance* is the sink-relevance classification riding *module*'s
    instrumentation plan; None plans the module here.  No pass mutates
    *module*, so it may be the artifact the engine runs.
    """
    callgraph = CallGraph(module)
    locksets = analyze_locksets(module, callgraph)
    if seeds is None:
        seeds = StaticSeeds(
            DEFAULT_SEEDS.source_syscalls,
            DEFAULT_SEEDS.sink_syscalls,
            locksets.racy_globals,
            locksets.shared_globals,
        )
    else:
        seeds = StaticSeeds(
            seeds.source_syscalls,
            seeds.sink_syscalls,
            seeds.racy_globals | locksets.racy_globals,
            seeds.shared_globals | locksets.shared_globals,
        )
    causality = static_causality(module, seeds, callgraph)
    diagnostics = lint_module(module, callgraph, locksets)
    global_names = frozenset(module.global_values)

    if relevance is None:
        # Plan the module the same way a run would.  Imported lazily:
        # the pipeline consumes this package.
        from repro.instrument.pipeline import instrument_module

        relevance = instrument_module(module).plan.relevance
    relevance_functions: List[Tuple[str, int, int, int, int, int, int, int]] = []
    for fn_name in sorted(relevance.functions):
        fn_rel = relevance.functions[fn_name]
        relevance_functions.append(
            (
                fn_name,
                fn_rel.total,
                len(fn_rel.relevant),
                len(fn_rel.elidable),
                len(fn_rel.fusible),
                fn_rel.summarizable_instructions,
                len(fn_rel.regions),
                fn_rel.prunable_count,
            )
        )
    relevance_totals = {
        "instructions": relevance.total_instructions,
        "relevant": relevance.relevant_count,
        "elidable": relevance.elidable_count,
        "fusible": relevance.fusible_count,
        "summarizable": relevance.summarizable_count,
        "regions": relevance.region_count,
        "prunable_counter_updates": relevance.prunable_count,
    }

    summaries: List[Tuple[str, int, int]] = []
    annotations: Dict[str, Dict[int, str]] = {}
    for fn_name in sorted(module.functions):
        function = module.functions[fn_name]
        summaries.append(
            (fn_name, len(function.instrs), len(function.syscall_indices()))
        )
        notes = _function_annotations(function, global_names)
        if notes:
            annotations[fn_name] = notes

    return ProgramAnalysis(
        name=name,
        seeds_fingerprint=seeds.fingerprint(),
        function_summaries=summaries,
        diagnostics=diagnostics,
        thread_entries=dict(sorted(locksets.thread_entries.items())),
        races=[race.describe() for race in locksets.races],
        racy_globals=locksets.racy_globals,
        shared_globals=locksets.shared_globals,
        flagged_sinks=causality.flagged,
        sink_sites=causality.sink_sites,
        tainted_globals=causality.tainted_globals,
        tainted_channels=causality.tainted_channels,
        skip_functions=causality.skip_functions,
        may_abort=causality.may_abort,
        abort_reasons=causality.abort_reasons,
        annotations=annotations,
        relevance_functions=relevance_functions,
        relevance_totals=relevance_totals,
        relevant_syscall_sites=relevance.relevant_syscalls,
    )


def _seeds_for(source: str, config) -> Tuple[Optional[StaticSeeds], str]:
    """Seeds (sans lockset enrichment) and their cache fingerprint."""
    if config is None:
        return None, DEFAULT_SEEDS.fingerprint()
    seeds = StaticSeeds.from_config(config)
    return seeds, seeds.fingerprint()


def analyze_source(
    source: str, config=None, name: str = "<program>"
) -> ProgramAnalysis:
    """Analyze MiniC *source*, via the content-addressed cache.

    The cached value is a pure function of (source, seed fingerprint);
    *name* is presentation-only, so it is re-stamped on hits rather
    than keyed.  A miss analyzes the instrumented artifact a run of
    *source* uses (module and plan relevance), so each program is
    lowered and instrumented once per process, not once per consumer.
    """
    from repro import cache

    seeds, fingerprint = _seeds_for(source, config)

    def build() -> ProgramAnalysis:
        artifact = cache.instrumented_for(source)
        return analyze_module(artifact.module, seeds, name, artifact.plan.relevance)

    analysis = cache.analysis_for(source, fingerprint, build)
    if analysis.name != name:
        analysis.name = name
    return analysis


def analyze_workload(workload) -> ProgramAnalysis:
    """Analyze one registered workload under its default config."""
    return analyze_source(workload.source, workload.config(), workload.name)


def render_analysis(
    analysis: ProgramAnalysis, verbose: bool = False, relevance: bool = False
) -> str:
    """Deterministic text report (cold and warm cache runs must match
    byte for byte).  *relevance* adds the per-function sink-relevance
    table (``repro analyze --relevance``)."""
    lines: List[str] = [f"== analyze {analysis.name} =="]
    n_instrs = sum(count for _n, count, _s in analysis.function_summaries)
    n_syscalls = sum(count for _n, _i, count in analysis.function_summaries)
    lines.append(
        f"functions: {len(analysis.function_summaries)}"
        f"  instructions: {n_instrs}  syscall sites: {n_syscalls}"
    )
    if verbose:
        for fn_name, instrs, syscalls in analysis.function_summaries:
            lines.append(f"  fn {fn_name}: {instrs} instrs, {syscalls} syscalls")

    totals = analysis.relevance_totals
    if totals:
        total = totals["instructions"] or 1
        lines.append(
            f"sink relevance: {totals['relevant']}/{totals['instructions']}"
            f" instruction(s) sink-relevant, {totals['elidable']} elidable"
            f" ({100.0 * totals['elidable'] / total:.1f}%),"
            f" {totals['summarizable']} summarizable"
            f" in {totals['regions']} region(s),"
            f" {totals.get('prunable_counter_updates', 0)} counter update(s)"
            f" pruned at instrumentation"
        )
    if relevance:
        for row in analysis.relevance_functions:
            fn_name, fn_total, n_rel, n_elid, n_fus, n_sum, n_reg, n_pruned = row
            lines.append(
                f"  fn {fn_name}: {fn_total} instrs,"
                f" {n_rel} relevant, {n_elid} elidable,"
                f" {n_fus} fusible, {n_sum} summarizable"
                f" in {n_reg} region(s), {n_pruned} pruned edge update(s)"
            )

    if analysis.thread_entries:
        entries = ", ".join(
            f"{name}(x{count})" for name, count in sorted(analysis.thread_entries.items())
        )
        lines.append(f"threads: {entries}")
        if analysis.racy_globals:
            lines.append("racy globals: " + ", ".join(sorted(analysis.racy_globals)))

    flagged = sorted(analysis.flagged_sinks)
    total_sites = len(analysis.sink_sites)
    lines.append(
        f"static causality: {len(flagged)}/{total_sites} sink site(s) may depend"
        f" on sources"
        + ("  [may-abort: every sink flagged]" if analysis.may_abort else "")
    )
    for fn_name, syscall in flagged:
        lines.append(f"  sink {fn_name}:{syscall}")
    for reason in analysis.abort_reasons:
        lines.append(f"  may-abort: {reason}")
    if analysis.tainted_channels:
        lines.append(
            "tainted channels: " + ", ".join(sorted(analysis.tainted_channels))
        )
    if analysis.tainted_globals:
        lines.append(
            "tainted globals: " + ", ".join(sorted(analysis.tainted_globals))
        )
    if analysis.skip_functions:
        lines.append(
            "may-not-execute: " + ", ".join(sorted(analysis.skip_functions))
        )

    if analysis.diagnostics:
        counts = {"error": 0, "warn": 0, "note": 0}
        for diagnostic in analysis.diagnostics:
            counts[diagnostic.severity] = counts.get(diagnostic.severity, 0) + 1
        lines.append(
            f"diagnostics: {counts.get('error', 0)} error(s),"
            f" {counts.get('warn', 0)} warning(s), {counts.get('note', 0)} note(s)"
        )
        for diagnostic in analysis.diagnostics:
            if diagnostic.severity == "note" and not verbose:
                continue
            lines.append("  " + diagnostic.render())
    else:
        lines.append("diagnostics: clean")
    return "\n".join(lines) + "\n"
