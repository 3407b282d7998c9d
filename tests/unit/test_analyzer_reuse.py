"""The analyzer reuses the instrumented artifact a run of the same
program uses: one lowering and one instrumentation per program, the
same summary as a from-scratch analysis, and no mutation of the shared
module."""

from collections import Counter

import pytest

from repro import cache
from repro.analysis import analyze_module, analyze_source
from repro.analysis.analyzer import ProgramAnalysis, _seeds_for
from repro.instrument import relevance_enabled, set_relevance_enabled
from repro.ir import compile_source
from repro.ir.printer import format_module
from repro.workloads import ALL_WORKLOADS, get_workload


@pytest.fixture
def cold_cache():
    cache.configure()
    yield
    cache.configure()


@pytest.fixture(params=[True, False], ids=["relevance", "no-relevance"])
def relevance_mode(request):
    original = relevance_enabled()
    set_relevance_enabled(request.param)
    yield request.param
    set_relevance_enabled(original)


def _count_calls(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def test_analyze_source_lowers_and_instruments_once(cold_cache, monkeypatch):
    import repro.analysis.relevance as relevance_mod
    import repro.ir.lowering as lowering

    counts = Counter()
    # Every lowering goes through lower_program and every
    # instrumentation through compute_relevance.
    _count_calls(monkeypatch, lowering, "lower_program", counts)
    _count_calls(monkeypatch, relevance_mod, "compute_relevance", counts)
    workload = get_workload("gzip")
    analyze_source(workload.source, workload.config(), workload.name)
    analyze_source(workload.source, None, workload.name)
    artifact = cache.instrumented_for(workload.source)
    assert counts == {"lower_program": 1, "compute_relevance": 1}
    # The engine's artifact is the very one the analysis read.
    assert cache.instrumented_for(workload.source) is artifact


def _fields(analysis: ProgramAnalysis):
    values = {slot: getattr(analysis, slot) for slot in ProgramAnalysis.__slots__}
    values["diagnostics"] = [
        tuple(getattr(d, slot) for slot in type(d).__slots__)
        for d in analysis.diagnostics
    ]
    return values


def test_reused_artifact_analysis_equals_fresh_analysis(cold_cache, relevance_mode):
    for workload in ALL_WORKLOADS:
        config = workload.config()
        reused = analyze_source(workload.source, config, workload.name)
        seeds, _fingerprint = _seeds_for(workload.source, config)
        fresh = analyze_module(compile_source(workload.source), seeds, workload.name)
        assert _fields(reused) == _fields(fresh), workload.name


def test_analysis_leaves_shared_module_unchanged(cold_cache):
    for workload in ALL_WORKLOADS:
        artifact = cache.instrumented_for(workload.source)
        before = format_module(artifact.module)
        analyze_source(workload.source, workload.config(), workload.name)
        assert cache.instrumented_for(workload.source) is artifact
        assert format_module(artifact.module) == before, workload.name
