"""Differential suite: pruned vs unpruned instrumentation plans.

Instrumentation-time pruning drops CounterAdd actions from edges whose
counter deltas the sink-relevance pass proves can never reach an
observable (``FunctionRelevance.prunable_edges``), replacing them with
ElidedAdd ghosts that preserve the virtual clock and the edge-action
count.  The contract is byte identity: events, counter stacks, stats
and dual-execution verdicts must be indistinguishable between a pruned
and an unpruned plan — on the reference switch interpreter (this file
pins all 28 registry workloads to it) and under injected faults
(hypothesis toggle tests at the bottom).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.native import run_native
from repro.core import FaultConfig, LdxConfig, SinkSpec, SourceSpec, run_dual
from repro.instrument import instrument_module
from repro.ir import compile_source
from repro.vos.world import World
from repro.workloads import ALL_WORKLOADS

from tests.property.test_backend_differential import (
    _dual_observables,
    _native_observables,
)
from tests.property.test_counter_properties import random_programs
from tests.property.test_fault_tolerance import make_world, syscall_programs


def _plans(source):
    """(full, pruned) instrumentation artifacts for one source."""
    full = instrument_module(compile_source(source), prune=False)
    pruned = instrument_module(compile_source(source), prune=True)
    return full, pruned


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_pruned_plan_identical_on_switch(workload):
    """Native switch runs observe nothing of the pruning."""
    full, pruned = _plans(workload.source)
    observed = []
    for artifact in (full, pruned):
        result = run_native(
            artifact.module,
            workload.build_world(1),
            plan=artifact.plan,
            backend="switch",
        )
        observed.append(_native_observables(result))
    assert observed[0] == observed[1], (
        f"{workload.name}: pruning changed switch-backend observables"
    )


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_pruned_plan_identical_verdicts_on_switch(workload):
    """Dual-execution verdicts match between pruned and unpruned plans."""
    full, pruned = _plans(workload.source)
    config = workload.config()
    observed = []
    for artifact in (full, pruned):
        result = run_dual(
            artifact, workload.build_world(1), config, backend="switch"
        )
        observed.append(_dual_observables(result))
    assert observed[0] == observed[1], (
        f"{workload.name}: pruning changed the dual-execution verdict"
    )


def test_registry_has_pruned_sites():
    """The suite exercises real pruning, not a vacuous no-op: at least
    one registry workload must carry prunable counter updates."""
    total = 0
    for workload in ALL_WORKLOADS:
        _full, pruned = _plans(workload.source)
        total += pruned.plan.pruned_site_count
    assert total > 0


@given(random_programs())
@settings(max_examples=25, deadline=None)
def test_prune_toggle_identical_native(source):
    full, pruned = _plans(source)
    results = []
    for artifact in (full, pruned):
        for backend in ("switch", "threaded"):
            result = run_native(
                artifact.module,
                World(seed=1),
                plan=artifact.plan,
                backend=backend,
            )
            results.append(_native_observables(result))
    assert all(obs == results[0] for obs in results[1:])


@given(syscall_programs(), st.integers(0, 10_000), st.floats(0.0, 0.5, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_prune_toggle_identical_faulty_duals(source, fault_seed, rate):
    # Pruned plans under transient faults: fault injection draws from
    # the same RNG stream either way, so verdicts, degradation counts
    # and every stat must agree exactly.
    full, pruned = _plans(source)
    faults = FaultConfig(seed=fault_seed, rate=rate)
    observed = []
    injected = []
    for artifact in (full, pruned):
        for backend in ("switch", "threaded"):
            config = LdxConfig(
                sources=SourceSpec(), sinks=SinkSpec.network_out()
            )
            result = run_dual(
                artifact, make_world(), config, faults=faults, backend=backend
            )
            observed.append(_dual_observables(result))
            injected.append(result.degradation.faults_injected)
    assert all(count == injected[0] for count in injected[1:])
    assert all(obs == observed[0] for obs in observed[1:])
