"""Integration tests: world checkpointing and chaos-sweep resume.

The two acceptance invariants:

1. snapshot → restore → continue is invisible — a dual run on a world
   restored from a snapshot produces a result byte-identical to a run
   on the world the snapshot was taken from, for every workload in the
   registry;
2. an interrupted ``repro chaos`` sweep re-run against the same results
   store renders a report byte-identical to an uninterrupted sweep.
"""

import pytest

from repro.checkpoint import CheckpointStore
from repro.core import run_dual
from repro.core.supervisor import Checkpointer
from repro.eval import robustness
from repro.eval.robustness import render_chaos, run_chaos
from repro.results import ResultsStore
from repro.workloads import ALL_WORKLOADS, get_workload

WORKLOAD_NAMES = [w.name for w in ALL_WORKLOADS]


def _result_fingerprint(result):
    """Everything observable about a DualResult, as comparable bytes."""
    return (
        result.report.summary(),
        result.degradation.summary(),
        [repr(d) for d in result.report.detections],
        result.master.kernel.stdout,
        result.slave.kernel.stdout,
        result.master.kernel.output_log,
        result.slave.kernel.output_log,
        result.master.kernel.world.fs.paths(),
        result.slave.kernel.world.fs.paths(),
        [repr(d) for d in result.fs_divergences()],
    )


# -- snapshot → restore → continue, every workload -----------------------------


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_restored_world_reproduces_dual_result(name):
    workload = get_workload(name)
    config = workload.leak_variant()

    # The uninterrupted reference run.
    reference = run_dual(workload.instrumented, workload.build_world(1), config)

    # Checkpoint trip: snapshot a fresh world, restore onto another
    # fresh build (the registry re-registers endpoint scripts), run.
    snapshot = workload.build_world(1).snapshot()
    restored = workload.build_world(1).restore(snapshot)
    resumed = run_dual(workload.instrumented, restored, config)

    assert _result_fingerprint(resumed) == _result_fingerprint(reference)


def test_restore_after_mutation_continues_identically():
    """A snapshot taken mid-mutation restores the *mutated* state: two
    worlds that diverge before the snapshot agree after restoring it."""
    workload = get_workload("gzip")

    mutated = workload.build_world(1)
    mutated.fs.add_file("/chk/marker", "pre-checkpoint write")
    mutated.clock.read()
    mutated.rng.next_int(100)
    snapshot = mutated.snapshot()

    restored = workload.build_world(1).restore(snapshot)
    reference = run_dual(workload.instrumented, mutated, workload.leak_variant())
    resumed = run_dual(workload.instrumented, restored, workload.leak_variant())
    assert _result_fingerprint(resumed) == _result_fingerprint(reference)
    assert resumed.slave.kernel.world.fs.read_file("/chk/marker") is not None


# -- the supervisor checkpoints the slave world --------------------------------


def test_engine_failure_checkpoints_slave_world(tmp_path):
    workload = get_workload("gzip")
    store = CheckpointStore(str(tmp_path))
    checkpointer = Checkpointer(store, label="gzip", seed=1)
    from repro.core.engine import LdxEngine

    engine = LdxEngine(
        workload.instrumented,
        workload.build_world(1),
        workload.leak_variant(),
        checkpointer=checkpointer,
    )

    def boom():
        raise RuntimeError("synthetic wreck")

    engine._drive = boom
    result = engine.run()
    assert result.degradation.engine_failures
    (rung, key) = result.degradation.checkpoints[0]
    assert rung.startswith("engine-failure#")
    # The persisted snapshot restores onto a fresh registry world.
    restored = workload.build_world(1).restore(store.load(key))
    assert restored.fs.paths()
    assert "checkpoints" in result.degradation.summary()


def test_clean_run_takes_no_checkpoints(tmp_path):
    workload = get_workload("gzip")
    checkpointer = Checkpointer(CheckpointStore(str(tmp_path)))
    result = run_dual(
        workload.instrumented,
        workload.build_world(1),
        workload.leak_variant(),
        checkpointer=checkpointer,
    )
    assert result.degradation.checkpoints == []
    # Absent checkpoints leave the summary byte-identical to pre-
    # checkpoint versions.
    assert "checkpoints" not in result.degradation.summary()


# -- chaos resume through the results store -----------------------------------

CHAOS_NAMES = ["gzip", "mcf"]
CHAOS_SEEDS = 4  # spans a chunk boundary (CHAOS_CHUNK = 5 → 1 cell each)
CHAOS_RATE = 0.2


def _render(rows):
    return render_chaos(rows, CHAOS_SEEDS, CHAOS_RATE)


def _sweep(names, store):
    return run_chaos(names, seeds=CHAOS_SEEDS, rate=CHAOS_RATE, store=store)


def test_resumed_chaos_report_is_byte_identical(tmp_path):
    # The --no-store reference: the plain serial sweep.
    reference = _render(run_chaos(CHAOS_NAMES, seeds=CHAOS_SEEDS, rate=CHAOS_RATE))

    store = ResultsStore(str(tmp_path / "results.sqlite"))
    try:
        # "Interrupted" sweep: only the first workload's cells complete.
        assert len(_sweep(CHAOS_NAMES[:1], store)) == 1

        # Re-run: the finished cells come from the store, the rest run.
        assert _render(_sweep(CHAOS_NAMES, store)) == reference
        assert store.latest_run("chaos")["reused"] == 1

        # A second re-run serves everything from the store — still
        # byte-identical (no double-merge of stored rows).
        assert _render(_sweep(CHAOS_NAMES, store)) == reference
        assert store.latest_run("chaos")["executed"] == 0
    finally:
        store.close()


def test_resume_skips_completed_cells(tmp_path, monkeypatch):
    """Completed cells are loaded, not re-run: a poisoned
    ``chaos_workload`` proves the re-run never re-executes them."""
    store = ResultsStore(str(tmp_path / "results.sqlite"))
    try:
        _sweep(["gzip"], store)
        real_chaos_workload = robustness.chaos_workload

        def poisoned(name, *args, **kwargs):
            if name == "gzip":
                raise AssertionError("completed cell was re-run")
            return real_chaos_workload(name, *args, **kwargs)

        monkeypatch.setattr(robustness, "chaos_workload", poisoned)
        rows = _sweep(CHAOS_NAMES, store)
    finally:
        store.close()
    assert [row.name for row in rows] == CHAOS_NAMES
    assert rows[0].runs > 0
