"""Integration tests: chaos-sweep resume.

The acceptance invariant: an interrupted ``repro chaos`` sweep re-run
against the same results store renders a report byte-identical to an
uninterrupted sweep.
"""

from repro.eval import robustness
from repro.eval.robustness import render_chaos, run_chaos
from repro.results import ResultsStore

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
