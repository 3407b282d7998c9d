"""Integration tests for the parallel evaluation fan-out.

The contract under test: for any job count or chunk size the
reassembled report is byte-identical to one job — cells are
independent, workers rebuild their worlds from the cell spec, and
reassembly happens in plan order.  ``test_report_digests.py`` anchors
the one-job output itself to the committed reference digests.
"""

import pytest

from repro.eval.parallel import plan_eval_cells
from repro.eval.robustness import render_chaos, run_chaos
from repro.eval.runner import run_all

TABLE4_RUNS = 3


@pytest.fixture(scope="module")
def serial_report():
    return run_all(table4_runs=TABLE4_RUNS)


def test_run_all_jobs4_is_byte_identical_to_serial(serial_report):
    parallel_report = run_all(table4_runs=TABLE4_RUNS, jobs=4)
    assert parallel_report.report == serial_report.report


def test_cell_plan_covers_every_section():
    cells = plan_eval_cells(table4_runs=10, table4_chunk=4)
    kinds = {kind for kind, _payload in cells}
    assert kinds == {"table1", "figure6", "table2", "table3", "table4", "mutation"}
    # 10 runs in chunks of 4 -> 3 chunks per concurrent workload.
    table4 = [payload for kind, payload in cells if kind == "table4"]
    per_name = {}
    for name, start, stop in table4:
        per_name.setdefault(name, []).append((start, stop))
    for spans in per_name.values():
        assert spans == [(0, 4), (4, 8), (8, 10)]


def test_check_static_appends_table5_cells():
    plain = plan_eval_cells(table4_runs=10)
    checked = plan_eval_cells(table4_runs=10, check_static=True)
    assert checked[: len(plain)] == plain
    assert {kind for kind, _payload in checked[len(plain):]} == {"table5"}


def test_chaos_parallel_rows_match_serial():
    names = ["gzip", "apache"]
    serial_rows = run_chaos(names=names, seeds=4)
    parallel_rows = run_chaos(names=names, seeds=4, jobs=2, seed_chunk=2)
    assert render_chaos(parallel_rows, 4, 0.1) == render_chaos(serial_rows, 4, 0.1)
    for serial_row, parallel_row in zip(serial_rows, parallel_rows):
        assert serial_row.violations == parallel_row.violations
        assert serial_row.runs == parallel_row.runs
        assert serial_row.faults_injected == parallel_row.faults_injected


def test_chaos_jobs_flag_routes_through_parallel():
    # gzip has no no-leak variant: 2 variants x 3 seeds = 6 runs.
    rows = run_chaos(names=["gzip"], seeds=3, jobs=2)
    assert rows[0].runs == 2 * 3


# -- the local pool against the one-job chaos sweep -----------------------------

POOL_NAMES = ["gzip", "bzip2"]
POOL_SEEDS = 4


@pytest.fixture(scope="module")
def serial_chaos_text():
    return render_chaos(run_chaos(names=POOL_NAMES, seeds=POOL_SEEDS), POOL_SEEDS, 0.1)


def test_local_pool_executor_matches_serial(serial_chaos_text):
    rows = run_chaos(names=POOL_NAMES, seeds=POOL_SEEDS, jobs=2)
    assert render_chaos(rows, POOL_SEEDS, 0.1) == serial_chaos_text


def test_local_pool_store_streaming_matches_serial(tmp_path, serial_chaos_text):
    """With a results store each cell persists as it streams back from
    the pool; a warm re-run executes nothing and renders identically."""
    from repro.results import ResultsStore

    store = ResultsStore(str(tmp_path / "cells.sqlite"))
    try:
        rows = run_chaos(
            names=POOL_NAMES, seeds=POOL_SEEDS, jobs=2, seed_chunk=1,
            store=store,
        )
        assert render_chaos(rows, POOL_SEEDS, 0.1) == serial_chaos_text
        assert store.latest_run("chaos")["executed"] == 2 * POOL_SEEDS
        warm = run_chaos(
            names=POOL_NAMES, seeds=POOL_SEEDS, jobs=1, seed_chunk=1,
            store=store,
        )
        assert render_chaos(warm, POOL_SEEDS, 0.1) == serial_chaos_text
        assert store.latest_run("chaos")["executed"] == 0
    finally:
        store.close()
