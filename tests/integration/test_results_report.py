"""Integration tests for the results store and ``repro report``.

The contract under test: ``repro eval``/``repro chaos`` against a
store are **incremental** — a warm re-run executes zero unchanged
cells — and every store-backed rendering (warm re-run, ``repro
report``) is byte-identical to the cold run that filled the store.
Torn writes heal to a full (not wrong, not partial) re-execution.
"""

import os
import sqlite3

import pytest

from repro.cli import main
from repro.eval.robustness import render_chaos, run_chaos
from repro.eval.runner import run_all
from repro.results import (
    ResultsError,
    ResultsStore,
    chaos_report_from_store,
    eval_report_from_store,
)

TABLE4_RUNS = 2
CHAOS_NAMES = ["gzip", "tnftp"]
CHAOS_SEEDS = 6


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("results") / "results.sqlite")


@pytest.fixture(scope="module")
def cold_report(store_path):
    return run_all(table4_runs=TABLE4_RUNS, store_path=store_path).report


def test_cold_run_fills_the_store_and_records_the_run(store_path, cold_report):
    store = ResultsStore(store_path)
    run = store.latest_run("eval")
    assert run is not None
    assert run["params"]["table4_runs"] == TABLE4_RUNS
    assert run["planned"] > 0
    assert run["reused"] == 0
    store.close()
    conn = sqlite3.connect(store_path)
    (cells,) = conn.execute("SELECT COUNT(*) FROM blobs").fetchone()
    conn.close()
    assert cells >= run["planned"]


def test_warm_rerun_executes_zero_cells(store_path, cold_report):
    warm = run_all(table4_runs=TABLE4_RUNS, store_path=store_path)
    assert warm.report == cold_report
    store = ResultsStore(store_path)
    run = store.latest_run("eval")
    assert run["executed"] == 0
    assert run["reused"] == run["planned"]
    store.close()


def test_store_backed_report_matches_serial_eval(store_path, cold_report):
    # The store path must not perturb results: byte-identical to a
    # storeless serial run.
    assert run_all(table4_runs=TABLE4_RUNS).report == cold_report


def test_report_verb_is_byte_identical(store_path, cold_report, capsys):
    store = ResultsStore(store_path)
    try:
        assert eval_report_from_store(store) == cold_report
    finally:
        store.close()
    assert main(["report", "--store-path", store_path]) == 0
    assert capsys.readouterr().out == cold_report + "\n"


def test_changed_plan_executes_only_new_cells(store_path, cold_report):
    # One extra Table 4 run adds cells; everything else is reused.
    run_all(table4_runs=TABLE4_RUNS + 1, store_path=store_path)
    store = ResultsStore(store_path)
    run = store.latest_run("eval")
    assert 0 < run["executed"] < run["planned"]
    store.close()


def test_torn_store_heals_and_refills(tmp_path):
    path = str(tmp_path / "results.sqlite")
    first = run_all(table4_runs=TABLE4_RUNS, store_path=path).report
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size // 3)
    # Reporting from a healed (empty) store is a hard error, not a
    # partial or fabricated report.
    store = ResultsStore(path)
    with pytest.raises(ResultsError):
        eval_report_from_store(store)
    store.close()
    # A re-run simply refills, byte-identically.
    refilled = run_all(table4_runs=TABLE4_RUNS, store_path=path)
    assert refilled.report == first
    store = ResultsStore(path)
    assert store.latest_run("eval")["executed"] == store.latest_run("eval")["planned"]
    store.close()


def test_chaos_incremental_and_reportable(tmp_path):
    path = str(tmp_path / "results.sqlite")
    store = ResultsStore(path)
    cold = render_chaos(
        run_chaos(names=CHAOS_NAMES, seeds=CHAOS_SEEDS, store=store),
        CHAOS_SEEDS, 0.1,
    )
    warm_rows = run_chaos(names=CHAOS_NAMES, seeds=CHAOS_SEEDS, store=store)
    assert render_chaos(warm_rows, CHAOS_SEEDS, 0.1) == cold
    run = store.latest_run("chaos")
    assert run["executed"] == 0 and run["reused"] == run["planned"]
    # Storeless serial sweep agrees byte for byte.
    serial = render_chaos(
        run_chaos(names=CHAOS_NAMES, seeds=CHAOS_SEEDS), CHAOS_SEEDS, 0.1
    )
    assert serial == cold
    assert chaos_report_from_store(store) == cold
    store.close()


def test_report_from_empty_store_is_a_clear_error(tmp_path, capsys):
    path = str(tmp_path / "empty.sqlite")
    assert main(["report", "--store-path", path]) == 2
    err = capsys.readouterr().err
    assert "no eval run recorded" in err
