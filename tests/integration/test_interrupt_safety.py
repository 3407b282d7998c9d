"""Interrupt safety of store-backed runs, end to end.

The contract under test: every cell that finished before a SIGINT is
already persisted in the results store (run_cells streams results and
persists each one as it arrives), so the re-run reuses all of them and
the final report is byte-identical to an uninterrupted run.

The run under test is a real ``repro eval`` subprocess — the signal
lands on the CLI exactly as a user's Ctrl-C would.
"""

import os
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

TABLE4_RUNS = 120  # enough cells that a mid-run SIGINT leaves work undone
START_TIMEOUT = 60.0  # seconds to wait for the first persisted cells
MIN_CELLS_BEFORE_SIGINT = 5


def _eval_command(store_path):
    return [
        sys.executable, "-m", "repro", "eval",
        "--table4-runs", str(TABLE4_RUNS),
        "--jobs", "2",
        "--store-path", store_path,
    ]


def _env():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not existing else SRC + os.pathsep + existing
    return env


def _cell_count(store_path):
    """Count persisted cells without disturbing the writer."""
    try:
        conn = sqlite3.connect(f"file:{store_path}?mode=ro", uri=True)
    except sqlite3.OperationalError:
        return 0
    try:
        return conn.execute("SELECT COUNT(*) FROM blobs").fetchone()[0]
    except sqlite3.OperationalError:
        return 0  # schema not committed yet
    finally:
        conn.close()


def _run(store_path, cwd):
    return subprocess.run(
        _eval_command(store_path), cwd=cwd, env=_env(),
        capture_output=True, text=True, timeout=300,
    )


def test_sigint_mid_eval_persists_cells_and_resumes_byte_identical(tmp_path):
    interrupted_store = str(tmp_path / "interrupted.sqlite")

    # -- interrupt a run once a few cells are persisted -----------------------
    proc = subprocess.Popen(
        _eval_command(interrupted_store), cwd=str(tmp_path), env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + START_TIMEOUT
    while time.monotonic() < deadline:
        if _cell_count(interrupted_store) >= MIN_CELLS_BEFORE_SIGINT:
            break
        if proc.poll() is not None:
            pytest.fail(
                "eval finished before the interrupt could land; raise "
                f"TABLE4_RUNS (stderr: {proc.stderr.read()[-500:]})"
            )
        time.sleep(0.05)
    else:
        proc.kill()
        pytest.fail("no cells persisted within the startup timeout")
    proc.send_signal(signal.SIGINT)
    stdout, stderr = proc.communicate(timeout=60)

    assert proc.returncode == 130, stderr[-500:]
    assert "interrupted" in stderr
    # run_cells printed the partial accounting before re-raising.
    assert "cells persisted" in stderr
    persisted = _cell_count(interrupted_store)
    assert persisted >= MIN_CELLS_BEFORE_SIGINT

    # -- the re-run reuses every persisted cell -------------------------------
    resumed = _run(interrupted_store, str(tmp_path))
    assert resumed.returncode == 0, resumed.stderr[-500:]
    counts = [
        line for line in resumed.stderr.splitlines()
        if "eval: results store:" in line
    ]
    assert counts, resumed.stderr[-500:]
    # "eval: results store: N executed, M reused of P cells (path)"
    fields = counts[0].split()
    executed, reused, planned = (
        int(fields[3]), int(fields[5]), int(fields[8])
    )
    assert executed + reused == planned
    assert reused >= persisted  # every interrupted-run cell was reused
    assert executed < planned  # ... so not everything re-ran

    # -- byte-identical to an uninterrupted fresh run -------------------------
    fresh = _run(str(tmp_path / "fresh.sqlite"), str(tmp_path))
    assert fresh.returncode == 0, fresh.stderr[-500:]
    assert resumed.stdout == fresh.stdout
