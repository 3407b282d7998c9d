"""Unit tests for the cell-executor interface and its local backends.

Covered here: serial streaming (the reference implementation of the
``submit/stream/close`` contract) and the one executor choice that
``run_cells`` makes from ``--jobs``.
"""

import pytest

from repro.eval import parallel
from repro.eval.executors import LocalPoolExecutor, SerialExecutor


# -- SerialExecutor ------------------------------------------------------------


@pytest.fixture
def square_cells(monkeypatch):
    """Register a trivial in-process cell kind so executor mechanics can
    be tested without running real workloads."""
    monkeypatch.setitem(parallel._CELL_RUNNERS, "square", lambda n: n ** 2)
    return [("square", (n,)) for n in range(7)]


def test_serial_executor_streams_in_plan_order(square_cells):
    with SerialExecutor() as executor:
        executor.submit(square_cells)
        pairs = list(executor.stream())
    assert pairs == [(n, n * n) for n in range(7)]


def test_serial_executor_run_reassembles(square_cells, capsys):
    results, stats = parallel.run_cells(square_cells, jobs=1)
    assert results == [n * n for n in range(7)]
    # No store: every cell is a miss, and there are no store counts to
    # report on stderr.
    assert stats == {"planned": 7, "executed": 7, "reused": 0}
    assert "results store" not in capsys.readouterr().err


def test_serial_executor_serves_multiple_rounds(square_cells):
    with SerialExecutor() as executor:
        executor.submit(square_cells[:3])
        assert list(executor.stream()) == [(0, 0), (1, 1), (2, 4)]
        executor.submit(square_cells[3:])
        assert list(executor.stream()) == [(0, 9), (1, 16), (2, 25), (3, 36)]


def test_serial_executor_close_mid_round_is_safe(square_cells):
    executor = SerialExecutor()
    executor.submit(square_cells)
    next(executor.stream())
    executor.close()
    executor.close()  # idempotent


# -- the executor choice -------------------------------------------------------


def test_one_job_or_one_cell_runs_serially(square_cells):
    assert isinstance(
        parallel._executor_for(square_cells, 1, None, None), SerialExecutor
    )
    assert isinstance(
        parallel._executor_for(square_cells[:1], 4, None, None), SerialExecutor
    )


def test_several_jobs_use_a_pool_no_wider_than_the_round(square_cells):
    executor = parallel._executor_for(square_cells[:3], 8, None, None)
    try:
        assert isinstance(executor, LocalPoolExecutor)
        assert executor.jobs == 3
    finally:
        executor.close()  # pool is lazy: close before it ever spawned

