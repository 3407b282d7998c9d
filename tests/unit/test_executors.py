"""Unit tests for the local cell executors.

Covered here: serial streaming (the reference implementation of the
``stream/close`` contract) and the one executor choice that
``run_cells`` makes from ``--jobs``.
"""

import inspect

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
    executor = SerialExecutor(square_cells)
    try:
        pairs = list(executor.stream())
    finally:
        executor.close()
    assert pairs == [(n, n * n) for n in range(7)]
    # The end-to-end tracer times each step of the stream; it must stay
    # a generator.
    assert inspect.isgeneratorfunction(SerialExecutor.stream)


def test_serial_executor_run_reassembles(square_cells, capsys):
    results, stats = parallel.run_cells(square_cells, jobs=1)
    assert results == [n * n for n in range(7)]
    # No store: every cell is a miss, and there are no store counts to
    # report on stderr.
    assert stats == {"planned": 7, "executed": 7, "reused": 0}
    assert "results store" not in capsys.readouterr().err


# -- the executor choice -------------------------------------------------------


def test_one_job_or_one_cell_runs_serially(square_cells):
    assert isinstance(parallel._executor_for(square_cells, 1), SerialExecutor)
    assert isinstance(
        parallel._executor_for(square_cells[:1], 4), SerialExecutor
    )


def test_several_jobs_use_a_pool_no_wider_than_the_round(square_cells):
    executor = parallel._executor_for(square_cells[:3], 8)
    try:
        assert isinstance(executor, LocalPoolExecutor)
        assert executor.jobs == 3
    finally:
        executor.close()  # pool is lazy: close before it ever spawned
