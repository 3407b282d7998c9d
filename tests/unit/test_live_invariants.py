"""Invariants on live paths raise explicit errors, never ``assert``s
(which ``python -O`` strips)."""

import pytest

from repro.core.engine import LdxEngine
from repro.errors import DualExecutionError
from repro.eval.executors import ExecutorError, MultiHostExecutor
from repro.eval.executors.multihost import _Node
from repro.workloads import get_workload


def test_engine_rejects_unexpected_event_kind():
    workload = get_workload("gzip")
    engine = LdxEngine(
        workload.instrumented, workload.build_world(1), workload.leak_variant()
    )
    with pytest.raises(DualExecutionError, match="unexpected event"):
        engine._on_event(engine._master, object())


class _NoPipes:
    stdin = None
    stdout = None


@pytest.mark.parametrize("proc", [None, _NoPipes()], ids=["unstarted", "no-pipes"])
def test_multihost_node_send_needs_input_pipe(proc):
    node = _Node("localhost", 0)
    node.proc = proc
    with pytest.raises(ExecutorError, match="no input pipe"):
        node.send({"op": "shutdown"})


@pytest.mark.parametrize("proc", [None, _NoPipes()], ids=["unstarted", "no-pipes"])
def test_multihost_reader_needs_output_pipe(proc):
    node = _Node("localhost", 0)
    node.proc = proc
    executor = MultiHostExecutor(["localhost"])
    with pytest.raises(ExecutorError, match="no output pipe"):
        executor._reader(node)
