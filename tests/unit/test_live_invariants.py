"""Invariants on live paths raise explicit errors, never ``assert``s
(which ``python -O`` strips)."""

import pytest

from repro.core.engine import LdxEngine
from repro.errors import DualExecutionError
from repro.workloads import get_workload


def test_engine_rejects_unexpected_event_kind():
    workload = get_workload("gzip")
    engine = LdxEngine(
        workload.instrumented, workload.build_world(1), workload.leak_variant()
    )
    with pytest.raises(DualExecutionError, match="unexpected event"):
        engine._on_event(engine._master, object())
