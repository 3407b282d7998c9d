"""Correctness checks: report digests and serve verdicts.

Batch workloads print a report whose sha256 must equal a reference in
``references.json``, generated by the independent configuration
(``--interp-backend switch --no-relevance``, no cache, no store).

Every ``ok`` verdict the daemon returns must equal, byte for byte, the
canonical verdict (``repro.serve.api.verdict_payload``) of a batch
``run_dual`` of the same request shape, run in that same independent
configuration in the benchmark's own process.  Anything else a request gets —
no reply, ``overloaded``, ``error`` — is a failure.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, List, Optional, Tuple

from serveload import COLD_SINKS, COLD_SOURCES, COLD_WORLD


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_digest(label: str, output: bytes, reference: str) -> Optional[str]:
    """None when *output* hashes to *reference*, else the problem."""
    actual = sha256(output)
    if actual == reference:
        return None
    return f"{label}: report sha256 {actual[:16]} differs from reference {reference[:16]}"


class BatchVerdicts:
    """The canonical batch verdict of each request shape, computed once.

    A shape is ``("workload", name, variant)`` for a registered program
    or ``("source", name)`` for a cold request built on that program's
    source (the nonce comment is left out: it changes no semantics).

    Creating one switches this process to the configuration the batch
    references use: switch backend, relevance pruning off, and an
    artifact cache that is disabled.  So the expected verdicts share no
    cached artifacts, plans or settings with the daemon they check.
    """

    def __init__(self) -> None:
        from repro import cache
        from repro.interp import set_default_backend, set_relevance_enabled

        cache.configure(cache_dir=None, enabled=False)
        set_default_backend("switch")
        set_relevance_enabled(False)
        self._memo: Dict[tuple, str] = {}

    def __call__(self, shape: tuple) -> str:
        if shape not in self._memo:
            self._memo[shape] = self._compute(shape)
        return self._memo[shape]

    @staticmethod
    def _compute(shape: tuple) -> str:
        from repro import cache
        from repro.core import run_dual
        from repro.core.config import config_from_spec
        from repro.core.supervisor import DEFAULT_DEADLINE, RunBudget
        from repro.serve import api
        from repro.vos.world import World
        from repro.workloads import get_workload

        budget = RunBudget.from_deadline(DEFAULT_DEADLINE).engine_kwargs()
        workload = get_workload(shape[1])
        # Not workload.instrumented: that memo may predate the configuration.
        module = cache.instrumented_for(workload.source)
        if shape[0] == "workload":
            config = (
                workload.leak_variant() if shape[2] == "leak" else workload.noleak_variant()
            )
            result = run_dual(module, workload.build_world(1), config, **budget)
        else:
            world = World(seed=1)
            for path, content in COLD_WORLD["files"].items():
                world.fs.add_file(path, content)
            result = run_dual(module, world, config_from_spec(COLD_SOURCES, COLD_SINKS), **budget)
        return json.dumps(api.verdict_payload(result), sort_keys=True)


def verify_responses(records, expected: Callable[[tuple], str]) -> Tuple[int, List[str]]:
    """(failed count, problems) over the timed requests."""
    failed = 0
    problems: List[str] = []
    for record in records:
        response = record.response
        if response is None:
            problem = "no response (transport error or abandoned)"
        elif response.get("status") != "ok":
            problem = f"status {response.get('status')!r}: {response.get('reason')!r}"
        elif json.dumps(response["verdict"], sort_keys=True) != expected(record.request.shape):
            problem = f"verdict differs from batch run_dual for {record.request.shape}"
        else:
            continue
        failed += 1
        problems.append(f"request {record.request.id}: {problem}")
    return failed, problems
