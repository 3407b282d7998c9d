"""Benchmark: the causality service's warm path vs one-shot runs.

The point of `repro serve` is amortisation: the daemon keeps compiled
modules and pre-built base worlds in an :class:`EngineFactory`, so a
warm request pays only an O(1) world clone plus the dual execution,
while a one-shot CLI invocation re-instruments the program and
rebuilds the world every time.  This benchmark pins that win and
records service throughput under a request storm.
"""

import io
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cache import ArtifactCache
from repro.core import run_dual
from repro.serve import LdxService, ServeConfig
from repro.workloads import get_workload

WORKLOAD = "gzip"
ROUNDS = 10
STORM_REQUESTS = 30


def _one_shot():
    """The cold path a single CLI invocation pays: re-instrument the
    program (no cache), rebuild the world, run the dual execution."""
    workload = get_workload(WORKLOAD)
    artifact = ArtifactCache(enabled=False).instrumented(workload.source)
    return run_dual(artifact, workload.build_world(1), workload.leak_variant())


@pytest.mark.paper
def test_warm_service_latency_beats_one_shot(benchmark):
    service = LdxService(ServeConfig(workers=1, log_stream=io.StringIO())).start()
    payload = {"id": "warm", "workload": WORKLOAD, "variant": "leak"}
    try:
        warmup = service.submit(payload)
        assert warmup["status"] == "ok"
        assert warmup["cache"]["factory"] == "miss"

        def warm_request():
            response = service.submit(payload)
            assert response["status"] == "ok"
            assert response["cache"]["factory"] == "hit"
            return response

        response = benchmark.pedantic(
            warm_request, rounds=ROUNDS, iterations=1, warmup_rounds=1
        )
        assert response["verdict"]["causality"] is True

        # Both paths are timed here, so the comparison holds with
        # pytest-benchmark's own timing disabled too.
        warm_start = time.perf_counter()
        for _ in range(ROUNDS):
            response = warm_request()
        warm_mean = (time.perf_counter() - warm_start) / ROUNDS

        cold_start = time.perf_counter()
        cold_result = None
        for _ in range(3):
            cold_result = _one_shot()
        cold_mean = (time.perf_counter() - cold_start) / 3

        benchmark.extra_info["cold_one_shot_mean_s"] = cold_mean
        benchmark.extra_info["warm_over_cold"] = warm_mean / cold_mean
        # The amortised path must clearly beat the one-shot path, and
        # must not change the verdict while doing so.
        assert warm_mean < cold_mean
        assert (
            response["verdict"]["causality"]
            == cold_result.report.causality_detected
        )
    finally:
        assert service.drain(timeout=120)


@pytest.mark.paper
def test_service_throughput_under_storm(benchmark):
    def storm():
        service = LdxService(
            ServeConfig(workers=2, log_stream=io.StringIO())
        ).start()
        payloads = [
            {"id": f"s{i}", "workload": WORKLOAD, "variant": "leak"}
            for i in range(STORM_REQUESTS)
        ]
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(service.submit, payloads))
        elapsed = time.perf_counter() - start
        assert service.drain(timeout=120)
        return responses, elapsed

    responses, elapsed = benchmark.pedantic(storm, rounds=1, iterations=1)
    ok = [r for r in responses if r and r["status"] == "ok"]
    assert len(ok) == STORM_REQUESTS
    assert len({r["verdict"]["causality"] for r in ok}) == 1
    benchmark.extra_info["requests"] = STORM_REQUESTS
    benchmark.extra_info["throughput_rps"] = STORM_REQUESTS / elapsed
