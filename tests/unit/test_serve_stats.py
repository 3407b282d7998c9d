"""Counter-consistency tests for the service's /statz accounting.

Regression: ``served``/``errors`` were incremented under
``_stats_lock`` but read without it, so a /statz probe racing the
requests could observe torn snapshots, and rejections were not counted
at all — making ``served + rejected == submitted`` impossible to
verify.  Every request must be accounted exactly once.
"""

import io
import threading

import pytest

from repro.serve import LdxService, ServeConfig
from repro.serve import api


class _Null:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def _service(**kwargs) -> LdxService:
    config = ServeConfig(log_stream=_Null(), **kwargs)
    return LdxService(config)


def _stub_serve(service, fail_ids=()):
    """Replace the engine-backed _serve with an instant responder."""

    def serve(request, *args):
        if request.id in fail_ids:
            raise RuntimeError("stubbed engine blow-up")
        return {
            "status": api.STATUS_OK,
            "id": request.id,
            "degradation": {"engine_failures": []},
        }

    service._serve = serve


def test_concurrent_storm_accounts_every_request():
    service = _service(workers=3, queue_capacity=4)
    fail_ids = {f"r-{i}" for i in range(0, 200, 17)}
    _stub_serve(service, fail_ids)
    service.start()

    total = 200
    submitted = []
    submitted_lock = threading.Lock()
    snapshots = []
    stop_probe = threading.Event()

    def probe():
        # Hammer stats() while the storm runs: must never raise and
        # must always be internally consistent.
        while not stop_probe.is_set():
            snapshot = service.stats()
            snapshots.append(snapshot)

    def client(start, step):
        for index in range(start, total, step):
            payload = {
                "id": f"r-{index}",
                "workload": ("gzip", "bzip2", "tnftp")[index % 3],
                "variant": "leak",
            }
            if index % 13 == 0:
                payload = "{ not json"  # invalid -> immediate rejection
            response = service.submit(payload)
            with submitted_lock:
                submitted.append(response["status"])

    prober = threading.Thread(target=probe, daemon=True)
    prober.start()
    clients = [
        threading.Thread(target=client, args=(start, 8), daemon=True)
        for start in range(8)
    ]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    stop_probe.set()
    prober.join()
    assert service.drain(timeout=30.0)

    assert len(submitted) == total
    stats = service.stats()
    # The satellite's invariant: every submission is accounted exactly
    # once — served or rejected at admission.
    assert stats["served"] + stats["rejected"] == total
    assert stats["errors"] == len(
        [status for status in submitted if status == api.STATUS_ERROR]
    )
    # Rejections seen by clients match the service's count.
    rejected_statuses = (
        api.STATUS_INVALID, api.STATUS_OVERLOADED, api.STATUS_UNAVAILABLE
    )
    client_rejections = len(
        [status for status in submitted if status in rejected_statuses]
    )
    assert stats["rejected"] == client_rejections
    # Mid-storm snapshots were always consistent partial sums.
    for snapshot in snapshots:
        assert snapshot["served"] + snapshot["rejected"] <= total
        assert snapshot["errors"] <= snapshot["served"]


def test_stats_exposes_rejected_counter_at_rest():
    service = _service(workers=1, queue_capacity=2)
    stats = service.stats()
    assert stats["served"] == 0
    assert stats["errors"] == 0
    assert stats["rejected"] == 0
    response = service.submit("definitely } not json")
    assert response["status"] == api.STATUS_INVALID
    assert service.stats()["rejected"] == 1


class _BrokenStream:
    def write(self, text):
        raise OSError("disk full")

    def flush(self):
        pass


def test_failed_log_writes_are_counted_not_raised():
    closed = io.StringIO()
    closed.close()  # writing to it raises ValueError
    for stream in (_BrokenStream(), closed):
        service = LdxService(ServeConfig(workers=1, log_stream=stream))
        assert service.stats()["log_errors"] == 0
        response = service.submit("definitely } not json")
        assert response["status"] == api.STATUS_INVALID
        assert service.stats()["log_errors"] == 1
        assert service.stats()["rejected"] == 1


def test_log_write_bugs_are_not_swallowed():
    class _Buggy:
        def write(self, text):
            raise TypeError("a bug, not a stream failure")

        def flush(self):
            pass

    service = LdxService(ServeConfig(log_stream=_Buggy()))
    with pytest.raises(TypeError):
        service.log({"event": "probe"})
    assert service.stats()["log_errors"] == 0
