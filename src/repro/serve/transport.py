"""Service transports: stdin-JSONL and localhost HTTP.

Both transports are thin shells around one :class:`LdxService`; the
payloads are identical JSON objects either way.

* :class:`StdioTransport` reads one request per line from stdin and
  writes one response per line to stdout, **in request order** (so
  batch clients and the CI smoke test can diff outputs directly).  Its
  reader thread runs each request itself, one at a time, so the pipe
  is the backpressure.  EOF triggers a graceful drain.

* :class:`HttpTransport` binds ``127.0.0.1`` only (the service is a
  local sidecar, not a network daemon), runs each request on its
  connection's thread and maps service statuses onto
  HTTP codes: ``ok`` 200, ``invalid`` 400, ``overloaded`` 429 (with a
  ``Retry-After`` header), ``unavailable`` 503, ``error`` 500.  It also
  exposes ``GET /healthz`` (liveness), ``GET /readyz`` (readiness:
  admitting and below the high watermark) and ``GET /statz``.

SIGTERM/SIGINT trigger the drain protocol on either transport: stop
admitting (late arrivals get explicit ``overloaded``/``draining``
responses), finish admitted work, flush caches, exit 0.
"""

from __future__ import annotations

import json
import queue
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.serve import api
from repro.serve.service import LdxService

_HTTP_STATUS = {
    api.STATUS_OK: 200,
    api.STATUS_INVALID: 400,
    api.STATUS_OVERLOADED: 429,
    api.STATUS_UNAVAILABLE: 503,
    api.STATUS_ERROR: 500,
}

MAX_BODY_BYTES = 1 << 20  # oversized-request guard at the transport


def install_signal_handlers(callback) -> bool:
    """Route SIGTERM/SIGINT to *callback*; False when not possible
    (non-main thread, e.g. under tests)."""
    try:
        signal.signal(signal.SIGTERM, lambda signo, frame: callback())
        signal.signal(signal.SIGINT, lambda signo, frame: callback())
        return True
    except ValueError:
        return False


class StdioTransport:
    """JSONL over stdin/stdout with in-order responses."""

    def __init__(self, service: LdxService, in_stream=None, out_stream=None) -> None:
        self.service = service
        self.in_stream = in_stream if in_stream is not None else sys.stdin
        self.out_stream = out_stream if out_stream is not None else sys.stdout
        self._stopping = False
        # Woken on EOF, a read failure or a stop request.  SimpleQueue's
        # put() is reentrant, so a signal handler may call it while the
        # main thread waits in get().
        self._wake: "queue.SimpleQueue" = queue.SimpleQueue()
        # Held while a line is answered, so no response is cut off.
        self._answering = threading.Lock()

    def request_stop(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        self._wake.put(None)
        self.service.begin_drain()

    def _reader(self) -> None:
        try:
            for line in self.in_stream:
                line = line.strip()
                if not line:
                    continue
                with self._answering:
                    if self._stopping:
                        break
                    response = self.service.submit(line)
                    self.out_stream.write(api.encode(response) + "\n")
                    self.out_stream.flush()
        except Exception as error:
            # A broken stream ends input like EOF does, but on the record.
            self.service.log({"event": "reader-error",
                              "error": f"{type(error).__name__}: {error}"})
        finally:
            self._stopping = True
            self._wake.put(None)

    def serve_forever(self, handle_signals: bool = True) -> int:
        if handle_signals:
            install_signal_handlers(self.request_stop)
        self.service.start()
        threading.Thread(target=self._reader, name="ldx-serve-stdin",
                         daemon=True).start()
        self._wake.get()
        # A stop can arrive while the reader is blocked on input; the
        # reader is then abandoned, but never mid-answer.
        with self._answering:
            self.service.drain()
        return 0


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection.  ``_reply`` writes the
    # headers and the body separately; with Nagle's algorithm on, a
    # keep-alive client's delayed ACK holds the body back ~40 ms.
    disable_nagle_algorithm = True

    # The service writes structured logs; silence the default chatter.
    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass

    @property
    def service(self) -> LdxService:
        return self.server.service  # type: ignore[attr-defined]

    def _reply(self, code: int, payload: dict, headers=()) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        if self.path == "/healthz":
            alive = self.service.alive()
            self._reply(200 if alive else 503, {"alive": alive})
        elif self.path == "/readyz":
            ready = self.service.ready()
            self._reply(200 if ready else 503, {"ready": ready})
        elif self.path == "/statz":
            self._reply(200, self.service.stats())
        else:
            self._reply(404, {"error": f"no such path: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 (stdlib casing)
        if self.path != "/v1/infer":
            self._reply(404, {"error": f"no such path: {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._reply(413, api.error_response(
                None, api.STATUS_INVALID,
                f"body must be 0..{MAX_BODY_BYTES} bytes",
            ))
            return
        response = self.service.submit(self.rfile.read(length))
        headers = []
        if "retry_after" in response:
            headers.append(("Retry-After", str(response["retry_after"])))
        self._reply(
            _HTTP_STATUS.get(response["status"], 500), response, headers
        )


class HttpTransport:
    """Localhost-only HTTP shell around the service."""

    def __init__(self, service: LdxService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.server = ThreadingHTTPServer((host, port), _Handler)
        self.server.daemon_threads = True
        self.server.service = service  # type: ignore[attr-defined]
        self.host, self.port = self.server.server_address[:2]

    def request_stop(self) -> None:
        self.service.begin_drain()
        # shutdown() must not run on the thread inside serve_forever.
        threading.Thread(target=self.server.shutdown, daemon=True).start()

    def announce(self, stream=None) -> None:
        """One machine-readable line so a parent process can find the
        bound (possibly ephemeral) port."""
        stream = stream if stream is not None else sys.stdout
        stream.write(json.dumps(
            {"event": "listening", "host": self.host, "port": self.port},
            sort_keys=True,
        ) + "\n")
        stream.flush()

    def serve_forever(self, handle_signals: bool = True,
                      announce_stream=None) -> int:
        if handle_signals:
            install_signal_handlers(self.request_stop)
        self.service.start()
        self.service.log({"event": "listening", "host": self.host,
                          "port": self.port})
        self.announce(announce_stream)
        try:
            self.server.serve_forever(poll_interval=0.1)
        finally:
            self.server.server_close()
            self.service.drain()
        return 0

    def close(self) -> None:
        self.server.server_close()
