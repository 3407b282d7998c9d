"""The serve daemon from outside: start it, prime it, load it, stop it.

One load process drives the daemon over at most ``nproc`` keep-alive
HTTP connections, one thread each.  Two load shapes:

* **open loop** — requests are due on a fixed schedule (``rate`` per
  second) whatever the daemon does, so a stall delays every later
  request; latency is timed from when a request was *due*, and how late
  the generator sent it is kept as ``lateness``;
* **closed loop** — each connection sends its next request as soon as
  the previous reply arrives; completions per second is the service's
  throughput at that concurrency.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional

# A request sent this late is abandoned and counted as failed.
ABANDON_LATENESS_S = 2.0
ANNOUNCE_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0

# The world, sources and sinks every cold (inline-source) request uses.
COLD_WORLD = {"files": {"/etc/secret": "7"}}
COLD_SOURCES = {"files": ["/etc/secret"]}
COLD_SINKS = "network"


class BenchError(RuntimeError):
    """The benchmark could not set up or drive the program."""


class Request:
    """One planned request: its kind, the shape its verdict depends on,
    and the encoded body."""

    __slots__ = ("id", "kind", "shape", "body")

    def __init__(self, request_id: str, kind: str, shape: tuple, payload: dict) -> None:
        self.id = request_id
        self.kind = kind  # "warm" or "cold"
        self.shape = shape
        self.body = json.dumps(payload).encode()


class RequestPlan:
    """The seeded request stream of one serve workload.

    Warm requests name a registered workload and variant (every such
    module key is primed before timing).  With ``cold_every`` = N, every
    Nth request instead carries a registry program's source plus a
    ``// bench <seed>-<i>`` comment, so neither the artifact cache nor
    the factory cache has seen it; the comment does not change what the
    program does, so its verdict is the base program's.

    Draws go in seeded shuffled rounds: every shape (and every cold base
    program) comes up once per round, so the mix is the same for every
    seed and only the order changes.
    """

    def __init__(self, seed: int, shapes: List[tuple], sources: dict, cold_every: int = 0) -> None:
        self._rng = random.Random(seed)
        self._seed = seed
        self._sources = sources
        self._cold_every = cold_every
        self._warm = _Rounds(self._rng, shapes)
        self._cold = _Rounds(self._rng, sorted(sources))
        self._count = 0
        self._lock = threading.Lock()

    def next(self, tag: str = "t") -> Request:
        """The next request; its id is *tag* plus its index in the plan."""
        with self._lock:
            index = self._count
            self._count += 1
            request_id = f"{tag}{index}"
            if self._cold_every and index % self._cold_every == self._cold_every - 1:
                base = self._cold.draw()
                return Request(request_id, "cold", ("source", base), {
                    "id": request_id,
                    "source": f"{self._sources[base]}\n// bench {self._seed}-{index}\n",
                    "world": COLD_WORLD,
                    "sources": COLD_SOURCES,
                    "sinks": COLD_SINKS,
                })
            name, variant = self._warm.draw()
            return Request(request_id, "warm", ("workload", name, variant), {
                "id": request_id, "workload": name, "variant": variant,
            })


class _Rounds:
    """Endless draws from *items*, each round a fresh shuffle."""

    def __init__(self, rng: random.Random, items: list) -> None:
        self._rng = rng
        self._items = list(items)
        self._round: list = []

    def draw(self):
        if not self._round:
            self._round = list(self._items)
            self._rng.shuffle(self._round)
        return self._round.pop()


class Record:
    """What happened to one request."""

    __slots__ = ("request", "due", "sent", "done", "response")

    def __init__(self, request: Request, due: float, sent: float, done: float,
                 response: Optional[dict]) -> None:
        self.request = request
        self.due = due
        self.sent = sent
        self.done = done
        self.response = response

    @property
    def ok(self) -> bool:
        return self.response is not None and self.response.get("status") == "ok"


class Client:
    """One keep-alive connection; a failed exchange returns None and
    reconnects on the next call."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def call(self, method: str, path: str, body: Optional[bytes] = None) -> Optional[dict]:
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
                )
            headers = {"Content-Type": "application/json"} if body is not None else {}
            self._conn.request(method, path, body=body, headers=headers)
            return json.loads(self._conn.getresponse().read())
        except (OSError, http.client.HTTPException, ValueError):
            self.close()
            return None

    def post(self, body: bytes) -> Optional[dict]:
        return self.call("POST", "/v1/infer", body)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class Daemon:
    """A ``repro serve --http 0`` child process with default knobs."""

    def __init__(self, command: List[str], cwd: Path, env: dict, log_path: Path) -> None:
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            command, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], ANNOUNCE_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else b""
            announce = json.loads(line)
            self.port = int(announce["port"])
        except (ValueError, KeyError, TypeError):
            self.stop()
            raise BenchError(f"serve daemon did not announce a port (see {log_path})")
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        """The daemon's high-water resident set (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


def prime(port: int, names: List[str], tag: str) -> None:
    """One warm-up request per registered workload: builds and caches
    every workload module key before timing starts."""
    client = Client(port)
    try:
        for name in names:
            body = json.dumps({"id": f"prime-{tag}-{name}", "workload": name,
                               "variant": "leak"}).encode()
            response = client.post(body)
            if response is None or response.get("status") != "ok":
                raise BenchError(f"priming request for {name} failed: {response!r}")
    finally:
        client.close()


def _run_threads(target: Callable[[], None], threads: int) -> None:
    # Daemon threads: a benchmark stopped mid-loop exits without waiting
    # for the rest of the schedule.
    workers = [threading.Thread(target=target, name=f"e2e-load-{i}", daemon=True)
               for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()


def open_loop(port: int, plan: RequestPlan, rate: float, seconds: float,
              threads: int, tag: str = "t") -> List[Record]:
    """``rate * seconds`` requests due at fixed intervals, ids tagged *tag*."""
    count = max(1, int(rate * seconds))
    requests = [plan.next(tag) for _ in range(count)]
    records: List[Optional[Record]] = [None] * count
    start = time.perf_counter() + 0.05
    cursor = {"next": 0}
    lock = threading.Lock()

    def worker() -> None:
        client = Client(port)
        while True:
            with lock:
                index = cursor["next"]
                cursor["next"] += 1
            if index >= count:
                break
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            response = None
            if sent - due <= ABANDON_LATENESS_S:
                response = client.post(requests[index].body)
            records[index] = Record(requests[index], due, sent, time.perf_counter(), response)
        client.close()

    _run_threads(worker, threads)
    return records  # type: ignore[return-value]


def closed_loop(port: int, plan: RequestPlan, seconds: float, threads: int) -> List[Record]:
    """Back-to-back requests on every connection for *seconds*."""
    end = time.perf_counter() + seconds
    records: List[Record] = []

    def worker() -> None:
        client = Client(port)
        while True:
            request = plan.next()
            sent = time.perf_counter()
            if sent >= end:
                break
            response = client.post(request.body)
            records.append(Record(request, sent, sent, time.perf_counter(), response))
        client.close()

    _run_threads(worker, threads)
    return records


def load_threads() -> int:
    return max(1, min(2, os.cpu_count() or 1))
