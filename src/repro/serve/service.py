"""The causality service: request lifecycle, admission, drain.

``LdxService`` is the transport-independent daemon core.  A request
runs start to finish on the thread that submitted it (an HTTP
connection thread, the stdio reader, a storm client).  One instance
owns:

* a :class:`~repro.serve.admission.AdmissionQueue` (bounded, FIFO,
  watermark shedding) — the only gate work enters through, which lets
  at most ``ServeConfig.workers`` requests run at once;
* a :class:`FactoryCache` — the explicit lifecycle object for warm
  state: an LRU of :class:`~repro.core.engine.EngineFactory` keyed by
  module key, layered over the process-global content-addressed
  artifact cache.  A warm request reuses compiled closures, analysis
  artifacts and a pre-built base world; its engine state is stamped out
  per run (O(1) world clone), so requests can never contaminate each
  other;
* a :class:`~repro.serve.breaker.BreakerBoard` — per-module-key
  circuit breakers tripping on repeated *engine* failures (program
  crashes are results, not failures);
* per-request structured logs (JSON lines): request id, queue wait,
  service time, degradation rung, cache-hit flags, breaker state.

Robustness contract, request-level (the PR 1 invariant moved to the
service boundary): a request is always answered — ``ok`` (with a
degradation report and confidence rung), ``invalid``, ``overloaded``,
``unavailable`` or ``error`` — and overload, faults and deadlines
change latency and rungs, **never** the causality verdict an ``ok``
response carries.  Deadlines are enforced in the supervisor's virtual
time (:class:`~repro.core.supervisor.RunBudget`), so a timed-out
request degrades into a diagnosed partial verdict instead of hanging.

Graceful drain: :meth:`begin_drain` stops admission (new offers shed
with ``draining``); :meth:`drain` then waits until every admitted
request has run — each bounded by its budget — flushes the caches and
reports final statistics.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import OrderedDict
from typing import Dict, Optional, TextIO

from repro.core.engine import EngineFactory
from repro.core.report import DualResult
from repro.core.supervisor import RunBudget
from repro.errors import ReproError
from repro.serve import api
from repro.serve.admission import AdmissionQueue
from repro.serve.breaker import COOLDOWN_S, BreakerBoard
from repro.vos.faults import FaultConfig
from repro.vos.world import World


# Warm engine factories kept (LRU).
MAX_FACTORIES = 32

# Cap on every client deadline, in virtual time units.
MAX_DEADLINE = 250_000.0


class ServeConfig:
    """Daemon settings.  ``workers`` and ``queue_capacity`` are `repro
    serve`'s flags; ``log_stream`` (default stderr) is for in-process
    callers such as `repro serve-chaos`."""

    def __init__(
        self,
        workers: int = 2,
        queue_capacity: int = 64,
        log_stream: Optional[TextIO] = None,
    ) -> None:
        self.workers = max(1, workers)
        self.queue_capacity = queue_capacity
        self.log_stream = log_stream


class FactoryCache:
    """Warm-construction LRU with an explicit lifecycle.

    Maps module keys to :class:`EngineFactory` instances.  ``lookup``
    either serves a cached factory (a *warm* hit: compiled module,
    plan, base world all ready) or builds one through the process-global
    content-addressed artifact cache and remembers it.  ``close``
    drops every factory and reports usage — the daemon calls it during
    drain so cache lifetime is explicit, not interpreter-exit cleanup.
    """

    def __init__(self) -> None:
        self.capacity = MAX_FACTORIES
        self._lock = threading.Lock()
        self._factories: "OrderedDict[str, EngineFactory]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.closed = False

    def contains(self, key: str) -> bool:
        with self._lock:
            return key in self._factories

    def lookup(self, key: str, builder) -> tuple:
        """(factory, was_warm).  Builds outside the lock: construction
        compiles; holding the lock would serialize every cold request."""
        with self._lock:
            if self.closed:
                raise RuntimeError("factory cache is closed")
            factory = self._factories.get(key)
            if factory is not None:
                self._factories.move_to_end(key)
                self.hits += 1
                return factory, True
            self.misses += 1
        factory = builder()
        with self._lock:
            # A racing builder may have landed first; keep the winner so
            # both callers share one base world from here on.
            existing = self._factories.get(key)
            if existing is not None:
                return existing, False
            self._factories[key] = factory
            self._factories.move_to_end(key)
            while len(self._factories) > self.capacity:
                self._factories.popitem(last=False)
        return factory, False

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "factories": len(self._factories),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
            }

    def close(self) -> dict:
        with self._lock:
            stats = {
                "factories": len(self._factories),
                "hits": self.hits,
                "misses": self.misses,
            }
            self._factories.clear()
            self.closed = True
            return stats


def _world_from_spec(spec: dict) -> World:
    """The World a request's ``world`` object describes (the one world
    builder for `repro leak`, `repro run` and serve)."""
    world = World(seed=spec.get("seed", 1))
    world.stdin = spec.get("stdin", "")
    for path, content in sorted(spec.get("files", {}).items()):
        world.fs.add_file(path, content)
    for address, reply in sorted(spec.get("endpoints", {}).items()):
        host, port = api.endpoint_address(address)
        world.network.register(host, port, lambda req, reply=reply: reply)
    world.env.update(spec.get("env", {}))
    return world


def run_request(
    request: api.ServeRequest, factories: Optional[FactoryCache] = None
) -> DualResult:
    """Run one parsed request (`repro leak`, the daemon, serve-chaos).

    The factory comes from *factories* when given, else it is built
    fresh; the budget is the request's deadline capped at
    :data:`MAX_DEADLINE`.  A source that does not compile raises its
    :class:`~repro.errors.ReproError`.
    """

    def build() -> EngineFactory:
        if request.registered is not None:
            return EngineFactory.for_workload(request.registered, seed=request.seed)
        from repro import cache

        return EngineFactory(
            cache.instrumented_for(request.source),
            _world_from_spec(request.world_spec),
        )

    if factories is None:
        factory = build()
    else:
        factory, _ = factories.lookup(request.module_key(), build)
    kwargs = RunBudget.from_deadline(
        min(request.deadline, MAX_DEADLINE)
    ).engine_kwargs()
    if request.fault_rate > 0.0:
        kwargs["faults"] = FaultConfig(
            seed=request.fault_seed, rate=request.fault_rate
        )
    return factory.run(request.config, **kwargs)


class LdxService:
    """The transport-independent causality-inference daemon core."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.queue = AdmissionQueue(self.config.queue_capacity,
                                    self.config.workers)
        self.factories = FactoryCache()
        self.breakers = BreakerBoard()
        self._log_lock = threading.Lock()
        self._drained = False
        # The counters are only ever touched under _stats_lock —
        # including reads: torn snapshots (e.g. /statz observing a
        # served bump but not the matching errors bump) made the
        # counters impossible to reconcile against submissions.
        self.served = 0
        self.errors = 0
        self.rejected = 0
        self.log_errors = 0
        self._stats_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "LdxService":
        self.log({"event": "start", "workers": self.config.workers,
                  "queue": self.queue.snapshot()})
        return self

    def begin_drain(self) -> None:
        """Stop admitting; already-admitted work will still complete."""
        self.queue.begin_drain()
        self.log({"event": "drain-begin", "queue": self.queue.snapshot()})

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: wait for admitted requests, then flush the
        caches.  True when everything drained within *timeout*."""
        self.begin_drain()
        drained = self.queue.wait_idle(timeout)
        factory_stats = self.factories.close()
        with self._stats_lock:
            served, errors, rejected = self.served, self.errors, self.rejected
        self.log({
            "event": "drain-complete",
            "drained": drained,
            "served": served,
            "errors": errors,
            "rejected": rejected,
            "factories": factory_stats,
            "queue": self.queue.snapshot(),
            "breakers": self.breakers.snapshot(),
        })
        self._drained = True
        return drained

    # -- probes ----------------------------------------------------------------

    def alive(self) -> bool:
        return not self._drained

    def ready(self) -> bool:
        """Readiness: admitting and below the high watermark."""
        return self.alive() and not self.queue.draining and not self.queue.saturated

    def stats(self) -> dict:
        with self._stats_lock:
            counters = {
                "served": self.served,
                "errors": self.errors,
                "rejected": self.rejected,
                "log_errors": self.log_errors,
            }
        return {
            **counters,
            "queue": self.queue.snapshot(),
            "factories": self.factories.snapshot(),
            "breakers": self.breakers.snapshot(),
        }

    # -- requests --------------------------------------------------------------

    def submit(self, payload) -> dict:
        """Answer one request on the calling thread: parse, breaker,
        admission, run.  Always returns a response."""
        try:
            request = api.parse_request(payload)
        except api.RequestError as error:
            return self._reject(_salvage_id(payload), api.STATUS_INVALID,
                                str(error))

        key = request.module_key()
        if not self.breakers.allow(key):
            return self._reject(request.id, api.STATUS_UNAVAILABLE,
                                f"circuit open for {key}",
                                retry_after=COOLDOWN_S)

        enqueued = time.monotonic()
        warm = self.factories.contains(key)
        reason = self.queue.enter(warm)
        if reason is not None:
            return self._reject(request.id, api.STATUS_OVERLOADED, reason,
                                retry_after=1.0, queue_depth=self.queue.depth)
        try:
            try:
                response = self._serve(request, key, warm, enqueued)
                failed = bool(
                    response["status"] == api.STATUS_OK
                    and response["degradation"]["engine_failures"]
                )
            except api.RequestError as error:
                response = api.error_response(
                    request.id, api.STATUS_INVALID, str(error)
                )
                failed = False  # a bad request is not an engine failure
            except Exception as error:  # answer, never propagate
                response = api.error_response(
                    request.id,
                    api.STATUS_ERROR,
                    f"{type(error).__name__}: {error}",
                )
                failed = True
                with self._stats_lock:
                    self.errors += 1
            self.breakers.record(key, failed)
            with self._stats_lock:
                self.served += 1
            return response
        finally:
            self.queue.leave()

    def _serve(
        self,
        request: api.ServeRequest,
        key: str,
        admitted_warm: bool,
        enqueued: float,
    ) -> dict:
        started = time.monotonic()
        queue_wait = started - enqueued
        warm = self.factories.contains(key)
        try:
            result = run_request(request, self.factories)
        except ReproError as error:
            # The engine turns its own failures into degradation, so
            # this is the request's source failing to compile.
            raise api.RequestError(f"source does not compile: {error}") from None
        service_time = time.monotonic() - started
        response = api.ok_response(
            request.id,
            result,
            timing={
                "queue_wait_s": round(queue_wait, 6),
                "service_s": round(service_time, 6),
                "dual_time": result.dual_time,
            },
            cache={"factory": "hit" if warm else "miss", "warm": admitted_warm},
        )
        self.log({
            "event": "request",
            "id": request.id,
            "key": key,
            "status": api.STATUS_OK,
            "rung": result.degradation.verdict_confidence,
            "causality": result.report.causality_detected,
            "queue_wait_ms": round(queue_wait * 1000, 3),
            "service_ms": round(service_time * 1000, 3),
            "cache_hit": warm,
            "faults_injected": len(result.degradation.faults_injected),
        })
        return response

    # -- logging ---------------------------------------------------------------

    def log(self, record: Dict[str, object]) -> None:
        stream = self.config.log_stream
        if stream is None:
            stream = sys.stderr
        with self._log_lock:
            try:
                stream.write(json.dumps(record, sort_keys=True) + "\n")
                stream.flush()
            except (OSError, ValueError):
                # A failed or closed stream must never take a request
                # down; /statz counts what was lost.
                with self._stats_lock:
                    self.log_errors += 1

    def _reject(self, request_id, status: str, reason: str, **extra) -> dict:
        with self._stats_lock:
            self.rejected += 1
        self.log({
            "event": "request",
            "id": request_id,
            "status": status,
            "reason": reason,
            "queue_depth": self.queue.depth,
        })
        return api.error_response(request_id, status, reason, **extra)


def _salvage_id(payload) -> Optional[str]:
    """The id of a request that failed validation, when it has one, so
    the client can correlate the rejection (wire payloads arrive as raw
    JSONL lines or HTTP bodies, not dicts)."""
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except (ValueError, RecursionError):
            return None
    if isinstance(payload, dict) and isinstance(payload.get("id"), str):
        return payload["id"]
    return None
