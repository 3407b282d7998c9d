"""The causality-service wire format.

One request asks for one dual execution and gets back one response —
over stdin-JSONL or localhost HTTP, the payloads are the same JSON
objects.  Two request shapes are accepted:

* **workload requests** reference a registered benchmark program::

      {"id": "r1", "workload": "bzip2", "variant": "leak",
       "seed": 1, "deadline": 25000}

* **source requests** carry an inline MiniC program plus its input
  spec and source/sink configuration::

      {"id": "r2", "source": "fn main() { ... }",
       "world": {"stdin": "...", "files": {"/etc/secret": "s3cr3t"},
                 "endpoints": {"host:80": "reply"}, "env": {},
                 "seed": 1},
       "sources": {"files": ["/etc/secret"], "stdin": false},
       "sinks": "network", "mutation": "off_by_one",
       "fault_seed": 0, "fault_rate": 0.0, "deadline": 25000}

Responses always echo the request id and carry a ``status``:

* ``ok``          — a verdict (with its degradation report) is attached;
* ``invalid``     — the request was malformed/oversized; diagnosed, not run;
* ``overloaded``  — shed by admission control (429 semantics);
* ``unavailable`` — the per-workload circuit breaker is open.

The parsed :class:`ServeRequest` is the one run spec: ``repro leak``
turns its flags into a source request, and
:func:`repro.serve.service.run_request` runs every request, batch or
served.

The **verdict payload is canonical**: it is built only from the
:class:`~repro.core.report.DualResult` and is byte-identical (as
serialized JSON) to what a batch ``repro leak`` / ``repro eval`` of the
same (program, input, mutation, faults) produces — the service chaos
harness enforces exactly this.  Degradation never hides inside an
``ok``: every response carries the degradation report and the
``confidence`` rung it implies.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.core.config import (
    ConfigSpecError,
    LdxConfig,
    config_from_spec,
)
from repro.core.report import DegradationReport, DualResult
from repro.core.supervisor import DEFAULT_DEADLINE

# Protocol version, echoed on every response.
PROTOCOL = "ldx-serve-v1"

# Requests larger than this (source bytes) are rejected as `invalid`
# before touching the compiler — the poisoned-request guard.
MAX_SOURCE_BYTES = 256 * 1024

STATUS_OK = "ok"
STATUS_INVALID = "invalid"
STATUS_OVERLOADED = "overloaded"
STATUS_UNAVAILABLE = "unavailable"
STATUS_ERROR = "error"

_WORKLOAD_KEYS = {
    "id", "workload", "variant", "seed", "deadline",
    "fault_seed", "fault_rate",
}
_SOURCE_KEYS = {
    "id", "source", "world", "sources", "sinks", "mutation",
    "seed", "deadline", "fault_seed", "fault_rate",
}
# Variant name -> the Workload method that returns its LdxConfig.
_VARIANTS = {"default": "config", "leak": "leak_variant",
             "noleak": "noleak_variant", "table3": "table3_variant"}


class RequestError(ValueError):
    """A request that cannot be admitted; becomes an `invalid` response."""


class ServeRequest:
    """One parsed request: program, world, ``config`` (sources and
    sinks), budget and faults, each resolved once by
    :func:`parse_request`; :func:`repro.serve.service.run_request` runs it."""

    __slots__ = (
        "id", "workload", "variant", "registered", "source", "world_spec",
        "sources_spec", "sinks_spec", "config", "seed", "deadline",
        "fault_seed", "fault_rate",
    )

    def __init__(self, request_id: str, seed: int, deadline: float,
                 fault_seed: int, fault_rate: float) -> None:
        self.id = request_id
        self.seed = seed
        self.deadline = deadline
        self.fault_seed = fault_seed
        self.fault_rate = fault_rate
        # Workload requests: the name, the registered Workload, the variant.
        self.workload = self.registered = None
        self.variant = "default"
        # Source requests: the program and its world, sources and sinks.
        self.source = self.sources_spec = self.sinks_spec = None
        self.world_spec: dict = {}
        self.config: Optional[LdxConfig] = None

    # -- identity --------------------------------------------------------------

    def module_key(self) -> str:
        """Factory/breaker identity: requests sharing a compiled
        module (and input spec) share this key, and so one warm
        factory and one breaker."""
        if self.workload is not None:
            return f"workload:{self.workload}:{self.seed}"
        import hashlib

        hasher = hashlib.sha256()
        hasher.update(self.source.encode())
        hasher.update(b"\0")
        hasher.update(
            json.dumps(self.world_spec, sort_keys=True).encode()
        )
        hasher.update(f"\0{self.seed}".encode())
        return f"source:{hasher.hexdigest()[:16]}"


def endpoint_address(address: str) -> Tuple[str, int]:
    """(host, port) of a ``HOST:PORT`` endpoint address."""
    host, _, port = address.rpartition(":")
    try:
        if host:
            return host, int(port)
    except ValueError:
        pass
    raise RequestError(f"endpoint address must be HOST:PORT, got {address!r}")


def _field(payload: dict, name: str, kind, default):
    value = payload.get(name, default)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise RequestError(f"{name} must be {kind.__name__}")
    return value


def _reject_unknown(keys, known: set, what: str) -> None:
    unknown = set(keys) - known
    if unknown:
        raise RequestError(f"unknown {what} keys: {sorted(unknown)}")


def parse_request(payload) -> ServeRequest:
    """Validate one decoded JSON request and resolve everything its run
    needs; raise :class:`RequestError` with a one-line diagnosis on
    anything malformed."""
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except (ValueError, RecursionError) as error:
            # ValueError covers JSONDecodeError and invalid UTF-8 bytes;
            # RecursionError a nesting bomb such as "[" * 100000.
            raise RequestError(f"request is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise RequestError("request must be a JSON object")
    request_id = payload.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise RequestError("request needs a non-empty string 'id'")

    seed = _field(payload, "seed", int, 1)
    deadline = payload.get("deadline", DEFAULT_DEADLINE)
    if not isinstance(deadline, (int, float)) or isinstance(deadline, bool):
        raise RequestError("deadline must be a number (virtual-time units)")
    if not deadline > 0:  # also NaN, which JSON decoding accepts
        raise RequestError("deadline must be positive")
    fault_seed = _field(payload, "fault_seed", int, 0)
    fault_rate = payload.get("fault_rate", 0.0)
    if not isinstance(fault_rate, (int, float)) or isinstance(fault_rate, bool):
        raise RequestError("fault_rate must be a number")
    if not 0.0 <= float(fault_rate) <= 1.0:
        raise RequestError("fault_rate must be in [0, 1]")

    request = ServeRequest(
        request_id, seed, float(deadline), fault_seed, float(fault_rate)
    )
    if "workload" in payload:
        _resolve_workload(payload, request)
    elif "source" in payload:
        _resolve_source(payload, request)
    else:
        raise RequestError("request needs either 'workload' or 'source'")
    return request


def _resolve_workload(payload: dict, request: ServeRequest) -> None:
    from repro.errors import WorkloadError
    from repro.workloads import get_workload

    _reject_unknown(payload, _WORKLOAD_KEYS, "request")
    name = payload["workload"]
    if not isinstance(name, str):
        raise RequestError("workload must be a string")
    variant = payload.get("variant", "default")
    if variant not in _VARIANTS:
        raise RequestError(
            f"unknown variant {variant!r}; expected one of {tuple(_VARIANTS)}"
        )
    try:
        workload = get_workload(name)
    except WorkloadError as error:
        raise RequestError(str(error)) from None
    request.config = getattr(workload, _VARIANTS[variant])()
    if request.config is None:
        raise RequestError(f"workload {name!r} has no {variant} variant")
    request.workload, request.registered = name, workload
    request.variant = variant


def _resolve_source(payload: dict, request: ServeRequest) -> None:
    _reject_unknown(payload, _SOURCE_KEYS, "request")
    source = payload["source"]
    if not isinstance(source, str) or not source.strip():
        raise RequestError("source must be a non-empty string")
    if len(source.encode()) > MAX_SOURCE_BYTES:
        raise RequestError(
            f"source exceeds {MAX_SOURCE_BYTES} bytes (oversized request)"
        )
    world_spec = payload.get("world", {})
    if not isinstance(world_spec, dict):
        raise RequestError("world must be an object")
    _reject_unknown(world_spec, {"stdin", "files", "endpoints", "env", "seed"},
                    "world")
    for mapping_key in ("files", "endpoints", "env"):
        mapping = world_spec.get(mapping_key, {})
        if not isinstance(mapping, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in mapping.items()
        ):
            raise RequestError(
                f"world.{mapping_key} must map strings to strings"
            )
    for address in world_spec.get("endpoints", {}):
        endpoint_address(address)
    if not isinstance(world_spec.get("stdin", ""), str):
        raise RequestError("world.stdin must be a string")
    world_seed = world_spec.get("seed", 1)
    if not isinstance(world_seed, int) or isinstance(world_seed, bool):
        raise RequestError("world.seed must be an int")
    request.source, request.world_spec = source, world_spec
    request.sources_spec = payload.get("sources")
    request.sinks_spec = payload.get("sinks")
    try:
        request.config = config_from_spec(
            request.sources_spec, request.sinks_spec, payload.get("mutation")
        )
    except ConfigSpecError as error:
        raise RequestError(str(error)) from None


# -- responses -----------------------------------------------------------------


def degradation_payload(degradation: DegradationReport) -> Dict[str, object]:
    """The degradation report, JSON-shaped (deterministic ordering)."""
    return {
        "confidence": degradation.verdict_confidence,
        "faults_injected": len(degradation.faults_injected),
        "faults_masked": degradation.faults_masked,
        "retries": degradation.retries,
        "short_reads": degradation.short_reads,
        "lock_delays": degradation.lock_delays,
        "exhausted_syscalls": [
            list(item) for item in degradation.exhausted_syscalls
        ],
        "watchdog_fires": degradation.watchdog_fires,
        "budget_exhausted": [
            list(item) for item in degradation.budget_exhausted
        ],
        "abandoned_threads": [
            list(item) for item in degradation.abandoned_threads
        ],
        "engine_failures": list(degradation.engine_failures),
        "decoupled_resources": list(degradation.decoupled_resources),
        "summary": degradation.summary(),
    }


def verdict_payload(result: DualResult) -> Dict[str, object]:
    """The canonical verdict: a pure function of the DualResult, so the
    service answer is byte-identical to a batch run's.

    Deliberately excludes virtual timing (``dual_time`` lives in the
    response's ``timing`` section): masked faults legitimately add
    retry time without changing any causality fact, and the service
    invariant — faults and overload never change verdicts — is checked
    as byte equality of this payload.
    """
    report = result.report
    return {
        "causality": report.causality_detected,
        "summary": report.summary(),
        "sinks_total": report.sinks_total,
        "tainted_sinks": report.tainted_sinks,
        "syscall_diffs": report.syscall_diffs,
        "mutated_source_reads": report.mutated_source_reads,
        "tainted_resources": list(report.tainted_resources),
        "crashes": [list(item) for item in report.crashes],
        "detections": [
            {
                "kind": detection.kind,
                "counter": list(detection.counter),
                "syscall": detection.syscall,
                "master_args": _args(detection.master_args),
                "slave_args": _args(detection.slave_args),
                "where": detection.where,
            }
            for detection in report.detections
        ],
        "exit_codes": [result.master.exit_code, result.slave.exit_code],
    }


def _args(args: Optional[tuple]) -> Optional[List[object]]:
    if args is None:
        return None
    return [list(a) if isinstance(a, tuple) else a for a in args]


def ok_response(
    request_id: str,
    result: DualResult,
    timing: Optional[Dict[str, float]] = None,
    cache: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    response = {
        "protocol": PROTOCOL,
        "id": request_id,
        "status": STATUS_OK,
        "verdict": verdict_payload(result),
        "degradation": degradation_payload(result.degradation),
    }
    if timing is not None:
        response["timing"] = timing
    if cache is not None:
        response["cache"] = cache
    return response


def error_response(
    request_id: Optional[str], status: str, reason: str, **extra
) -> Dict[str, object]:
    response = {
        "protocol": PROTOCOL,
        "id": request_id,
        "status": status,
        "reason": reason,
    }
    response.update(extra)
    return response


def encode(response: Dict[str, object]) -> str:
    """One response as a single JSON line (stable key order)."""
    return json.dumps(response, sort_keys=True)
