"""Causality-as-a-service: the `repro serve` daemon.

Layers, bottom up:

* :mod:`repro.serve.api` — the wire format: request parsing (the one
  run spec) and the canonical (batch-identical) verdict payload;
* :mod:`repro.serve.admission` — the bounded FIFO admission gate with
  watermark shedding;
* :mod:`repro.serve.breaker` — per-workload circuit breakers;
* :mod:`repro.serve.service` — ``run_request``, the one path from a
  parsed request to a dual run (also `repro leak`'s), and
  :class:`LdxService`: each request on its caller's thread, the warm
  :class:`FactoryCache`, structured logs, drain;
* :mod:`repro.serve.transport` — stdin-JSONL and localhost-HTTP shells.

See ``docs/SERVICE.md`` for the protocol and robustness contract.
"""

from repro.serve.api import (
    MAX_SOURCE_BYTES,
    PROTOCOL,
    STATUS_ERROR,
    STATUS_INVALID,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_UNAVAILABLE,
    RequestError,
    ServeRequest,
    encode,
    error_response,
    ok_response,
    parse_request,
    verdict_payload,
)
from repro.serve.admission import AdmissionQueue, ShedReason
from repro.serve.breaker import BreakerBoard, CircuitBreaker
from repro.serve.service import FactoryCache, LdxService, ServeConfig
from repro.serve.transport import HttpTransport, StdioTransport

__all__ = [
    "MAX_SOURCE_BYTES",
    "PROTOCOL",
    "STATUS_ERROR",
    "STATUS_INVALID",
    "STATUS_OK",
    "STATUS_OVERLOADED",
    "STATUS_UNAVAILABLE",
    "RequestError",
    "ServeRequest",
    "encode",
    "error_response",
    "ok_response",
    "parse_request",
    "verdict_payload",
    "AdmissionQueue",
    "ShedReason",
    "BreakerBoard",
    "CircuitBreaker",
    "FactoryCache",
    "LdxService",
    "ServeConfig",
    "HttpTransport",
    "StdioTransport",
]
