"""Service-mode chaos: concurrent request storms against the daemon.

The batch chaos sweep (:mod:`repro.eval.robustness`) checks that
injected faults change *diagnostics*, never *verdicts*, one engine run
at a time.  This harness moves the same invariant to the service
boundary: a storm of concurrent requests — some carrying injected
faults, some with near-zero deadlines, some deliberately malformed —
is thrown at an in-process :class:`~repro.serve.service.LdxService`,
and the outcome is checked against the **service invariants**:

1. every request is answered exactly once — overload, faults and
   poison produce explicit responses, never a hang;
2. every ``ok`` verdict is byte-identical to the same request run on
   its own through :func:`~repro.serve.service.run_request` (a fresh
   factory, no admission, no concurrency) — the service layer adds
   latency and degradation rungs, never verdict changes;
3. full-confidence verdicts also match the *fault-free* request's:
   masked faults never change causality facts;
4. poisoned requests come back ``invalid`` with a diagnosis;
5. degradation is always explicit: a non-``full`` confidence is
   backed by a populated degradation report;
6. after the storm the service drains cleanly: no stuck requests, no
   leaked watchdog threads.

Request mixes are a pure function of the storm parameters, so two
storms with the same arguments throw exactly the same requests (only
scheduling differs — which must not matter, and that is the point).
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional, Tuple

from repro.core.supervisor import DEFAULT_DEADLINE
from repro.serve import LdxService, ServeConfig, api
from repro.serve.service import run_request

# Fast, deterministic (non-racy) workloads for the storm mix.
STORM_WORKLOADS = ("gzip", "bzip2", "tnftp", "mp3info")

TINY_DEADLINE = 10.0

# The storm's fixed mix: every Nth request gets TINY_DEADLINE, every
# Nth is malformed, and each well-formed one injects transient faults
# at FAULT_RATE from its own seed (FAULT_SEED + its index).
TINY_DEADLINE_EVERY = 7
POISON_EVERY = 11
FAULT_RATE = 0.1
FAULT_SEED = 0

# Poison cycle: each kind must produce an `invalid` response.
_POISON_KINDS = ("not-json", "unknown-key", "bad-variant", "oversized")

SUBMITTERS = 8  # concurrent client threads


class _NullStream:
    """Swallows the storm service's request logs."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


class StormOutcome:
    """Everything one storm produced, plus the invariant verdicts."""

    def __init__(self) -> None:
        self.requests = 0
        self.by_status: Dict[str, int] = {}
        self.verdict_matches = 0
        self.degraded = 0
        self.violations: List[str] = []
        self.drained = False
        self.shed: Dict[str, int] = {}

    def count(self, status: str) -> None:
        self.by_status[status] = self.by_status.get(status, 0) + 1


def _poison_payload(kind: str, index: int):
    if kind == "not-json":
        return "this is not json {"
    if kind == "unknown-key":
        return {"id": f"poison-{index}", "workload": "gzip", "bogus_key": 1}
    if kind == "bad-variant":
        return {"id": f"poison-{index}", "workload": "gzip", "variant": "nope"}
    # oversized: a source body past the admission guard
    return {
        "id": f"poison-{index}",
        "source": "x" * (api.MAX_SOURCE_BYTES + 1),
    }


def plan_storm(requests: int) -> List[Tuple[str, object]]:
    """The deterministic request mix: (kind, payload) per request,
    where kind is ``ok`` (a well-formed workload request) or
    ``poison``."""
    plan: List[Tuple[str, object]] = []
    poison_cycle = 0
    for index in range(requests):
        if (index + 1) % POISON_EVERY == 0:
            plan.append(
                ("poison",
                 _poison_payload(_POISON_KINDS[poison_cycle % len(_POISON_KINDS)],
                                 index))
            )
            poison_cycle += 1
            continue
        deadline = DEFAULT_DEADLINE
        if (index + 1) % TINY_DEADLINE_EVERY == 0:
            deadline = TINY_DEADLINE
        plan.append(
            ("ok", {
                "id": f"storm-{index}",
                "workload": STORM_WORKLOADS[index % len(STORM_WORKLOADS)],
                "variant": "leak",
                "seed": 1,
                "deadline": deadline,
                "fault_seed": FAULT_SEED + index,
                "fault_rate": FAULT_RATE,
            })
        )
    return plan


def _verdict(payload: dict) -> str:
    """The verdict (serialized) of one request run on its own, through
    the same :func:`run_request` as the service but on a fresh factory,
    with no admission and no other request in flight."""
    result = run_request(api.parse_request(payload))
    return json.dumps(api.verdict_payload(result), sort_keys=True)


def run_storm(
    requests: int = 60,
    workers: int = 2,
    queue_capacity: int = 8,
) -> StormOutcome:
    """Throw one storm; see the module docstring for the invariants."""
    plan = plan_storm(requests)
    outcome = StormOutcome()
    outcome.requests = len(plan)

    service = LdxService(
        ServeConfig(
            workers=workers,
            queue_capacity=queue_capacity,
            log_stream=_NullStream(),
        )
    ).start()

    results: List[Optional[Tuple[str, object, Optional[dict]]]] = (
        [None] * len(plan)
    )
    cursor = {"next": 0}
    cursor_lock = threading.Lock()

    def _client() -> None:
        while True:
            with cursor_lock:
                index = cursor["next"]
                if index >= len(plan):
                    return
                cursor["next"] = index + 1
            kind, payload = plan[index]
            results[index] = (kind, payload, service.submit(payload))

    clients = [
        threading.Thread(target=_client, name=f"storm-client-{i}", daemon=True)
        for i in range(min(SUBMITTERS, len(plan)))
    ]
    for client in clients:
        client.start()
    for client in clients:
        client.join()

    outcome.drained = service.drain(timeout=120.0)
    if not outcome.drained:
        outcome.violations.append("service did not drain after the storm")
    outcome.shed = service.queue.snapshot()["shed"]

    # Baselines, computed once per distinct well-formed request shape.
    baseline_cache: Dict[str, str] = {}
    faultfree_cache: Dict[str, str] = {}

    for index, record in enumerate(results):
        if record is None:
            outcome.violations.append(f"request {index} was never dispatched")
            continue
        kind, payload, response = record
        status = response.get("status", "<missing>")
        outcome.count(status)
        if kind == "poison":
            if status != api.STATUS_INVALID:
                outcome.violations.append(
                    f"poisoned request {index} got {status!r}, expected invalid"
                )
            continue
        if status in (api.STATUS_OVERLOADED, api.STATUS_UNAVAILABLE):
            if not response.get("reason"):
                outcome.violations.append(
                    f"shed request {index} carries no reason"
                )
            continue
        if status != api.STATUS_OK:
            outcome.violations.append(
                f"request {index} failed unexpectedly: {status} "
                f"{response.get('reason')!r}"
            )
            continue
        confidence = response.get("degradation", {}).get("confidence")
        if confidence != "full":
            outcome.degraded += 1
            degradation = response.get("degradation", {})
            explicit = (
                degradation.get("engine_failures")
                or degradation.get("budget_exhausted")
                or degradation.get("abandoned_threads")
                or degradation.get("exhausted_syscalls")
            )
            if not explicit:
                outcome.violations.append(
                    f"request {index} degraded to {confidence!r} with an "
                    "empty degradation report"
                )
        cache_key = json.dumps(payload, sort_keys=True)
        if cache_key not in baseline_cache:
            baseline_cache[cache_key] = _verdict(payload)
        served = json.dumps(response["verdict"], sort_keys=True)
        if served != baseline_cache[cache_key]:
            outcome.violations.append(
                f"request {index} verdict differs from the batch baseline"
            )
        else:
            outcome.verdict_matches += 1
        if confidence == "full":
            ff_key = f"{payload['workload']}:{payload['seed']}"
            if ff_key not in faultfree_cache:
                faultfree_cache[ff_key] = _verdict({
                    "id": "fault-free", "workload": payload["workload"],
                    "variant": "leak", "seed": payload["seed"],
                })
            if served != faultfree_cache[ff_key]:
                outcome.violations.append(
                    f"request {index}: masked faults changed the verdict"
                )
    return outcome


def storm_ok(outcome: StormOutcome) -> bool:
    return not outcome.violations


def render_storm(outcome: StormOutcome) -> str:
    lines = [
        "serve-chaos storm",
        f"  requests:        {outcome.requests}",
    ]
    for status in sorted(outcome.by_status):
        lines.append(f"  {status + ':':<16} {outcome.by_status[status]}")
    lines.append(f"  verdict matches: {outcome.verdict_matches}")
    lines.append(f"  degraded (explicit): {outcome.degraded}")
    lines.append(f"  drained cleanly: {outcome.drained}")
    for reason, count in sorted(outcome.shed.items()):
        if count:
            lines.append(f"  shed [{reason}]: {count}")
    if outcome.violations:
        lines.append("  VIOLATIONS:")
        lines.extend(f"    - {violation}" for violation in outcome.violations)
    else:
        lines.append("  all service invariants hold")
    return "\n".join(lines)
