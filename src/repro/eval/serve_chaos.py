"""Service-mode chaos: concurrent request storms against the daemon.

The batch chaos sweep (:mod:`repro.eval.robustness`) checks that
injected faults change *diagnostics*, never *verdicts*, one engine run
at a time.  This harness moves the same invariant to the service
boundary: a storm of concurrent requests — some carrying injected
faults, some with near-zero deadlines, some deliberately malformed —
is thrown at an :class:`~repro.serve.service.LdxService` (in-process)
or a running daemon (``--url``), and the outcome is checked against
the **service invariants**:

1. every request is answered exactly once — overload, faults and
   poison produce explicit responses, never a hang;
2. every ``ok`` verdict is byte-identical to a batch ``run_dual`` of
   the same (program, input, mutation, faults, budget) — the service
   layer adds latency and degradation rungs, never verdict changes;
3. full-confidence verdicts also match the *fault-free* baseline:
   masked faults never change causality facts;
4. poisoned requests come back ``invalid`` with a diagnosis;
5. degradation is always explicit: a non-``full`` confidence is
   backed by a populated degradation report;
6. after the storm the service drains cleanly (in-process mode): no
   stuck workers, no leaked watchdog threads.

Request mixes are a pure function of the storm parameters, so two
storms with the same arguments throw exactly the same requests (only
scheduling differs — which must not matter, and that is the point).
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional, Tuple

from repro.core import FaultConfig, run_dual
from repro.core.supervisor import DEFAULT_DEADLINE, RunBudget
from repro.serve import api

# Fast, deterministic (non-racy) workloads for the storm mix.
STORM_WORKLOADS = ("gzip", "bzip2", "tnftp", "mp3info")

TINY_DEADLINE = 10.0

# Poison cycle: each kind must produce an `invalid` response.
_POISON_KINDS = ("not-json", "unknown-key", "bad-variant", "oversized")

SUBMITTERS = 8  # concurrent client threads


class StormOutcome:
    """Everything one storm produced, plus the invariant verdicts."""

    def __init__(self) -> None:
        self.requests = 0
        self.by_status: Dict[str, int] = {}
        self.verdict_matches = 0
        self.degraded = 0
        self.violations: List[str] = []
        self.drained: Optional[bool] = None
        self.shed: Dict[str, int] = {}

    def count(self, status: str) -> None:
        self.by_status[status] = self.by_status.get(status, 0) + 1

    def metrics(self) -> Dict[str, float]:
        """Numeric summary for the results store's benchmark history
        (``repro report --trend``): storm health over successive runs."""
        summary: Dict[str, float] = {
            "requests": self.requests,
            "verdict_matches": self.verdict_matches,
            "degraded": self.degraded,
            "violations": len(self.violations),
            "shed": sum(self.shed.values()) if self.shed else 0,
        }
        for status, count in sorted(self.by_status.items()):
            summary[f"status_{status}"] = count
        return summary


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


def plan_storm(
    requests: int,
    fault_rate: float,
    fault_seed: int,
    tiny_deadline_every: int,
    poison_every: int,
) -> List[Tuple[str, object]]:
    """The deterministic request mix: (kind, payload) per request,
    where kind is ``ok`` (a well-formed workload request) or
    ``poison``."""
    plan: List[Tuple[str, object]] = []
    poison_cycle = 0
    for index in range(requests):
        if poison_every and (index + 1) % poison_every == 0:
            plan.append(
                ("poison",
                 _poison_payload(_POISON_KINDS[poison_cycle % len(_POISON_KINDS)],
                                 index))
            )
            poison_cycle += 1
            continue
        deadline = DEFAULT_DEADLINE
        if tiny_deadline_every and (index + 1) % tiny_deadline_every == 0:
            deadline = TINY_DEADLINE
        plan.append(
            ("ok", {
                "id": f"storm-{index}",
                "workload": STORM_WORKLOADS[index % len(STORM_WORKLOADS)],
                "variant": "leak",
                "seed": 1,
                "deadline": deadline,
                "fault_seed": fault_seed + index,
                "fault_rate": fault_rate,
            })
        )
    return plan


def baseline_for(
    name: str, seed: int, deadline: float, fault_seed: int, fault_rate: float
) -> str:
    """The batch verdict (serialized) for one well-formed request:
    exactly what `repro leak` / `repro eval` would compute.  A pure
    function of its primitive arguments, so it doubles as the
    ``serve_baseline`` eval cell."""
    from repro.workloads import get_workload

    workload = get_workload(name)
    kwargs = RunBudget.from_deadline(deadline).engine_kwargs()
    if fault_rate > 0.0:
        kwargs["faults"] = FaultConfig(seed=fault_seed, rate=fault_rate)
    result = run_dual(
        workload.instrumented,
        workload.build_world(seed),
        workload.leak_variant(),
        **kwargs,
    )
    return json.dumps(api.verdict_payload(result), sort_keys=True)


def _baseline_verdict(payload: dict) -> str:
    return baseline_for(
        payload["workload"], payload["seed"], payload["deadline"],
        payload["fault_seed"], payload["fault_rate"],
    )


def faultfree_baseline(name: str, seed: int) -> str:
    """The fault-free batch verdict; the ``serve_faultfree`` cell."""
    from repro.workloads import get_workload

    workload = get_workload(name)
    result = run_dual(
        workload.instrumented, workload.build_world(seed),
        workload.leak_variant(),
    )
    return json.dumps(api.verdict_payload(result), sort_keys=True)


def _prefill_baselines(
    plan: List[Tuple[str, object]],
    baseline_cache: Dict[str, str],
    faultfree_cache: Dict[str, str],
    jobs: int,
) -> None:
    """Fan the storm's baseline verification out as eval cells.

    Verifying invariants 2 and 3 needs one batch ``run_dual`` per
    distinct well-formed request shape plus one fault-free run per
    (workload, seed) — independent pure computations, so they
    decompose into ``serve_baseline`` / ``serve_faultfree`` cells and
    run over ``--jobs`` worker processes.  The request plan is
    deterministic, so the cell list is too.
    """
    from repro.eval.parallel import run_cells

    targets: List[Tuple[Dict[str, str], str]] = []  # (cache, key) per cell
    cells: List[Tuple[str, tuple]] = []
    for kind, payload in plan:
        if kind != "ok":
            continue
        cache_key = json.dumps(payload, sort_keys=True)
        if cache_key not in baseline_cache:
            baseline_cache[cache_key] = ""  # claimed; filled below
            targets.append((baseline_cache, cache_key))
            cells.append(
                ("serve_baseline",
                 (payload["workload"], payload["seed"], payload["deadline"],
                  payload["fault_seed"], payload["fault_rate"]))
            )
        ff_key = f"{payload['workload']}:{payload['seed']}"
        if ff_key not in faultfree_cache:
            faultfree_cache[ff_key] = ""
            targets.append((faultfree_cache, ff_key))
            cells.append(
                ("serve_faultfree", (payload["workload"], payload["seed"]))
            )
    results, _stats = run_cells(cells, jobs)
    for (cache, key), result in zip(targets, results):
        cache[key] = result


def _post(url: str, payload, timeout: float = 120.0) -> Optional[dict]:
    import urllib.error
    import urllib.request

    if isinstance(payload, (dict, list)):
        data = json.dumps(payload).encode()
    elif isinstance(payload, str):
        data = payload.encode()
    else:
        data = payload
    request = urllib.request.Request(
        url.rstrip("/") + "/v1/infer",
        data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return json.loads(reply.read())
    except urllib.error.HTTPError as error:
        try:
            return json.loads(error.read())
        except Exception:
            return None
    except Exception:
        return None


def run_storm(
    requests: int = 60,
    workers: int = 2,
    queue_capacity: int = 8,
    fault_rate: float = 0.1,
    fault_seed: int = 0,
    tiny_deadline_every: int = 7,
    poison_every: int = 11,
    url: Optional[str] = None,
    jobs: int = 1,
) -> StormOutcome:
    """Throw one storm; see the module docstring for the invariants.

    ``jobs`` parallelizes the post-storm baseline verification (one
    batch ``run_dual`` per distinct request shape) over a process pool.
    """
    plan = plan_storm(
        requests, fault_rate, fault_seed, tiny_deadline_every, poison_every
    )
    outcome = StormOutcome()
    outcome.requests = len(plan)

    service = None
    if url is None:
        from repro.serve import LdxService, ServeConfig

        class _Null:
            def write(self, text):
                return len(text)

            def flush(self):
                pass

        service = LdxService(
            ServeConfig(
                workers=workers,
                queue_capacity=queue_capacity,
                log_stream=_Null(),
            )
        ).start()

    results: List[Optional[Tuple[str, object, Optional[dict]]]] = [None] * len(plan)
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
            if service is not None:
                response = service.submit(payload).wait(120.0)
            else:
                response = _post(url, payload)
            results[index] = (kind, payload, response)

    clients = [
        threading.Thread(target=_client, name=f"storm-client-{i}", daemon=True)
        for i in range(min(SUBMITTERS, len(plan)))
    ]
    for client in clients:
        client.start()
    for client in clients:
        client.join()

    if service is not None:
        outcome.drained = service.drain(timeout=120.0)
        if not outcome.drained:
            outcome.violations.append("service did not drain after the storm")
        outcome.shed = service.queue.snapshot()["shed"]

    # Baselines, computed once per distinct well-formed request shape.
    baseline_cache: Dict[str, str] = {}
    faultfree_cache: Dict[str, str] = {}
    if jobs > 1:
        _prefill_baselines(plan, baseline_cache, faultfree_cache, jobs)

    for index, record in enumerate(results):
        if record is None:
            outcome.violations.append(f"request {index} was never dispatched")
            continue
        kind, payload, response = record
        if response is None:
            outcome.violations.append(
                f"request {index} got no response (hang or transport error)"
            )
            continue
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
            baseline_cache[cache_key] = _baseline_verdict(payload)
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
                faultfree_cache[ff_key] = faultfree_baseline(
                    payload["workload"], payload["seed"]
                )
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
    if outcome.drained is not None:
        lines.append(f"  drained cleanly: {outcome.drained}")
    for reason, count in sorted((outcome.shed or {}).items()):
        if count:
            lines.append(f"  shed [{reason}]: {count}")
    if outcome.violations:
        lines.append("  VIOLATIONS:")
        lines.extend(f"    - {violation}" for violation in outcome.violations)
    else:
        lines.append("  all service invariants hold")
    return "\n".join(lines)
