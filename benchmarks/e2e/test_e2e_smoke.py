"""Smoke test for the end-to-end benchmark at ``--quick`` sizes.

Not collected by tier-1 (``testpaths`` is ``tests``); run it explicitly:

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import serveload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _quick(tmp_path, *extra):
    out = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out),
         "--trace-dir", str(tmp_path / "trace"), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    return json.loads(out.read_text())["runs"]


def _units(specs):
    return {spec["name"]: spec["unit"] for spec in specs}


def test_metric_tables_match_benchmark_json():
    assert _units(BENCHMARK["end_to_end"]) == run.END_TO_END_UNITS
    assert _units(BENCHMARK["per_layer"]) == run.PER_LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_quick_run_prints_every_end_to_end_metric_and_passes_checks(tmp_path):
    runs = _quick(tmp_path)
    assert [r["workload"] for r in runs] == list(run.WORKLOADS)
    for result in runs:
        assert result["correct"], result["problems"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
        for entry in result["metrics"].values():
            assert entry["value"] > 0 and entry["n"] >= 1


def test_quick_traced_run_prints_every_per_layer_metric(tmp_path):
    runs = _quick(tmp_path, "--trace", "1", "--workload", "chaos-sweep",
                  "--workload", "serve-mixed")
    for result in runs:
        assert result["correct"], result["problems"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER_UNITS
        # Interpreter start-up weighs more in a 1.5 s quick invocation
        # than at full size, where layers cover over 90% of the wall.
        assert result["metrics"]["trace.unattributed_pct"]["value"] < 20.0
        assert (tmp_path / "trace" / result["workload"] / "trace.json").is_file()
        assert (tmp_path / "trace" / result["workload"] / "amdahl.txt").is_file()


def test_host_speed_sampler_samples_and_stops(tmp_path):
    speed = hostspeed.HostSpeed(tmp_path / "hostspeed.log")
    with speed:
        time.sleep(0.5)
        sampler = speed._proc
    assert sampler.returncode == 0
    assert len(speed.samples_ms) >= 3 and all(s > 0 for s in speed.samples_ms)
    # Twice as slow a host halves the factor: raw times are scaled down.
    slow = hostspeed.HostSpeed(tmp_path / "unused.log")
    slow.samples_ms = [2 * s for s in speed.samples_ms]
    assert abs(slow.factor() * 2 - speed.factor()) < 1e-9


def test_tampered_report_digest_is_flagged():
    report = b"Table 1 ...\n"
    reference = checks.sha256(report)
    assert checks.check_digest("eval", report, reference) is None
    assert checks.check_digest("eval", report + b" ", reference) is not None


def _set_file(path, values, failed=0, correct=True, workloads=("chaos-sweep",)):
    runs = [
        {"workload": workload, "attempted": 10, "failed": failed, "correct": correct,
         "metrics": {name: {"value": value, "unit": unit}
                     for name, unit in run.END_TO_END_UNITS.items()}}
        for workload in workloads for value in values
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_verdicts_and_exit_codes(tmp_path, capsys):
    steady = [100.0, 101.0, 102.0, 103.0]
    a = _set_file(tmp_path / "a.json", steady)
    assert run.compare(a, _set_file(tmp_path / "same.json", steady)) == 0
    # Failures, a failed check or a missing workload regress whatever the timings.
    assert run.compare(a, _set_file(tmp_path / "failed.json", steady, failed=1)) == 1
    assert run.compare(a, _set_file(tmp_path / "wrong.json", steady, correct=False)) == 1
    assert run.compare(a, _set_file(tmp_path / "gone.json", steady, workloads=())) == 1
    # Spreads wider than every bound: unresolved, unless B is always worse.
    noisy = _set_file(tmp_path / "noisy.json", [50.0, 100.0, 150.0, 200.0])
    assert run.compare(a, noisy) == 3
    assert run.compare(noisy, _set_file(tmp_path / "worse.json", [400.0, 500.0, 600.0, 700.0])) == 1
    assert "unresolved=" in capsys.readouterr().out


def test_tampered_verdict_is_flagged():
    expected = checks.BatchVerdicts()
    request = serveload.Request(
        "t0", "warm", ("workload", "gzip", "leak"),
        {"id": "t0", "workload": "gzip", "variant": "leak"},
    )
    verdict = json.loads(expected(request.shape))
    tampered = copy.deepcopy(verdict)
    tampered["causality"] = not tampered["causality"]
    records = [
        serveload.Record(request, 0.0, 0.0, 0.0, {"status": "ok", "verdict": verdict}),
        serveload.Record(request, 0.0, 0.0, 0.0, {"status": "ok", "verdict": tampered}),
        serveload.Record(request, 0.0, 0.0, 0.0, {"status": "overloaded", "reason": "full"}),
    ]
    failed, problems = checks.verify_responses(records, expected)
    assert failed == 2
    assert "verdict differs" in problems[0] and "overloaded" in problems[1]
