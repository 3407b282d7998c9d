"""Backend invariance over the full workload registry, plus the CLI
surface of the threaded backend (--interp-backend, --profile-interp,
``repro profile``).

This is the repository-level statement of the tentpole contract: the
threaded-code backend changes how fast MiniC executes, never what it
computes.  Every workload is dual-executed under both backends with
its leak variant (the configuration that exercises mutation, coupling
and detection) and every observable compared exactly; every baseline
(LIBDFT, TaintGrind, DualEx, TightLip) is run on both backends and its
results compared field by field.
"""

import json

import pytest

from repro.baselines.dualex import run_dualex
from repro.baselines.native import run_native
from repro.baselines.taint import run_taint
from repro.baselines.tightlip import run_tightlip
from repro.cli import main
from repro.core import run_dual
from repro.workloads import ALL_WORKLOADS, get_workload

WORKLOAD_NAMES = [w.name for w in ALL_WORKLOADS]


def _dual_fingerprint(result):
    return (
        result.report.summary(),
        result.report.causality_detected,
        result.report.syscall_diffs,
        result.report.stall_breaks,
        sorted(result.report.tainted_resources),
        result.master_stdout,
        result.slave_stdout,
        result.master.time,
        result.slave.time,
        result.master.stats.instructions,
        result.slave.stats.instructions,
        result.master.stats.edge_actions,
        result.slave.stats.edge_actions,
        result.master.stats.counter_samples,
        result.slave.stats.counter_samples,
    )


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_dual_identical_across_backends(name):
    workload = get_workload(name)
    fingerprints = []
    for backend in ("switch", "threaded"):
        result = run_dual(
            workload.instrumented, workload.build_world(1),
            workload.leak_variant(), backend=backend,
        )
        fingerprints.append(_dual_fingerprint(result))
    assert fingerprints[0] == fingerprints[1]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_native_identical_across_backends(name):
    workload = get_workload(name)
    runs = []
    for backend in ("switch", "threaded"):
        result = run_native(
            workload.module, workload.build_world(1), backend=backend
        )
        runs.append(
            (result.stdout, result.time, result.stats.instructions,
             result.sink_values())
        )
    assert runs[0] == runs[1]


def _baseline_fingerprint(workload):
    """Every field of every baseline result the tables read, with the
    virtual times as ``repr`` so any float drift shows."""
    fields = []
    for config in (workload.config(), workload.table3_variant()):
        for tool in ("libdft", "taintgrind"):
            taint = run_taint(workload.module, workload.build_world(1), config, tool)
            fields.append(
                (tool, repr(taint.time), taint.tainted_sinks, taint.sinks_total,
                 taint.stdout, taint.machine.stats.instructions,
                 sorted(taint.tracker.resource_taint.items()))
            )
    dualex = run_dualex(workload.module, workload.build_world(1), workload.config())
    fields.append(
        ("dualex", dualex.detections, dualex.sinks_total,
         repr(dualex.master_time), repr(dualex.slave_time))
    )
    for config in (workload.leak_variant(), workload.noleak_variant()):
        if config is None:
            continue
        tight = run_tightlip(workload.module, workload.build_world(1), config)
        fields.append(
            ("tightlip", tight.leak_reported, tight.divergence_position,
             tight.divergence_reason, tight.syscalls_compared,
             tight.terminated_early, repr(tight.master_time),
             repr(tight.slave_time))
        )
    return fields


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_baselines_identical_across_backends(name):
    # The baselines run on whatever backend is the process default
    # (``--interp-backend``); the trackers observe either one.
    from repro.interp import set_default_backend

    workload = get_workload(name)
    fingerprints = []
    for backend in ("switch", "threaded"):
        set_default_backend(backend)
        fingerprints.append(_baseline_fingerprint(workload))
    assert fingerprints[0] == fingerprints[1]


# -- CLI surface ----------------------------------------------------------------


@pytest.fixture(autouse=True)
def _restore_default_backend():
    # CLI handlers set the process-wide default; don't leak it.
    from repro.interp import get_default_backend, set_default_backend

    original = get_default_backend()
    yield
    set_default_backend(original)


@pytest.fixture()
def program(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(
        "fn main() {\n"
        "  var i = 0;\n"
        "  while (i < 10) { print(i); i = i + 1; }\n"
        "}\n"
    )
    return str(path)


def test_cli_run_accepts_both_backends(program, capsys):
    outputs = []
    for backend in ("switch", "threaded"):
        assert main(["run", program, "--interp-backend", backend]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == "0123456789"


def test_cli_run_rejects_unknown_backend(program):
    with pytest.raises(SystemExit):
        main(["run", program, "--interp-backend", "jit"])


def test_cli_run_profile_report_goes_to_stderr(program, capsys):
    assert main(["run", program, "--profile-interp", "--top", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "0123456789"
    assert "opcode" in captured.err
    assert "instructions" in captured.err


def test_cli_profile_command_writes_json(tmp_path, capsys):
    artifact = tmp_path / "profile.json"
    assert main(["profile", "bzip2", "--json", str(artifact), "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "workload: bzip2" in out
    assert "native (instrumented)" in out
    assert "master" in out and "slave" in out
    payload = json.loads(artifact.read_text())
    assert payload["schema"] == "ldx-profile-v2"
    assert payload["workload"] == "bzip2"
    assert set(payload["executions"]) == {
        "native (instrumented)", "master", "slave"
    }
    for section in payload["executions"].values():
        assert section["instructions"] == sum(
            entry["count"] for entry in section["opcodes"].values()
        )


def test_cli_profile_identical_across_backends(tmp_path):
    payloads = []
    for backend in ("switch", "threaded"):
        artifact = tmp_path / f"{backend}.json"
        assert main(
            ["profile", "mcf", "--json", str(artifact), "--interp-backend", backend]
        ) == 0
        payload = json.loads(artifact.read_text())
        payload.pop("backend")
        payloads.append(payload)
    assert payloads[0] == payloads[1]
