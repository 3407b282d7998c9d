"""Integration tests: the LDX engine on small dual-execution scenarios."""

import pytest

from repro.core import LdxConfig, SinkSpec, SourceSpec, run_dual
from repro.instrument import instrument_module
from repro.ir import compile_source
from repro.vos.world import World


def dual(source, world, config, **kwargs):
    instrumented = instrument_module(compile_source(source))
    return run_dual(instrumented, world, config, **kwargs)


def world_with_secret(value="7"):
    world = World(seed=1)
    world.fs.add_file("/etc/secret", value)
    world.network.register("sink.example", 80, lambda req: "ack")
    return world


SECRET_SOURCE = SourceSpec(file_paths={"/etc/secret"})
NET_SINKS = SinkSpec.network_out()


def test_perfect_alignment_without_sources():
    source = """
    fn main() {
      var fd = open("/etc/secret", "r");
      var data = read(fd, 10);
      close(fd);
      var s = socket();
      connect(s, "sink.example", 80);
      send(s, "hello " + data);
    }
    """
    result = dual(source, world_with_secret(), LdxConfig(SourceSpec(), NET_SINKS))
    assert not result.report.causality_detected
    assert result.report.syscall_diffs == 0
    assert result.report.sinks_total == 1
    assert result.master_stdout == result.slave_stdout


def test_data_dependence_leak_detected():
    # Fig. 1 (a): sink value arithmetically derived from the source.
    source = """
    fn main() {
      var fd = open("/etc/secret", "r");
      var x = parse_int(read(fd, 10));
      close(fd);
      var y = x * 2 + 1;
      var s = socket();
      connect(s, "sink.example", 80);
      send(s, y);
    }
    """
    result = dual(source, world_with_secret("7"), LdxConfig(SECRET_SOURCE, NET_SINKS))
    assert result.report.causality_detected
    kinds = {d.kind for d in result.report.detections}
    assert "sink-args-differ" in kinds


def test_control_dependence_strong_cc_detected():
    # Fig. 1 (b): branch outcome fully determines the sink value.
    source = """
    fn main() {
      var fd = open("/etc/secret", "r");
      var x = parse_int(read(fd, 10));
      close(fd);
      var s = 0;
      if (x == 7) { s = 10; } else { s = 20; }
      var sock = socket();
      connect(sock, "sink.example", 80);
      send(sock, s);
    }
    """
    result = dual(source, world_with_secret("7"), LdxConfig(SECRET_SOURCE, NET_SINKS))
    assert result.report.causality_detected


def test_weak_causality_not_reported():
    # Fig. 1 (c): many source values map to the same sink value; the
    # off-by-one mutation (50 -> 51) keeps the predicate outcome, so no
    # difference reaches the sink — LDX stays silent where
    # control-dependence tainting would (wrongly) report.
    source = """
    fn main() {
      var fd = open("/etc/secret", "r");
      var s = parse_int(read(fd, 10));
      close(fd);
      var x = 0;
      if (s > 0) { x = 1; }
      var sock = socket();
      connect(sock, "sink.example", 80);
      send(sock, x);
    }
    """
    result = dual(source, world_with_secret("50"), LdxConfig(SECRET_SOURCE, NET_SINKS))
    assert not result.report.causality_detected


def test_missing_update_strong_cc_detected():
    # Fig. 1 (d): the *absence* of an update leaks; data+control
    # dependence tracking misses this, counterfactual causality does not.
    source = """
    fn main() {
      var fd = open("/etc/secret", "r");
      var s = parse_int(read(fd, 10));
      close(fd);
      var x = 0;
      if (s == 10) { } else { x = 1; }
      var sock = socket();
      connect(sock, "sink.example", 80);
      send(sock, x);
    }
    """
    result = dual(source, world_with_secret("10"), LdxConfig(SECRET_SOURCE, NET_SINKS))
    assert result.report.causality_detected


def test_path_difference_tolerated_and_realigned():
    # The mutation flips a branch with different syscalls inside; the
    # counter scheme must realign at the join and still compare sinks.
    source = """
    fn main() {
      var fd = open("/etc/secret", "r");
      var x = parse_int(read(fd, 10));
      close(fd);
      if (x == 7) {
        var f = open("/tmp/a.txt", "w");
        write(f, "A");
        close(f);
      } else {
        var g = open("/tmp/b.txt", "w");
        write(g, "B");
        write(g, "B2");
        close(g);
      }
      var sock = socket();
      connect(sock, "sink.example", 80);
      send(sock, "done");
    }
    """
    world = world_with_secret("7")
    world.fs.mkdir("/tmp")
    result = dual(source, world, LdxConfig(SECRET_SOURCE, NET_SINKS))
    # The sink itself does not depend on the secret: no causality.
    assert not result.report.causality_detected
    # But the divergent file syscalls are real syscall differences.
    assert result.report.syscall_diffs > 0
    assert result.report.sinks_total == 1


def test_sink_missing_in_slave_detected():
    # The mutated input suppresses the sink entirely (Algorithm 2 case 1).
    source = """
    fn main() {
      var fd = open("/etc/secret", "r");
      var x = parse_int(read(fd, 10));
      close(fd);
      var sock = socket();
      connect(sock, "sink.example", 80);
      if (x == 7) {
        send(sock, "leak!");
      }
      close(sock);
    }
    """
    result = dual(source, world_with_secret("7"), LdxConfig(SECRET_SOURCE, NET_SINKS))
    assert result.report.causality_detected
    assert any(d.kind == "sink-missing-in-slave" for d in result.report.detections)


def test_sink_only_in_slave_detected():
    source = """
    fn main() {
      var fd = open("/etc/secret", "r");
      var x = parse_int(read(fd, 10));
      close(fd);
      var sock = socket();
      connect(sock, "sink.example", 80);
      if (x != 7) {
        send(sock, "mutant output");
      }
      close(sock);
    }
    """
    result = dual(source, world_with_secret("7"), LdxConfig(SECRET_SOURCE, NET_SINKS))
    assert result.report.causality_detected
    assert any(d.kind == "sink-only-in-slave" for d in result.report.detections)


def test_nondeterministic_outcomes_shared():
    # The slave world is re-seeded, so its own time()/rand() streams
    # differ — outcome sharing must prevent false causality.
    source = """
    fn main() {
      var t = time();
      var r = rand();
      var sock = socket();
      connect(sock, "sink.example", 80);
      send(sock, t + r);
    }
    """
    world = world_with_secret()
    slave_world = world.clone(new_seed=99)
    result = dual(
        source,
        world,
        LdxConfig(SourceSpec(), NET_SINKS),
        slave_world=slave_world,
    )
    assert not result.report.causality_detected


def test_without_sharing_nondet_would_differ():
    # Sanity check of the previous test's premise: the re-seeded world
    # really does produce different rand() values.
    world = World(seed=1)
    reseeded = world.clone(new_seed=99)
    assert world.rng.next_int(1 << 30) != reseeded.rng.next_int(1 << 30)


def test_resource_taint_decouples_later_reads():
    # The slave takes a path that writes a file the master never writes;
    # later both read it.  The slave must see its own content (taint),
    # and the final sink must reflect the difference.
    source = """
    fn main() {
      var fd = open("/etc/secret", "r");
      var x = parse_int(read(fd, 10));
      close(fd);
      var w = open("/work/state.txt", "w");
      if (x == 7) {
        write(w, "master-state");
      } else {
        write(w, "mutant-state");
      }
      close(w);
      var r = open("/work/state.txt", "r");
      var state = read(r, 64);
      close(r);
      var sock = socket();
      connect(sock, "sink.example", 80);
      send(sock, state);
    }
    """
    world = world_with_secret("7")
    world.fs.mkdir("/work")
    result = dual(source, world, LdxConfig(SECRET_SOURCE, NET_SINKS))
    assert result.report.causality_detected
    detection = result.report.detections[-1]
    assert detection.master_args != detection.slave_args
    assert len(result.report.tainted_resources) > 0


def test_mutated_source_count_recorded():
    source = """
    fn main() {
      var fd = open("/etc/secret", "r");
      var a = read(fd, 1);
      var b = read(fd, 1);
      close(fd);
      print(a + b);
    }
    """
    world = world_with_secret("42")
    result = dual(source, world, LdxConfig(SECRET_SOURCE, SinkSpec.file_out()))
    assert result.report.mutated_source_reads == 2


def test_annotated_source_and_sink():
    source = """
    fn main() {
      var secret = source_read("credit-card");
      sink_observe("exfil", secret % 10);
    }
    """
    world = World(seed=1)
    world.sources["credit-card"] = 1234
    config = LdxConfig(
        SourceSpec(labels={"credit-card"}),
        SinkSpec(syscall_names=(), labels={"exfil"}),
    )
    result = dual(source, world, config)
    assert result.report.causality_detected


def test_dual_times_exceed_zero_and_master_close_to_native():
    source = """
    fn main() {
      var total = 0;
      for (var i = 0; i < 50; i = i + 1) { total = total + i; }
      print(total);
    }
    """
    result = dual(source, World(seed=1), LdxConfig(SourceSpec(), SinkSpec.file_out()))
    assert result.dual_time > 0
    assert result.master.time > 0
    assert result.slave.time > 0


def test_each_syscall_computes_its_resource_once_per_side(monkeypatch):
    # The engine takes a syscall's resource once, before it runs, and
    # passes it to the source match, the signature and the aligned
    # resolution: between two syscalls executed on one kernel there is
    # at most one ``resource_of`` call.
    from repro.core import FaultConfig
    from repro.vos.kernel import Kernel
    from repro.workloads import get_workload

    log = []
    real_resource_of = Kernel.resource_of
    real_execute = Kernel.execute

    def resource_of(self, name, args):
        log.append((id(self), "resource"))
        return real_resource_of(self, name, args)

    def execute(self, name, args, *rest, **kwargs):
        log.append((id(self), "execute"))
        return real_execute(self, name, args, *rest, **kwargs)

    monkeypatch.setattr(Kernel, "resource_of", resource_of)
    monkeypatch.setattr(Kernel, "execute", execute)
    workload = get_workload("gzip")
    result = run_dual(
        workload.instrumented,
        workload.build_world(1),
        workload.leak_variant(),
        faults=FaultConfig(seed=7, rate=0.2),
    )
    assert result.degradation.faults_injected
    kernels = {kernel for kernel, _ in log}
    assert len(kernels) == 2
    for kernel in kernels:
        calls = [what for owner, what in log if owner == kernel]
        assert calls.count("resource") > 0
        assert calls.count("resource") <= calls.count("execute")
        repeats = [
            position for position in range(1, len(calls))
            if calls[position] == calls[position - 1] == "resource"
        ]
        assert not repeats, f"{len(repeats)} syscalls took their resource twice"
