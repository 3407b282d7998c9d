"""Unit tests for source/sink configuration matching."""

from repro.core.config import LdxConfig, SinkSpec, SourceSpec
from repro.core.mutation import off_by_one
from repro.interp.events import SyscallEvent
from repro.vos.kernel import Kernel
from repro.vos.world import World


def event(name, args):
    return SyscallEvent(None, 0, "main", 0, (1,), name, args)


def matches(spec, syscall, kernel):
    """The source *syscall* reads on *kernel*, as the engine asks."""
    return spec.matches(syscall, kernel.resource_of(syscall.name, syscall.args))


def make_kernel():
    world = World(seed=1)
    world.fs.add_file("/etc/secret", "data")
    world.fs.add_file("/etc/other", "data")
    world.network.register("feed.example", 9, lambda req: "tick")
    world.env["HOME"] = "/home"
    return Kernel(world)


def test_file_source_matching():
    kernel = make_kernel()
    spec = SourceSpec(file_paths={"/etc/secret"})
    fd = kernel.execute("open", ("/etc/secret", "r"))
    other = kernel.execute("open", ("/etc/other", "r"))
    assert matches(spec, event("read", (fd, 4)), kernel) == "file:/etc/secret"
    assert matches(spec, event("read_line", (fd,)), kernel) == "file:/etc/secret"
    assert matches(spec, event("read", (other, 4)), kernel) is None
    assert matches(spec, event("write", (fd, "x")), kernel) is None


def test_stdin_source_matching():
    kernel = make_kernel()
    spec = SourceSpec(stdin=True)
    assert matches(spec, event("read", (0, 4)), kernel) == "stdin"
    assert matches(SourceSpec(), event("read", (0, 4)), kernel) is None


def test_network_source_matching():
    kernel = make_kernel()
    spec = SourceSpec(network={"feed.example:9"})
    sock = kernel.execute("socket", ())
    kernel.execute("connect", (sock, "feed.example", 9))
    assert matches(spec, event("recv", (sock, 16)), kernel) == "conn:feed.example:9"
    assert matches(spec, event("send", (sock, "x")), kernel) is None


def test_env_and_label_sources():
    kernel = make_kernel()
    spec = SourceSpec(env_names={"HOME"}, labels={"secret"})
    assert matches(spec, event("getenv", ("HOME",)), kernel) == "env:HOME"
    assert matches(spec, event("getenv", ("PATH",)), kernel) is None
    assert matches(spec, event("source_read", ("secret",)), kernel) == "annot:secret"
    assert matches(spec, event("source_read", ("other",)), kernel) is None


def test_custom_mutator_lookup():
    upper = lambda value: value.upper()
    spec = SourceSpec(file_paths={"/a"}, mutators={"file:/a": upper})
    assert spec.mutator_for("file:/a") is upper
    assert spec.mutator_for("file:/b") is None


def test_source_count():
    spec = SourceSpec(
        file_paths={"/a", "/b"}, stdin=True, network={"h:1"}, labels={"l"}
    )
    assert spec.count == 5


def test_sink_spec_network_and_file_defaults():
    net = SinkSpec.network_out()
    assert net.matches(event("send", (3, "x")))
    assert not net.matches(event("write", (1, "x")))
    files = SinkSpec.file_out()
    assert files.matches(event("write", (1, "x")))
    assert files.matches(event("print", ("x",)))
    assert not files.matches(event("send", (3, "x")))


def test_sink_spec_annotations():
    any_label = SinkSpec(syscall_names=())
    assert any_label.matches(event("sink_observe", ("anything", 1)))
    scoped = SinkSpec(syscall_names=(), labels={"retaddr"})
    assert scoped.matches(event("sink_observe", ("retaddr", 1)))
    assert not scoped.matches(event("sink_observe", ("other", 1)))


def test_attack_detection_sinks():
    spec = SinkSpec.attack_detection()
    assert spec.matches(event("malloc", (64,)))
    assert spec.matches(event("sink_observe", ("retaddr:f", 1)))
    assert not spec.matches(event("send", (1, "x")))


def test_config_default_mutation_is_off_by_one():
    config = LdxConfig(SourceSpec(), SinkSpec())
    assert config.mutation is off_by_one
