"""Unit tests for the virtual OS: filesystem, network, kernel."""

import pytest

from repro.vos.clock import DeterministicRng, VirtualClock
from repro.vos.filesystem import VirtualFS, parent_dir
from repro.vos.kernel import Kernel, ProgramExit
from repro.vos.network import Network
from repro.vos.resources import ResourceTaintMap
from repro.vos.world import World


# -- filesystem ---------------------------------------------------------------


def test_parent_dir():
    assert parent_dir("/a/b/c") == "/a/b"
    assert parent_dir("/a") == "/"
    assert parent_dir("/") == "/"


def test_add_file_creates_parents():
    fs = VirtualFS()
    fs.add_file("/etc/app/config", "x=1")
    assert fs.is_dir("/etc")
    assert fs.is_dir("/etc/app")
    assert fs.is_file("/etc/app/config")


def test_listdir():
    fs = VirtualFS()
    fs.add_file("/d/a", "1")
    fs.add_file("/d/b", "2")
    fs.add_file("/d/sub/c", "3")
    assert fs.listdir("/d") == ["a", "b", "sub"]
    assert fs.listdir("/nope") is None


def test_mkdir_requires_parent():
    fs = VirtualFS()
    assert not fs.mkdir("/a/b")
    assert fs.mkdir("/a")
    assert fs.mkdir("/a/b")
    assert not fs.mkdir("/a")  # already exists


def test_unlink_file_and_empty_dir():
    fs = VirtualFS()
    fs.add_file("/d/f", "x")
    assert fs.unlink("/d/f")
    assert not fs.is_file("/d/f")
    assert fs.unlink("/d")
    assert not fs.unlink("/nope")


def test_unlink_nonempty_dir_fails():
    fs = VirtualFS()
    fs.add_file("/d/f", "x")
    assert not fs.unlink("/d")


def test_rename():
    fs = VirtualFS()
    fs.add_file("/a", "data")
    assert fs.rename("/a", "/b")
    assert fs.file("/b").content == "data"
    assert not fs.is_file("/a")
    assert not fs.rename("/missing", "/c")


def test_clone_is_deep():
    fs = VirtualFS()
    fs.add_file("/a", "original")
    copy = fs.clone()
    copy.file("/a").content = "changed"
    assert fs.file("/a").content == "original"


def test_normalize_resolves_dot_segments():
    fs = VirtualFS()
    fs.add_file("/a/b", "data")
    # All aliases of /a/b resolve to the same file.
    assert fs.file("/a/./b").content == "data"
    assert fs.file("/a/x/../b").content == "data"
    assert fs.file("//a///b").content == "data"
    fs.file("/a/c/../b").content = "rewritten"
    assert fs.file("/a/b").content == "rewritten"
    assert fs.paths() == ["/a/b"]


def test_normalize_clamps_dotdot_at_root():
    fs = VirtualFS()
    fs.add_file("/../../etc/secret", "s")
    assert fs.is_file("/etc/secret")
    assert fs.file("/etc/../../../etc/secret").content == "s"
    assert fs.is_dir("/..")  # clamps to "/"


def test_aliased_write_is_one_file_not_two():
    """The copy-on-divergence regression: an aliased path must not
    create a second file that escapes FS diffing."""
    fs = VirtualFS()
    fs.add_file("/a/../b", "one")
    fs.add_file("/b", "two")
    assert fs.paths() == ["/b"]
    assert fs.file("/b").content == "two"
    clone = fs.clone()
    assert clone.paths() == fs.paths()


def test_listdir_dot_segment_aliases_and_root():
    fs = VirtualFS()
    fs.add_file("/d/a", "1")
    assert fs.listdir("/d/../d") == ["a"]
    assert fs.listdir("/d/a") is None  # a file, not a directory
    assert fs.listdir("/") == ["d"]
    assert VirtualFS().listdir("/") == []


def test_unlink_via_alias_and_root():
    fs = VirtualFS()
    fs.add_file("/d/f", "x")
    assert fs.unlink("/d/./f")
    assert not fs.is_file("/d/f")
    assert fs.unlink("/d/../d")
    assert not fs.unlink("/")  # the root is not removable
    assert not fs.unlink("/..")  # ..-clamped alias of the root


# -- network --------------------------------------------------------------------


def test_connect_to_registered_endpoint():
    net = Network()
    net.register("example.com", 80, lambda req: f"echo:{req}")
    conn = net.connect("example.com", 80)
    assert conn is not None
    conn.send("hello")
    assert conn.recv(100) == "echo:hello"


def test_connect_unknown_address_fails():
    assert Network().connect("nowhere", 1) is None


def test_recv_is_incremental():
    net = Network()
    net.register("h", 1, lambda req: "abcdef")
    conn = net.connect("h", 1)
    conn.send("x")
    assert conn.recv(3) == "abc"
    assert conn.recv(3) == "def"
    assert conn.recv(3) == ""


def test_network_clone_preserves_connections():
    net = Network()
    net.register("h", 1, lambda req: "resp")
    conn = net.connect("h", 1)
    conn.send("a")
    clone = net.clone()
    assert clone.connections[0].sent == ["a"]
    clone.connections[0].send("b")
    assert conn.sent == ["a"]


def _counting_endpoint():
    """A stateful endpoint: each response carries a request counter."""
    count = [0]

    def script(req):
        count[0] += 1
        return f"r{count[0]}:{req};"

    return script


def test_stateful_endpoint_clone_isolation_regression():
    """The clone-isolation bug: a slave send on a cloned network must
    not advance endpoint state the master's later responses depend on.

    Master responses must be identical with and without slave sends.
    """

    def run_master(with_slave_sends):
        net = Network()
        net.register_factory("srv", 1, _counting_endpoint)
        master = net.connect("srv", 1)
        master.send("m1")
        slave_net = net.clone()
        if with_slave_sends:
            slave_net.connections[0].send("s1")
            slave_net.connections[0].send("s2")
        master.send("m2")
        return master.recv(1000)

    assert run_master(False) == run_master(True) == "r1:m1;r2:m2;"


def test_stateful_endpoint_clone_replays_sent_state():
    """The clone's fresh script instance continues from the replayed
    state, not from zero — and past responses are carried verbatim."""
    net = Network()
    net.register_factory("srv", 1, _counting_endpoint)
    conn = net.connect("srv", 1)
    conn.send("a")
    conn.send("b")
    clone = net.clone()
    clone.connections[0].send("c")
    assert clone.connections[0].recv(1000) == "r1:a;r2:b;r3:c;"
    # The original's counter was untouched by the clone's send.
    conn.send("c")
    assert conn.recv(1000) == "r1:a;r2:b;r3:c;"


def test_stateful_endpoint_fresh_instance_per_connection():
    net = Network()
    net.register_factory("srv", 1, _counting_endpoint)
    first = net.connect("srv", 1)
    second = net.connect("srv", 1)
    first.send("x")
    second.send("y")
    assert first.recv(100) == "r1:x;"
    assert second.recv(100) == "r1:y;"


def test_send_recv_after_close_fail():
    net = Network()
    net.register("h", 1, lambda req: "resp")
    conn = net.connect("h", 1)
    conn.send("a")
    conn.closed = True
    assert conn.send("b") is None
    assert conn.recv(10) is None
    assert conn.sent == ["a"]  # the rejected send left no trace


# -- clock / rng ------------------------------------------------------------------


def test_clock_monotonic():
    clock = VirtualClock()
    assert clock.read() < clock.read()


def test_rng_deterministic():
    a = DeterministicRng(5)
    b = DeterministicRng(5)
    assert [a.next_int(100) for _ in range(5)] == [b.next_int(100) for _ in range(5)]


def test_rng_seeds_differ():
    a = DeterministicRng(5)
    b = DeterministicRng(6)
    assert [a.next_int(1000) for _ in range(5)] != [b.next_int(1000) for _ in range(5)]


def test_rng_rejects_bound_above_modulus():
    rng = DeterministicRng(5)
    with pytest.raises(ValueError):
        rng.next_int(DeterministicRng.MODULUS + 1)
    with pytest.raises(ValueError):
        rng.next_int(2**31)
    # The largest satisfiable bound works; the state is untouched by
    # rejected calls, so streams stay reproducible.
    probe = DeterministicRng(5)
    assert rng.next_int(DeterministicRng.MODULUS) == probe.next_int(
        DeterministicRng.MODULUS
    )


def test_rng_small_and_degenerate_bounds():
    rng = DeterministicRng(5)
    assert all(0 <= rng.next_int(1) < 1 for _ in range(5))
    assert all(0 <= rng.next_int(7) < 7 for _ in range(100))


def test_rng_clone_preserves_stream_exactly():
    rng = DeterministicRng(42)
    for _ in range(10):
        rng.next_int(1000)
    clone = rng.clone()
    assert [rng.next_int(1000) for _ in range(20)] == [
        clone.next_int(1000) for _ in range(20)
    ]


def test_rng_clone_survives_pickling():
    """Process-pool workers receive seeds/state by pickling; the
    stream must continue identically on the other side."""
    import pickle

    rng = DeterministicRng(7)
    for _ in range(5):
        rng.next_int(100)
    shipped = pickle.loads(pickle.dumps(rng.clone()))
    assert [rng.next_int(10**6) for _ in range(20)] == [
        shipped.next_int(10**6) for _ in range(20)
    ]


# -- kernel -------------------------------------------------------------------------


def make_kernel():
    world = World(seed=1)
    world.fs.add_file("/data/input.txt", "hello\nworld\n")
    world.stdin = "stdin-content"
    world.env["HOME"] = "/home/user"
    world.network.register("srv", 9, lambda req: f"ok:{req}")
    return Kernel(world)


def test_open_read_close():
    kernel = make_kernel()
    fd = kernel.execute("open", ("/data/input.txt", "r"))
    assert fd >= 3
    assert kernel.execute("read", (fd, 5)) == "hello"
    assert kernel.execute("read", (fd, 100)) == "\nworld\n"
    assert kernel.execute("read", (fd, 10)) == ""
    assert kernel.execute("close", (fd,)) == 0
    assert kernel.execute("close", (fd,)) == -1


def test_open_missing_file_fails():
    kernel = make_kernel()
    assert kernel.execute("open", ("/missing", "r")) == -1


def test_open_write_creates_and_truncates():
    kernel = make_kernel()
    fd = kernel.execute("open", ("/data/out.txt", "w"))
    kernel.execute("write", (fd, "abc"))
    kernel.execute("close", (fd,))
    fd2 = kernel.execute("open", ("/data/out.txt", "w"))
    kernel.execute("write", (fd2, "z"))
    assert kernel.world.fs.file("/data/out.txt").content == "z"


def test_append_mode():
    kernel = make_kernel()
    fd = kernel.execute("open", ("/data/input.txt", "a"))
    kernel.execute("write", (fd, "!"))
    assert kernel.world.fs.file("/data/input.txt").content == "hello\nworld\n!"


def test_read_line():
    kernel = make_kernel()
    fd = kernel.execute("open", ("/data/input.txt", "r"))
    assert kernel.execute("read_line", (fd,)) == "hello\n"
    assert kernel.execute("read_line", (fd,)) == "world\n"
    assert kernel.execute("read_line", (fd,)) == ""


def test_stdin_read():
    kernel = make_kernel()
    assert kernel.execute("read", (0, 5)) == "stdin"
    assert kernel.execute("read", (0, 100)) == "-content"


def test_write_to_stdout_logged():
    kernel = make_kernel()
    assert kernel.execute("write", (1, "out")) == 3
    assert kernel.stdout == ["out"]
    assert kernel.output_log[-1][0] == "write"


def test_seek():
    kernel = make_kernel()
    fd = kernel.execute("open", ("/data/input.txt", "r"))
    kernel.execute("seek", (fd, 6))
    assert kernel.execute("read", (fd, 5)) == "world"


def test_stat():
    kernel = make_kernel()
    size, mtime = kernel.execute("stat", ("/data/input.txt",))
    assert size == len("hello\nworld\n")
    assert kernel.execute("stat", ("/missing",)) is None


def test_socket_connect_send_recv():
    kernel = make_kernel()
    fd = kernel.execute("socket", ())
    assert kernel.execute("connect", (fd, "srv", 9)) == 0
    assert kernel.execute("send", (fd, "ping")) == 4
    assert kernel.execute("recv", (fd, 10)) == "ok:ping"


def test_connect_unknown_host_fails():
    kernel = make_kernel()
    fd = kernel.execute("socket", ())
    assert kernel.execute("connect", (fd, "nope", 1)) == -1


def test_time_and_rand_nondeterministic_sources():
    kernel = make_kernel()
    t1 = kernel.execute("time", ())
    t2 = kernel.execute("time", ())
    assert t2 > t1
    r1 = kernel.execute("rand", ())
    assert isinstance(r1, int)


def test_getenv():
    kernel = make_kernel()
    assert kernel.execute("getenv", ("HOME",)) == "/home/user"
    assert kernel.execute("getenv", ("NOPE",)) is None


def test_exit_raises():
    kernel = make_kernel()
    with pytest.raises(ProgramExit) as info:
        kernel.execute("exit", (3,))
    assert info.value.code == 3


def test_malloc_records_allocation_sink():
    kernel = make_kernel()
    addr = kernel.execute("malloc", (100,))
    assert addr >= kernel.world.heap_base
    assert kernel.allocations == [(100, addr)]
    assert kernel.execute("free", (addr,)) == 0


def test_sink_observe_and_source_read():
    kernel = make_kernel()
    kernel.world.sources["secret"] = "s3cr3t"
    assert kernel.execute("source_read", ("secret",)) == "s3cr3t"
    kernel.execute("sink_observe", ("retaddr", 1234))
    assert kernel.observations == [("retaddr", 1234)]


def test_read_write_seek_on_bad_fd():
    kernel = make_kernel()
    assert kernel.execute("read", (99, 5)) is None  # never opened
    assert kernel.execute("read_line", (99,)) is None
    assert kernel.execute("write", (99, "x")) == -1
    assert kernel.execute("seek", (99, 0)) == -1


def test_read_write_seek_on_closed_fd():
    kernel = make_kernel()
    fd = kernel.execute("open", ("/data/input.txt", "r"))
    kernel.execute("close", (fd,))
    assert kernel.execute("read", (fd, 5)) is None
    assert kernel.execute("write", (fd, "x")) == -1
    assert kernel.execute("seek", (fd, 0)) == -1


def test_write_to_read_only_fd_fails():
    kernel = make_kernel()
    fd = kernel.execute("open", ("/data/input.txt", "r"))
    assert kernel.execute("write", (fd, "x")) == -1
    assert kernel.world.fs.file("/data/input.txt").content == "hello\nworld\n"


def test_seek_rejects_bad_position():
    kernel = make_kernel()
    fd = kernel.execute("open", ("/data/input.txt", "r"))
    assert kernel.execute("seek", (fd, -1)) == -1
    assert kernel.execute("seek", (fd, "x")) == -1
    assert kernel.execute("read", (fd, 5)) == "hello"  # position unchanged


def test_unlink_missing_path_fails():
    kernel = make_kernel()
    assert kernel.execute("unlink", ("/missing",)) == -1
    assert kernel.execute("unlink", (42,)) == -1
    assert kernel.output_log[-1][2] == -1


def test_rename_missing_source_fails():
    kernel = make_kernel()
    assert kernel.execute("rename", ("/missing", "/data/new")) == -1
    assert kernel.execute("rename", ("/data/input.txt", 42)) == -1
    assert not kernel.world.fs.is_file("/data/new")


def test_connect_on_non_socket_fd_fails():
    kernel = make_kernel()
    fd = kernel.execute("open", ("/data/input.txt", "r"))
    assert kernel.execute("connect", (fd, "srv", 9)) == -1  # a file, not a socket
    assert kernel.execute("connect", (99, "srv", 9)) == -1  # never created
    assert kernel.execute("send", (fd, "x")) == -1
    assert kernel.execute("recv", (fd, 4)) is None


def test_resource_resolution():
    kernel = make_kernel()
    fd = kernel.execute("open", ("/data/input.txt", "r"))
    assert kernel.resource_of("open", ("/data/input.txt", "r")) == "file:/data/input.txt"
    assert kernel.resource_of("read", (fd, 5)) == "file:/data/input.txt"
    assert kernel.resource_of("read", (0, 5)) == "stdin"
    assert kernel.resource_of("write", (1, "x")) == "stdout"
    sock = kernel.execute("socket", ())
    kernel.execute("connect", (sock, "srv", 9))
    assert kernel.resource_of("send", (sock, "x")) == "conn:srv:9"


def test_send_after_close_is_ebadf():
    """Use-after-close must fail like EBADF, not silently succeed (and
    keep mutating endpoint state)."""
    kernel = make_kernel()
    fd = kernel.execute("socket", ())
    kernel.execute("connect", (fd, "srv", 9))
    connection = kernel._sockets[fd]
    assert kernel.execute("send", (fd, "ping")) == 4
    connection.closed = True
    log_before = list(kernel.output_log)
    assert kernel.execute("send", (fd, "late")) == -1
    # A failed send is not an output: the sink log must not grow.
    assert kernel.output_log == log_before
    assert connection.sent == ["ping"]


def test_recv_after_close_is_ebadf():
    kernel = make_kernel()
    fd = kernel.execute("socket", ())
    kernel.execute("connect", (fd, "srv", 9))
    kernel.execute("send", (fd, "ping"))
    kernel._sockets[fd].closed = True
    assert kernel.execute("recv", (fd, 10)) is None


def test_send_recv_on_kernel_closed_fd():
    kernel = make_kernel()
    fd = kernel.execute("socket", ())
    kernel.execute("connect", (fd, "srv", 9))
    kernel.execute("close", (fd,))
    assert kernel.execute("send", (fd, "x")) == -1
    assert kernel.execute("recv", (fd, 4)) is None


def test_world_clone_independent():
    world = World(seed=1)
    world.fs.add_file("/f", "a")
    clone = world.clone()
    clone.fs.file("/f").content = "b"
    assert world.fs.file("/f").content == "a"
    # Continuing clone keeps deterministic streams in lockstep.
    assert world.clock.read() == clone.clock.read()


def test_world_reseed_changes_nondeterminism():
    world = World(seed=1)
    reseeded = world.clone(new_seed=2)
    assert world.rng.next_int(10**9) != reseeded.rng.next_int(10**9)


def test_world_clone_deep_copies_mutable_sources():
    """Regression: sources were shallow-copied, so a mutable value
    served by source_read was aliased between master and slave."""
    world = World(seed=1)
    world.sources["list"] = [1, 2, 3]
    world.sources["dict"] = {"k": ["nested"]}
    clone = world.clone()
    clone.sources["list"].append(99)
    clone.sources["dict"]["k"].append("slave")
    assert world.sources["list"] == [1, 2, 3]
    assert world.sources["dict"] == {"k": ["nested"]}
    world.sources["list"].append(-1)
    assert clone.sources["list"] == [1, 2, 3, 99]


def test_taint_map_covers_parent_directories():
    taints = ResourceTaintMap()
    taints.taint("file:/d", "created only in master")
    assert taints.is_tainted("file:/d/inner/file.txt")
    assert not taints.is_tainted("file:/other")
    assert not taints.is_tainted(None)
