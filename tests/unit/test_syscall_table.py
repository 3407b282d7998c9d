"""Unit tests for the syscall classification table and signatures."""

import pytest

from repro.lang.intrinsics import SYSCALL_BUILTINS, syscall_category
from repro.vos import syscalls
from repro.vos.kernel import Kernel
from repro.vos.world import World


def test_classification_is_total():
    # validate_coverage() runs at import; re-run explicitly for clarity.
    syscalls.validate_coverage()


def test_nondet_inputs_are_inputs_or_nondet_category():
    for name in syscalls.NONDET_INPUT:
        assert name in SYSCALL_BUILTINS


def test_categories():
    assert syscall_category("send") == "net-out"
    assert syscall_category("rand") == "nondet"
    assert syscall_category("malloc") == "lib"


def test_outputs_and_inputs_disjoint():
    assert not (syscalls.OUTPUT_SYSCALLS & syscalls.INPUT_SYSCALLS)


def test_thread_syscalls_always_local():
    assert syscalls.THREAD_SYSCALLS <= (
        syscalls.ALWAYS_INDEPENDENT | syscalls.THREAD_SYSCALLS
    )


def signature(kernel, name, args):
    """*kernel*'s comparison key for a syscall, as the engine takes it."""
    return kernel.signature_of(name, args, kernel.resource_of(name, args))


def make_kernel():
    world = World(seed=1)
    world.fs.add_file("/f", "content")
    world.network.register("h", 1, lambda req: "ok")
    return Kernel(world)


def test_signature_replaces_fd_with_resource():
    kernel = make_kernel()
    fd = kernel.execute("open", ("/f", "r"))
    assert signature(kernel, "read", (fd, 4)) == ("read", "file:/f", 4)
    assert signature(kernel, "close", (fd,)) == ("close", "file:/f")


def test_signatures_equal_across_kernels_with_different_fds():
    a = make_kernel()
    b = make_kernel()
    # b burns an fd so numbering diverges.
    b.execute("socket", ())
    fd_a = a.execute("open", ("/f", "r"))
    fd_b = b.execute("open", ("/f", "r"))
    assert fd_a != fd_b
    assert signature(a, "read", (fd_a, 8)) == signature(b, "read", (fd_b, 8))


def test_signature_for_path_syscalls_keeps_args():
    kernel = make_kernel()
    assert signature(kernel, "open", ("/f", "r")) == ("open", "/f", "r")
    assert signature(kernel, "print", ("x",)) == ("print", "x")


def test_connection_signature():
    kernel = make_kernel()
    sock = kernel.execute("socket", ())
    kernel.execute("connect", (sock, "h", 1))
    assert signature(kernel, "send", (sock, "data")) == ("send", "conn:h:1", "data")
