"""The syscall layer: dispatches MiniC syscall builtins against a World.

Error handling follows C conventions rather than exceptions: failing
syscalls return ``-1`` or ``nil`` so MiniC programs can test outcomes,
mirroring how the paper's benchmarks behave at the syscall boundary.

The kernel also resolves each syscall to the *resource* it touches
(file path, connection, stdin/stdout) — the unit of the paper's
resource tainting — and logs output syscalls for sink comparison.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import FaultInjected, ReproError
from repro.ir.ops import stringify
from repro.vos.faults import SHORT_READ, FaultPlan
from repro.vos.filesystem import VirtualFile, parent_dir
from repro.vos.network import Connection
from repro.vos.world import World


class ProgramExit(ReproError):
    """Raised when the program calls exit(code)."""

    def __init__(self, code: int) -> None:
        super().__init__(f"exit({code})")
        self.code = code


class _OpenFile:
    """A file descriptor's state."""

    __slots__ = ("path", "mode", "pos")

    def __init__(self, path: str, mode: str) -> None:
        self.path = path
        self.mode = mode
        self.pos = 0


class Kernel:
    """Executes syscalls for one program execution over one World."""

    STDIN = 0
    STDOUT = 1
    STDERR = 2

    # Lazily-built per-class syscall dispatch table (see __init__).
    _handlers: Optional[Dict[str, Callable]] = None

    def __init__(self, world: World, faults: Optional[FaultPlan] = None) -> None:
        self.world = world
        # Optional transient-fault schedule (the chaos layer).  None =
        # the fault-free kernel the paper's experiments assume.
        self.faults = faults
        self._files: Dict[int, _OpenFile] = {}
        self._sockets: Dict[int, Optional[Connection]] = {}
        self._next_fd = 3
        self._stdin_pos = 0
        self._next_mutex = 1
        self.stdout: List[str] = []
        # (name, args, result) for every output syscall — sink material.
        self.output_log: List[Tuple[str, tuple, object]] = []
        # (label, value) pairs from sink_observe.
        self.observations: List[Tuple[str, object]] = []
        # (size, address) pairs from malloc — attack-detection sinks.
        self.allocations: List[Tuple[int, int]] = []
        self._next_alloc = world.heap_base
        self.syscall_count = 0
        # name -> unbound handler, resolved once per class: both the
        # per-syscall f-string + getattr dispatch and a per-instance
        # dir() scan are measurable on the event path (kernels are
        # constructed per execution).
        cls = type(self)
        if cls._handlers is None:
            cls._handlers = {
                attr[len("_sys_"):]: getattr(cls, attr)
                for attr in dir(cls)
                if attr.startswith("_sys_")
            }

    # -- dispatch --------------------------------------------------------------

    def execute(self, name: str, args: tuple, inject: bool = True):
        """Run one syscall; returns its MiniC-level result.

        With a fault plan attached, this is where faults strike:
        transient failures raise :class:`FaultInjected` *before* the
        handler runs (so retrying re-executes it exactly once), and
        short reads truncate the requested count (the retry layer
        completes them with ``inject=False`` continuation calls).
        """
        self.syscall_count += 1
        handler = self._handlers.get(name)
        if handler is None:
            raise ReproError(f"kernel has no handler for syscall {name!r}")
        if inject and self.faults is not None:
            fault = self.faults.decide(name, args)
            if fault is not None:
                if fault.kind == SHORT_READ:
                    args = (args[0], max(1, args[1] // 2))
                else:
                    raise FaultInjected(fault)
        return handler(self, *args)

    def resource_of(self, name: str, args: tuple) -> Optional[str]:
        """Resource identity a syscall touches (for tainting)."""
        try:
            if name in ("open", "stat", "mkdir", "listdir", "unlink"):
                return f"file:{args[0]}"
            if name == "rename":
                return f"file:{args[0]}"
            if name in ("read", "read_line", "write", "seek", "close"):
                fd = args[0]
                if fd == self.STDIN:
                    return "stdin"
                if fd in (self.STDOUT, self.STDERR):
                    return "stdout"
                if fd in self._files:
                    return f"file:{self._files[fd].path}"
                if fd in self._sockets:
                    return self._socket_resource(fd)
                return None
            if name in ("send", "recv", "connect"):
                return self._socket_resource(args[0])
            if name == "print":
                return "stdout"
            if name == "getenv":
                return f"env:{args[0]}"
            if name in ("source_read", "sink_observe"):
                return f"annot:{args[0]}"
        except (IndexError, TypeError):
            return None
        return None

    # File descriptors are process-local identities: after a decoupled
    # stretch the slave's numbering may shift even though it operates on
    # the same files.  Cross-execution comparison therefore uses a
    # *signature* that replaces fd arguments with the resource they
    # denote — matching the paper's comparison of output buffer
    # contents rather than raw parameter words.
    _FD_FIRST_ARG = frozenset(
        {"read", "read_line", "write", "seek", "close", "send", "recv", "connect"}
    )

    def signature_of(self, name: str, args: tuple, resource: Optional[str]) -> tuple:
        """Cross-execution comparison key for a syscall whose
        *resource* (``resource_of(name, args)``, taken before it runs)
        the caller already holds."""
        if name in self._FD_FIRST_ARG and args:
            return (name, resource) + tuple(args[1:])
        return (name,) + tuple(args)

    def _socket_resource(self, fd) -> Optional[str]:
        connection = self._sockets.get(fd)
        if connection is None:
            return None
        return f"conn:{connection.address}"

    # -- file syscalls ----------------------------------------------------------

    def _sys_open(self, path, mode="r"):
        if not isinstance(path, str) or mode not in ("r", "w", "a"):
            return -1
        fs = self.world.fs
        if mode == "r":
            if not fs.is_file(path):
                return -1
        elif mode == "w":
            if fs.create_file(path, self.world.clock.peek()) is None:
                return -1
        else:  # append
            if not fs.is_file(path):
                if fs.create_file(path, self.world.clock.peek()) is None:
                    return -1
        handle = _OpenFile(path, mode)
        if mode == "a":
            handle.pos = len(fs.read_file(path).content)
        fd = self._next_fd
        self._next_fd += 1
        self._files[fd] = handle
        return fd

    def _sys_close(self, fd):
        if fd in self._files:
            del self._files[fd]
            return 0
        if fd in self._sockets:
            connection = self._sockets.pop(fd)
            if connection is not None:
                connection.closed = True
            return 0
        return -1

    def _file_for_read(self, fd) -> Optional[Tuple[_OpenFile, VirtualFile]]:
        handle = self._files.get(fd)
        if handle is None:
            return None
        # read_file: no copy-up, so pure reads never grow the overlay
        # delta (writes go through _sys_write, which uses fs.file()).
        vfile = self.world.fs.read_file(handle.path)
        if vfile is None:
            return None
        return handle, vfile

    def _sys_read(self, fd, count):
        if not isinstance(count, int) or count < 0:
            return None
        if fd == self.STDIN:
            data = self.world.stdin[self._stdin_pos : self._stdin_pos + count]
            self._stdin_pos += len(data)
            return data
        pair = self._file_for_read(fd)
        if pair is None:
            return None
        handle, vfile = pair
        data = vfile.content[handle.pos : handle.pos + count]
        handle.pos += len(data)
        return data

    def _sys_read_line(self, fd):
        if fd == self.STDIN:
            rest = self.world.stdin[self._stdin_pos :]
        else:
            pair = self._file_for_read(fd)
            if pair is None:
                return None
            handle, vfile = pair
            rest = vfile.content[handle.pos :]
        newline = rest.find("\n")
        line = rest if newline < 0 else rest[: newline + 1]
        if fd == self.STDIN:
            self._stdin_pos += len(line)
        else:
            handle.pos += len(line)
        return line

    def _sys_write(self, fd, data):
        text = stringify(data)
        if fd in (self.STDOUT, self.STDERR):
            self.stdout.append(text)
            self.output_log.append(("write", (fd, text), len(text)))
            return len(text)
        handle = self._files.get(fd)
        if handle is None or handle.mode == "r":
            return -1
        vfile = self.world.fs.file(handle.path)
        if vfile is None:
            return -1
        content = vfile.content
        if handle.pos > len(content):
            content = content + "\0" * (handle.pos - len(content))
        vfile.content = content[: handle.pos] + text + content[handle.pos + len(text) :]
        vfile.mtime = self.world.clock.peek()
        handle.pos += len(text)
        self.output_log.append(("write", (fd, text), len(text)))
        return len(text)

    def _sys_seek(self, fd, pos):
        handle = self._files.get(fd)
        if handle is None or not isinstance(pos, int) or pos < 0:
            return -1
        handle.pos = pos
        return pos

    def _sys_stat(self, path):
        vfile = self.world.fs.read_file(path) if isinstance(path, str) else None
        if vfile is None:
            return None
        return [len(vfile.content), vfile.mtime]

    def _sys_mkdir(self, path):
        ok = isinstance(path, str) and self.world.fs.mkdir(path)
        result = 0 if ok else -1
        self.output_log.append(("mkdir", (path,), result))
        return result

    def _sys_unlink(self, path):
        ok = isinstance(path, str) and self.world.fs.unlink(path)
        result = 0 if ok else -1
        self.output_log.append(("unlink", (path,), result))
        return result

    def _sys_rename(self, old, new):
        ok = (
            isinstance(old, str)
            and isinstance(new, str)
            and self.world.fs.rename(old, new)
        )
        result = 0 if ok else -1
        self.output_log.append(("rename", (old, new), result))
        return result

    def _sys_listdir(self, path):
        if not isinstance(path, str):
            return None
        return self.world.fs.listdir(path)

    # -- network ---------------------------------------------------------------

    def _sys_socket(self):
        fd = self._next_fd
        self._next_fd += 1
        self._sockets[fd] = None
        return fd

    def _sys_connect(self, fd, host, port):
        if fd not in self._sockets or not isinstance(host, str):
            return -1
        connection = self.world.network.connect(host, port)
        if connection is None:
            return -1
        self._sockets[fd] = connection
        return 0

    def _sys_send(self, fd, data):
        connection = self._sockets.get(fd)
        if connection is None:
            return -1
        text = stringify(data)
        count = connection.send(text)
        if count is None:
            # Use-after-close: EBADF-style failure.  Nothing reached
            # the endpoint, so nothing lands in the output log either.
            return -1
        self.output_log.append(("send", (fd, text), count))
        return count

    def _sys_recv(self, fd, count):
        connection = self._sockets.get(fd)
        if connection is None or not isinstance(count, int) or count < 0:
            return None
        # A closed connection yields None (EBADF), distinct from the
        # empty string an open-but-drained stream returns.
        return connection.recv(count)

    # -- nondeterminism and process services --------------------------------------

    def _sys_time(self):
        return self.world.clock.read()

    def _sys_rand(self):
        return self.world.rng.next_int()

    def _sys_getpid(self):
        return self.world.pid

    def _sys_getenv(self, name):
        if not isinstance(name, str):
            return None
        return self.world.env.get(name)

    def _sys_sleep(self, amount):
        if isinstance(amount, int):
            self.world.clock.advance(amount)
        return 0

    def _sys_exit(self, code=0):
        raise ProgramExit(code if isinstance(code, int) else 0)

    def _sys_print(self, value):
        text = stringify(value)
        self.stdout.append(text)
        self.output_log.append(("print", (text,), len(text)))
        return len(text)

    # -- memory management library (attack-detection sinks) ----------------------

    def _sys_malloc(self, size):
        if not isinstance(size, int) or size < 0:
            size = 0
        address = self._next_alloc
        self._next_alloc += max(16, size + (16 - size % 16) % 16)
        self.allocations.append((size, address))
        return address

    def _sys_free(self, address):
        return 0 if isinstance(address, int) else -1

    # -- explicit annotations ------------------------------------------------------

    def _sys_sink_observe(self, label, value):
        self.observations.append((stringify(label), value))
        return 0

    def _sys_source_read(self, label):
        return self.world.sources.get(stringify(label))

    # -- mutex registry (state only; blocking lives in the scheduler) -----------

    def new_mutex_id(self) -> int:
        mutex_id = self._next_mutex
        self._next_mutex += 1
        return mutex_id
