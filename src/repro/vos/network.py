"""Scripted virtual network.

Workloads attach *endpoint scripts* to ``host:port`` addresses.  An
endpoint is a deterministic request/response function: every ``send``
appends to the connection's request buffer, every ``recv`` pulls from
the response stream the script produced for the requests so far.
Determinism makes master/slave independent (decoupled) execution
reproducible, while the LDX engine still treats ``recv`` outcomes as
nondeterministic inputs to be shared when aligned — the network models
the *external world*, whose event order the paper's syscall-outcome
sharing exists to tame.

Scripts may be **stateful** (a closure counting requests, say).  Such
scripts must be registered through :meth:`Network.register_factory` so
every connection — and every clone of a connection — gets a private
instance: a shared closure would let slave sends advance the state the
master's later responses depend on, making slave effects externally
visible and breaking the paper's Section 7 isolation invariant.
Cloning a connection re-binds a fresh instance and replays ``sent``
through it to rebuild the state; the already-produced response stream
is carried over verbatim so replay can never rewrite history.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

# An endpoint script maps one complete request string to a response string.
EndpointScript = Callable[[str], str]

# A factory produces one private script instance per connection.
ScriptFactory = Callable[[], EndpointScript]


class Connection:
    """One live connection: outgoing buffer + scripted incoming stream."""

    def __init__(
        self,
        address: str,
        script: Optional[EndpointScript],
        factory: Optional[ScriptFactory] = None,
    ) -> None:
        self.address = address
        self._script = script
        self._factory = factory
        self.sent: List[str] = []
        self._incoming = ""
        self._consumed = 0
        self.closed = False

    def send(self, data: str) -> Optional[int]:
        """Record outgoing data; feed the script to produce responses.

        None on a closed connection — the kernel maps it to the EBADF
        error path (a real send after close fails, it must not silently
        keep mutating endpoint state).
        """
        if self.closed:
            return None
        self.sent.append(data)
        if self._script is not None:
            self._incoming += self._script(data)
        return len(data)

    def recv(self, count: int) -> Optional[str]:
        """Pull up to *count* chars from the scripted response stream.

        None on a closed connection (distinct from ``""``, which means
        open-but-drained).
        """
        if self.closed:
            return None
        available = self._incoming[self._consumed : self._consumed + count]
        self._consumed += len(available)
        return available

    def clone(self) -> "Connection":
        """Private copy with its own script state.

        A factory-backed script gets a fresh instance with ``sent``
        replayed through it (replay responses are discarded — the
        stream the original already produced is authoritative), so
        neither side's future sends can steer the other's responses.
        Plain scripts are assumed stateless and shared as-is.
        """
        if self._factory is not None:
            script = self._factory()
            for request in self.sent:
                script(request)
        else:
            script = self._script
        copy = Connection(self.address, script, self._factory)
        copy.sent = list(self.sent)
        copy._incoming = self._incoming
        copy._consumed = self._consumed
        copy.closed = self.closed
        return copy


class Network:
    """Address book of endpoint scripts plus live connections."""

    def __init__(self) -> None:
        self._scripts: Dict[str, EndpointScript] = {}
        self._factories: Dict[str, ScriptFactory] = {}
        self.connections: List[Connection] = []

    def register(self, host: str, port: int, script: EndpointScript) -> None:
        """Attach a **stateless** script to an address.

        The same callable serves every connection and survives clones
        unchanged; a script that closes over mutable state must use
        :meth:`register_factory` instead.
        """
        self._scripts[f"{host}:{port}"] = script
        self._factories.pop(f"{host}:{port}", None)

    def register_factory(
        self, host: str, port: int, factory: ScriptFactory
    ) -> None:
        """Attach a **stateful** endpoint: *factory* builds one private
        script instance per connection (and per clone, via replay)."""
        self._factories[f"{host}:{port}"] = factory
        self._scripts.pop(f"{host}:{port}", None)

    def connect(self, host: str, port: int) -> Optional[Connection]:
        """Open a connection; None when nothing listens at the address."""
        address = f"{host}:{port}"
        factory = self._factories.get(address)
        if factory is not None:
            connection = Connection(address, factory(), factory)
        else:
            script = self._scripts.get(address)
            if script is None:
                return None
            connection = Connection(address, script)
        self.connections.append(connection)
        return connection

    def clone(self) -> "Network":
        copy = Network()
        copy._scripts = dict(self._scripts)
        copy._factories = dict(self._factories)
        copy.connections = [c.clone() for c in self.connections]
        return copy
