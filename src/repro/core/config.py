"""Source and sink configuration for causality inference.

The paper: "LDX has a predefined configuration of sources (e.g., socket
receives) and sinks (e.g., file writes).  The user can also choose to
annotate the sources and sinks in the code."  Both styles are supported:
category-based defaults and explicit annotations (``source_read`` /
``sink_observe`` intrinsics).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Optional, Set

from repro.interp.events import SyscallEvent

# A mutator takes the original source value and returns the perturbed one.
Mutator = Callable[[object], object]


class SourceSpec:
    """What to mutate in the slave execution."""

    def __init__(
        self,
        file_paths: Iterable[str] = (),
        stdin: bool = False,
        network: Iterable[str] = (),
        env_names: Iterable[str] = (),
        labels: Iterable[str] = (),
        mutators: Optional[Dict[str, Mutator]] = None,
    ) -> None:
        self.file_paths: Set[str] = set(file_paths)
        self.stdin = stdin
        self.network: Set[str] = set(network)  # "host:port" addresses
        self.env_names: Set[str] = set(env_names)
        self.labels: Set[str] = set(labels)
        # Optional per-resource custom mutators, keyed by resource id
        # (e.g. "file:/etc/conf" or "annot:secret").
        self.mutators: Dict[str, Mutator] = dict(mutators or {})

    def matches(self, event: SyscallEvent, resource: Optional[str]) -> Optional[str]:
        """Return the matched resource id when *event* reads a source;
        *resource* is the kernel's ``resource_of`` for it."""
        name = event.name
        if name in ("read", "read_line"):
            if resource == "stdin" and self.stdin:
                return resource
            if resource is not None and resource.startswith("file:"):
                if resource[len("file:") :] in self.file_paths:
                    return resource
        elif name == "recv":
            if resource is not None and resource[len("conn:") :] in self.network:
                return resource
        elif name == "getenv":
            if event.args and event.args[0] in self.env_names:
                return resource
        elif name == "source_read":
            if event.args and str(event.args[0]) in self.labels:
                return resource
        return None

    def mutator_for(self, resource: str) -> Optional[Mutator]:
        return self.mutators.get(resource)

    @property
    def count(self) -> int:
        return (
            len(self.file_paths)
            + (1 if self.stdin else 0)
            + len(self.network)
            + len(self.env_names)
            + len(self.labels)
        )


class SinkSpec:
    """Which events are sinks (compared across executions)."""

    def __init__(
        self,
        syscall_names: Iterable[str] = ("send",),
        labels: Optional[Iterable[str]] = None,
        malloc_sinks: bool = False,
    ) -> None:
        self.syscall_names: FrozenSet[str] = frozenset(syscall_names)
        # None = every sink_observe is a sink; else only listed labels.
        self.labels: Optional[Set[str]] = None if labels is None else set(labels)
        self.malloc_sinks = malloc_sinks

    def matches(self, event: SyscallEvent) -> bool:
        name = event.name
        if name in self.syscall_names:
            return True
        if name == "sink_observe":
            if self.labels is None:
                return True
            return bool(event.args) and str(event.args[0]) in self.labels
        if name == "malloc":
            return self.malloc_sinks
        return False

    @classmethod
    def network_out(cls) -> "SinkSpec":
        """Default for networked programs: outgoing network syscalls."""
        return cls(syscall_names=("send",))

    @classmethod
    def file_out(cls) -> "SinkSpec":
        """Default for local programs: local file outputs."""
        return cls(syscall_names=("write", "print"))

    @classmethod
    def attack_detection(cls) -> "SinkSpec":
        """Vulnerable-program set: function returns (annotated) and
        memory-management parameters."""
        return cls(syscall_names=(), labels=None, malloc_sinks=True)


class LdxConfig:
    """Complete configuration of one causality-inference run."""

    def __init__(
        self,
        sources: SourceSpec,
        sinks: SinkSpec,
        mutation: Optional[Mutator] = None,
    ) -> None:
        from repro.core.mutation import off_by_one  # cycle-free local import

        self.sources = sources
        self.sinks = sinks
        self.mutation: Mutator = mutation if mutation is not None else off_by_one


# -- declarative (wire-format) construction ------------------------------------
#
# The service API receives configurations as plain JSON dicts.  The
# builders below turn them into Spec objects, rejecting unknown fields
# loudly — a malformed request must become an `invalid` response, never
# a misconfigured run that returns a wrong verdict.


class ConfigSpecError(ValueError):
    """A declarative source/sink/mutation spec is malformed."""


def _require_mapping(spec, what: str) -> dict:
    if not isinstance(spec, dict):
        raise ConfigSpecError(f"{what} spec must be an object, got {type(spec).__name__}")
    return spec


def _string_list(value, what: str) -> list:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ConfigSpecError(f"{what} must be a list of strings")
    return list(value)


def source_spec_from_dict(spec: Optional[dict]) -> SourceSpec:
    """Build a :class:`SourceSpec` from its JSON form.

    Accepted keys: ``files`` (paths), ``stdin`` (bool), ``network``
    ("host:port" strings), ``env`` (names), ``labels`` (annotation
    labels).  Unknown keys are rejected.
    """
    if spec is None:
        return SourceSpec()
    spec = _require_mapping(spec, "sources")
    unknown = set(spec) - {"files", "stdin", "network", "env", "labels"}
    if unknown:
        raise ConfigSpecError(f"unknown sources keys: {sorted(unknown)}")
    stdin = spec.get("stdin", False)
    if not isinstance(stdin, bool):
        raise ConfigSpecError("sources.stdin must be a boolean")
    return SourceSpec(
        file_paths=_string_list(spec.get("files", []), "sources.files"),
        stdin=stdin,
        network=_string_list(spec.get("network", []), "sources.network"),
        env_names=_string_list(spec.get("env", []), "sources.env"),
        labels=_string_list(spec.get("labels", []), "sources.labels"),
    )


def sink_spec_from_dict(spec) -> SinkSpec:
    """Build a :class:`SinkSpec` from its JSON form.

    Either one of the named presets (``"network"`` / ``"file"`` /
    ``"attack"``) or an object with ``syscalls`` / ``labels`` /
    ``malloc`` keys.
    """
    if spec is None or spec == "network":
        return SinkSpec.network_out()
    if spec == "file":
        return SinkSpec.file_out()
    if spec == "attack":
        return SinkSpec.attack_detection()
    if isinstance(spec, str):
        raise ConfigSpecError(
            f"unknown sinks preset {spec!r}; expected network|file|attack"
        )
    spec = _require_mapping(spec, "sinks")
    unknown = set(spec) - {"syscalls", "labels", "malloc"}
    if unknown:
        raise ConfigSpecError(f"unknown sinks keys: {sorted(unknown)}")
    malloc = spec.get("malloc", False)
    if not isinstance(malloc, bool):
        raise ConfigSpecError("sinks.malloc must be a boolean")
    labels = spec.get("labels")
    return SinkSpec(
        syscall_names=_string_list(spec.get("syscalls", []), "sinks.syscalls"),
        labels=None if labels is None else _string_list(labels, "sinks.labels"),
        malloc_sinks=malloc,
    )


def mutator_by_name(name: Optional[str]) -> Optional[Mutator]:
    """Resolve a mutation-strategy name to its callable (None = default)."""
    from repro.core.mutation import STRATEGIES, global_off_by_one

    if name is None:
        return None
    strategies = dict(STRATEGIES)
    strategies["global_off_by_one"] = global_off_by_one
    if name not in strategies:
        raise ConfigSpecError(
            f"unknown mutation {name!r}; known: {sorted(strategies)}"
        )
    return strategies[name]


def config_from_spec(
    sources: Optional[dict] = None,
    sinks=None,
    mutation: Optional[str] = None,
) -> LdxConfig:
    """An :class:`LdxConfig` from the wire-format pieces."""
    return LdxConfig(
        sources=source_spec_from_dict(sources),
        sinks=sink_spec_from_dict(sinks),
        mutation=mutator_by_name(mutation),
    )
