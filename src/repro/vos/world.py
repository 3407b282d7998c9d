"""The *world* — everything outside the program.

A :class:`World` bundles the virtual filesystem, the scripted network,
environment variables, stdin content and the nondeterminism sources
(clock, PRNG, pid).  Workloads build a world; an execution's kernel
owns a live world instance.  Worlds clone isolated copies — the FS via
copy-on-write overlays, the network via per-connection script
instances — which is how the slave execution gets a side-effect-free
private environment (the paper's slave never performs externally
visible outputs; here its outputs land in a private clone).
"""

from __future__ import annotations

import copy as copy_module
from typing import Dict

from repro.vos.clock import DeterministicRng, VirtualClock
from repro.vos.filesystem import VirtualFS
from repro.vos.network import Network


class World:
    """A complete, cloneable program environment."""

    def __init__(self, seed: int = 1) -> None:
        self.seed = seed
        self.fs = VirtualFS()
        self.network = Network()
        self.env: Dict[str, str] = {}
        self.stdin = ""
        # Values served by the explicit `source_read(label)` annotation.
        self.sources: Dict[str, object] = {}
        self.clock = VirtualClock(start=1_000_000 + seed * 13)
        self.rng = DeterministicRng(seed)
        self.pid = 4000 + (seed % 100)
        # Heap base differs per world instance — the paper's observation
        # that heap addresses are nondeterministic across executions.
        self.heap_base = 0x10000 + (seed % 7) * 0x1000

    def clone(self, new_seed: int = None) -> "World":
        """Deep copy.  With *new_seed* the nondeterminism sources are
        re-seeded (used to model run-to-run nondeterminism); without it
        the clone continues the same deterministic streams."""
        copy = World(self.seed if new_seed is None else new_seed)
        copy.fs = self.fs.clone()
        copy.network = self.network.clone()
        copy.env = dict(self.env)
        copy.stdin = self.stdin
        # Deep copy: a mutable source value (list/dict served by
        # source_read) aliased between master and slave would let slave
        # mutations leak into master reads.
        copy.sources = copy_module.deepcopy(self.sources)
        if new_seed is None:
            copy.clock = self.clock.clone()
            copy.rng = self.rng.clone()
            copy.pid = self.pid
            copy.heap_base = self.heap_base
        return copy
