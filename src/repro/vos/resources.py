"""Resource taint metadata (paper Section 7).

When a syscall misaligns between master and slave, the resource it
touches is tainted.  From then on, syscalls on that resource cannot be
coupled: the slave must execute them against its own (cloned) state
rather than reuse master outcomes.  One taint map is shared by a
master/slave pair.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set


class ResourceTaintMap:
    """Shared taint state for one dual-execution pair."""

    def __init__(self) -> None:
        self._tainted: Set[str] = set()
        self.taint_events: List[str] = []

    def taint(self, resource: Optional[str], reason: str = "") -> None:
        """Mark *resource* tainted (no-op for None)."""
        if resource is None or resource in self._tainted:
            return
        self._tainted.add(resource)
        self.taint_events.append(f"{resource}: {reason}" if reason else resource)

    def is_tainted(self, resource: Optional[str]) -> bool:
        if resource is None or not self._tainted:
            return False
        if resource in self._tainted:
            return True
        # Directory taint covers entries beneath it (the paper's
        # "create a clone of the parent directory" behaviour).
        if resource.startswith("file:"):
            path = resource[len("file:") :]
            while "/" in path.strip("/"):
                path = path.rsplit("/", 1)[0]
                if not path:
                    break
                if f"file:{path}" in self._tainted:
                    return True
        return False

    @property
    def tainted_resources(self) -> Set[str]:
        return set(self._tainted)

    def __len__(self) -> int:
        return len(self._tainted)


class LockTaintMap:
    """Locks that saw divergent acquisition patterns (Section 7).

    Tainted locks stop sharing synchronization outcomes, so the two
    executions schedule them independently.
    """

    def __init__(self) -> None:
        self._tainted: Set[int] = set()

    def taint(self, mutex_id: int) -> None:
        self._tainted.add(mutex_id)

    def is_tainted(self, mutex_id: int) -> bool:
        return mutex_id in self._tainted

    def __len__(self) -> int:
        return len(self._tainted)
