"""In-memory virtual filesystem with copy-on-write overlays.

Files hold string content (MiniC strings play the role of byte
buffers).  Directories are implicit via path prefixes but tracked
explicitly so ``mkdir``/``listdir`` behave like a real FS.

The tree is stored as a chain of **overlay layers**: a mutable top
delta (files/dirs created here plus tombstones for deletions) over a
chain of frozen parent layers.  :meth:`VirtualFS.clone` freezes the
current delta and hands both sides fresh empty deltas over the shared
base — O(1) instead of O(tree), the mechanism behind the paper's
copy-on-divergence resource handling (Section 7, "Light-weight
Resource Tainting").  :meth:`file` copies a base file up into the
delta before returning it, so in-place content mutation can never
reach a sibling execution; read-only callers use :meth:`read_file`,
which keeps the delta a record of *writes*.

Aliasing contract: a :class:`VirtualFile` handle obtained *before* a
clone must be re-looked-up afterwards (the kernel resolves its path on
every syscall, so this holds throughout the engine).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set


# Normalization is pure and the kernel re-resolves paths on every
# syscall, so workloads hammer the same few strings; the memo is
# bounded to stay harmless under adversarial path churn.
_NORMALIZE_MEMO: Dict[str, str] = {}
_NORMALIZE_MEMO_LIMIT = 4096


def _normalize(path: str) -> str:
    """Normalize a path: collapse slashes, resolve ``.``/``..`` segments
    (clamping ``..`` at the root), ensure a leading slash.

    Resolving dot-segments here is load-bearing: ``/a/../b`` and ``/b``
    must be the *same* file, or aliased writes escape both
    copy-on-divergence cloning and master/slave FS diffing.
    """
    cached = _NORMALIZE_MEMO.get(path)
    if cached is not None:
        return cached
    parts: List[str] = []
    for part in path.split("/"):
        if not part or part == ".":
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue  # ".." at the root stays at the root
        parts.append(part)
    result = "/" + "/".join(parts)
    if len(_NORMALIZE_MEMO) < _NORMALIZE_MEMO_LIMIT:
        _NORMALIZE_MEMO[path] = result
    return result


def parent_dir(path: str) -> str:
    """Parent directory of a normalized path ('/' for top-level)."""
    path = _normalize(path)
    if path == "/":
        return "/"
    return _normalize(path.rsplit("/", 1)[0] or "/")


class VirtualFile:
    """One regular file: content plus a modification timestamp."""

    __slots__ = ("content", "mtime")

    def __init__(self, content: str = "", mtime: int = 0) -> None:
        self.content = content
        self.mtime = mtime

    def clone(self) -> "VirtualFile":
        return VirtualFile(self.content, self.mtime)

    def __repr__(self) -> str:
        return f"<VirtualFile {len(self.content)}B mtime={self.mtime}>"


class _Layer:
    """One overlay stratum.

    A path appears in at most one of ``files``, ``dirs`` or
    ``tombstones`` per layer; lookup walks the chain top-down and the
    first layer mentioning a path decides its kind (a tombstone means
    "deleted here — stop looking").
    """

    __slots__ = ("files", "dirs", "tombstones", "parent")

    def __init__(self, parent: Optional["_Layer"] = None) -> None:
        self.files: Dict[str, VirtualFile] = {}
        self.dirs: Set[str] = set()
        self.tombstones: Set[str] = set()
        self.parent = parent

    @property
    def touched(self) -> bool:
        return bool(self.files or self.dirs or self.tombstones)


# File kinds returned by the layer-chain resolver.
_FILE = "file"
_DIR = "dir"


class VirtualFS:
    """A cloneable overlay tree of directories and files."""

    def __init__(self) -> None:
        self._top = _Layer()
        self._top.dirs.add("/")

    # -- layer-chain resolution ------------------------------------------------

    def _resolve(self, path: str) -> Optional[str]:
        """Kind of a normalized path: ``"file"``, ``"dir"`` or None."""
        layer: Optional[_Layer] = self._top
        while layer is not None:
            if path in layer.files:
                return _FILE
            if path in layer.dirs:
                return _DIR
            if path in layer.tombstones:
                return None
            layer = layer.parent
        return None

    def _lookup(self, path: str) -> Optional[VirtualFile]:
        """The VirtualFile for a normalized path, wherever it lives."""
        layer: Optional[_Layer] = self._top
        while layer is not None:
            vfile = layer.files.get(path)
            if vfile is not None:
                return vfile
            if path in layer.dirs or path in layer.tombstones:
                return None
            layer = layer.parent
        return None

    def _layers(self) -> List[_Layer]:
        layers: List[_Layer] = []
        layer: Optional[_Layer] = self._top
        while layer is not None:
            layers.append(layer)
            layer = layer.parent
        return layers

    def _known_paths(self) -> Set[str]:
        """Every path any layer mentions (including deleted ones)."""
        known: Set[str] = set()
        for layer in self._layers():
            known.update(layer.files)
            known.update(layer.dirs)
        return known

    # -- setup helpers (used by workload World definitions) -------------------

    def add_file(self, path: str, content: str, mtime: int = 0) -> None:
        """Create a file, creating parent directories as needed."""
        path = _normalize(path)
        self._ensure_parents(path)
        self._top.tombstones.discard(path)
        self._top.dirs.discard(path)
        self._top.files[path] = VirtualFile(content, mtime)

    def _ensure_parents(self, path: str) -> None:
        parent = parent_dir(path)
        while self._resolve(parent) is None:
            self._top.tombstones.discard(parent)
            self._top.dirs.add(parent)
            parent = parent_dir(parent)

    # -- queries -------------------------------------------------------------

    def exists(self, path: str) -> bool:
        return self._resolve(_normalize(path)) is not None

    def is_file(self, path: str) -> bool:
        return self._resolve(_normalize(path)) == _FILE

    def is_dir(self, path: str) -> bool:
        return self._resolve(_normalize(path)) == _DIR

    def file(self, path: str) -> Optional[VirtualFile]:
        """The file at *path*, private to this overlay (copy-up).

        The returned object may be mutated in place; a base-layer file
        is copied into the top delta first so the mutation can never
        reach another execution sharing the base.
        """
        path = _normalize(path)
        top = self._top
        vfile = top.files.get(path)
        if vfile is not None:
            return vfile
        if path in top.dirs or path in top.tombstones:
            return None
        layer = top.parent
        while layer is not None:
            below = layer.files.get(path)
            if below is not None:
                copied = below.clone()
                top.files[path] = copied
                return copied
            if path in layer.dirs or path in layer.tombstones:
                return None
            layer = layer.parent
        return None

    def read_file(self, path: str) -> Optional[VirtualFile]:
        """The file at *path* without copy-up.

        The returned object may be shared with other overlays: callers
        must treat it as read-only (use :meth:`file` to mutate).
        Read-heavy paths (kernel reads, FS diffing) use this so the
        overlay delta stays a record of writes.
        """
        return self._lookup(_normalize(path))

    def listdir(self, path: str) -> Optional[List[str]]:
        """Entries directly inside *path*, or None when not a directory."""
        path = _normalize(path)
        if self._resolve(path) != _DIR:
            return None
        prefix = path if path.endswith("/") else path + "/"
        names: Set[str] = set()
        for candidate in self._known_paths():
            if (
                candidate != path
                and candidate.startswith(prefix)
                and self._resolve(candidate) is not None
            ):
                remainder = candidate[len(prefix) :]
                names.add(remainder.split("/", 1)[0])
        return sorted(names)

    def paths(self) -> List[str]:
        """All file paths (sorted) — used by tests and diffing."""
        candidates: Set[str] = set()
        for layer in self._layers():
            candidates.update(layer.files)
        return sorted(p for p in candidates if self._resolve(p) == _FILE)

    # -- mutations -------------------------------------------------------------

    def create_file(self, path: str, mtime: int) -> Optional[VirtualFile]:
        """Create/truncate a file; None when the parent dir is missing."""
        path = _normalize(path)
        if self._resolve(parent_dir(path)) != _DIR or self._resolve(path) == _DIR:
            return None
        created = VirtualFile("", mtime)
        self._top.tombstones.discard(path)
        self._top.files[path] = created
        return created

    def mkdir(self, path: str) -> bool:
        path = _normalize(path)
        if self.exists(path) or self._resolve(parent_dir(path)) != _DIR:
            return False
        self._top.tombstones.discard(path)
        self._top.dirs.add(path)
        return True

    def unlink(self, path: str) -> bool:
        path = _normalize(path)
        kind = self._resolve(path)
        if kind == _FILE:
            self._top.files.pop(path, None)
            self._top.tombstones.add(path)
            return True
        if kind == _DIR and path != "/":
            if self.listdir(path):
                return False  # non-empty
            self._top.dirs.discard(path)
            self._top.tombstones.add(path)
            return True
        return False

    def rename(self, old: str, new: str) -> bool:
        old = _normalize(old)
        new = _normalize(new)
        if self._resolve(old) != _FILE:
            return False
        if self._resolve(parent_dir(new)) != _DIR or self._resolve(new) == _DIR:
            return False
        moved = self._top.files.pop(old, None)
        if moved is None:
            moved = self._lookup(old).clone()
        self._top.tombstones.add(old)
        self._top.tombstones.discard(new)
        self._top.dirs.discard(new)
        self._top.files[new] = moved
        return True

    # -- cloning ----------------------------------------------------------------

    def clone(self) -> "VirtualFS":
        """Copy-on-write fork: O(delta), not O(tree).

        The current delta is frozen into a base shared by both sides;
        each side continues with a fresh empty delta, so neither can
        observe the other's subsequent writes.
        """
        top = self._top
        if top.touched or top.parent is None:
            self._top = _Layer(parent=top)
            base = top
        else:
            # Nothing written since the last freeze: reuse that base
            # instead of stacking an empty layer per clone.
            base = top.parent
        copy = VirtualFS.__new__(VirtualFS)
        copy._top = _Layer(parent=base)
        return copy

    def deep_clone(self) -> "VirtualFS":
        """Materialized deep copy of the merged tree (single layer).

        The pre-overlay reference semantics: O(tree) — kept for
        benchmarks (`bench_fs_overlay.py`) and as the oracle the
        clone-isolation property tests compare the overlay against.
        """
        copy = VirtualFS()
        merged = copy._top
        seen: Set[str] = set()
        for layer in self._layers():
            for path, vfile in layer.files.items():
                if path not in seen:
                    seen.add(path)
                    merged.files[path] = vfile.clone()
            for path in layer.dirs:
                if path not in seen:
                    seen.add(path)
                    merged.dirs.add(path)
            seen.update(layer.tombstones)
        merged.dirs.add("/")
        return copy

    @property
    def depth(self) -> int:
        """Number of layers in the overlay chain (1 = no clones)."""
        return len(self._layers())

    def __repr__(self) -> str:
        return (
            f"<VirtualFS {len(self.paths())} files, depth={self.depth}>"
        )
