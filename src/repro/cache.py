"""Content-addressed artifact caches (instrumentation, static analysis,
region code) and the SQLite persistence primitive every store uses.

Every dual execution needs an :class:`~repro.instrument.pipeline.
InstrumentedModule` — the IR module, its :class:`ModulePlan` and the
callgraph.  Building one re-lexes, re-parses, re-lowers and re-plans
the MiniC source, which the evaluation harness used to repeat for the
same 28 workloads on every run.  This module caches the finished
artifact, keyed by a content hash of the MiniC source plus the
instrumentation configuration:

* an **in-process LRU layer** bounds memory and serves repeat lookups
  within one process (the parent *and* each pool worker keep one);
* an optional **on-disk layer** (``<cache_dir>/blobs.sqlite``, with
  ``.repro-cache/`` the CLI default) persists pickled artifacts across
  processes and runs, so a warm cache skips compilation entirely.

Keys never include runtime state (worlds, seeds, fault plans).  The
file holds one table, ``blobs(namespace, key, payload, digest,
created_at)``; the namespace is the schema tag, so bumping a tag when
a payload format changes orphans old rows instead of deserializing
them wrongly.  Besides :data:`SCHEMA_TAG` the same machinery serves
the **static analysis cache** (:data:`ANALYSIS_SCHEMA_TAG`: summaries
keyed by source plus seed fingerprint) and the **region code cache**
(:func:`code_schema_tag`: ``marshal`` bytes of the threaded backend's
compiled region source, keyed by the source; the tag embeds
:data:`importlib.util.MAGIC_NUMBER`, so each bytecode version owns
its own namespace).

**One persistence primitive.**  :class:`SqliteFile` backs the blob
files of this cache and of :mod:`repro.checkpoint`, and the results
store (:mod:`repro.results.store`): WAL, a busy timeout, a 256 KiB
page cache and the owner's ``synchronous`` level (``NORMAL`` for
rebuildable blobs, since WAL's checksummed frames leave the old entry,
the new one or nothing after a crash; ``FULL`` for results).  Each
write is one ``BEGIN IMMEDIATE`` transaction, so concurrent writers
(serve threads, pool workers, two CLI runs) queue instead of tearing
an entry.  Each payload's SHA-256 digest is checked before unpickling:
a damaged row is counted, deleted and a miss.  A corrupt file is
unlinked (with its ``-wal``/``-shm``/``-journal``) and recreated
empty; a busy or locked one is another process at work and only
counts an error.  Each process holds one connection per file, behind
a lock, and closes them all before ``fork()``.

Nothing collects orphaned rows (say, region code of another Python
version); deleting ``blobs.sqlite`` only costs rebuilds, as does
deleting the per-entry ``ldx-*/`` directories older versions wrote.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import pickle
import sqlite3
import sys
import threading
import time
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.instrument import InstrumentedModule, instrument_module, relevance_enabled
from repro.ir import compile_source

# Bump when InstrumentedModule / ModulePlan / IR pickle layout changes.
# v2: payload embeds a SHA-256 digest of the pickled artifact.
# v3: ModulePlan carries the sink-relevance classification.
# v4: instrumentation-time counter pruning — counter-elidable edges
# carry ElidedAdd ghosts, FunctionRelevance carries prunable_edges, and
# the pruning switch joins the content address (pruned and full plans
# are distinct artifacts).
SCHEMA_TAG = "ldx-artifact-v4"

# Bump when ProgramAnalysis / Diagnostic pickle layout changes.
# v3: ProgramAnalysis carries sink-relevance rows, totals and the
# relevant-syscall-site oracle set.
# v4: relevance rows/totals carry prunable counter-update counts.
ANALYSIS_SCHEMA_TAG = "ldx-analysis-v4"

# The region code namespace needs no bump when the emitter changes:
# its key is the generated source itself, so new emission is a new key.
# Bump the version when the payload (marshal bytes of a module code
# object) changes meaning.
CODE_SCHEMA_VERSION = "ldx-code-v1"

# Generated region source per entry is ~3 KB marshalled; one chaos
# sweep over the 28 workloads lands ~510 unique regions.
CODE_CAPACITY = 1024


def code_schema_tag() -> str:
    """Schema tag of the region code namespace for this interpreter.

    Read at configure time, so an entry written by another bytecode
    version lives in another directory and, copied into this one,
    fails the envelope's schema check.
    """
    return f"{CODE_SCHEMA_VERSION}-{importlib.util.MAGIC_NUMBER.hex()}"

# Bump when the pickled result-row layout of any eval/chaos cell class
# changes.  Shared by the columnar results store (repro.results): a tag
# bump orphans every stored cell, so a re-run recomputes them instead
# of unpickling rows from an incompatible layout.
RESULTS_SCHEMA_TAG = "ldx-results-v1"


# -- the persistence primitive -------------------------------------------------

# Seconds an operation waits for another writer's lock before it counts
# an error and degrades to a miss or a no-op.
BUSY_TIMEOUT_S = 5.0

# SQLite's default 2 MB page cache measured +2.3 MB of eval peak RSS.
PAGE_CACHE_PRAGMA = "PRAGMA cache_size = -256"  # KiB

BLOB_FILE = "blobs.sqlite"

BLOB_SCHEMA = """
CREATE TABLE IF NOT EXISTS blobs (
    namespace  TEXT NOT NULL,
    key        TEXT NOT NULL,
    payload    BLOB NOT NULL,
    digest     TEXT NOT NULL,
    created_at REAL NOT NULL,
    PRIMARY KEY (namespace, key)
);
"""


def _digest(payload: bytes, namespace: str) -> str:
    return hashlib.sha256(namespace.encode() + payload).hexdigest()


def seal(obj, namespace: str = "") -> Optional[Tuple[bytes, str]]:
    """``(payload, digest)`` to store *obj* under *namespace*, or None
    if it cannot be pickled."""
    try:
        payload = pickle.dumps(obj)
    except Exception:
        return None
    return payload, _digest(payload, namespace)


def unseal(payload, digest, namespace: str = "", payload_type=None):
    """The object a stored row holds, or None if the row is damaged:
    verified before unpickling, so a corrupt payload (or one copied in
    from another namespace) is a miss, never a wrong object."""
    try:
        if _digest(payload, namespace) == digest:
            obj = pickle.loads(payload)
            if payload_type is None or isinstance(obj, payload_type):
                return obj
    except Exception:
        pass
    return None


class SqliteFile:
    """One SQLite database file, as this process sees it.

    :meth:`execute` returns None (a miss or a no-op to its owner) when
    an operation did not happen.  ``healed`` counts discarded corrupt
    files; ``broken`` says why the file cannot be opened at all.  A
    file whose *check* query does not return ``(1,)`` at open is of
    another schema version and heals like a corrupt one.
    """

    def __init__(
        self, path: str, schema: str, synchronous: str, check: str = ""
    ) -> None:
        self.path = path
        self.schema = schema
        self.synchronous = synchronous
        self.check = check
        self.healed = 0
        self.broken: Optional[str] = None
        self._conn: Optional[sqlite3.Connection] = None
        self._lock = threading.RLock()
        _LIVE_FILES.add(self)

    def execute(self, query: str, params=(), *more) -> Optional[List[tuple]]:
        """Run *query*, then any further ``(query, params)`` pairs, as
        one transaction; the rows they return, or None."""
        with self._lock:
            try:
                conn = self._connect()
                if conn is None:
                    return None
                if not more and query.startswith("SELECT"):
                    return conn.execute(query, params).fetchall()
                rows: List[tuple] = []
                conn.execute("BEGIN IMMEDIATE")
                try:
                    for statement in ((query, params),) + more:
                        rows += conn.execute(*statement).fetchall()
                    conn.execute("COMMIT")
                finally:
                    if conn.in_transaction:
                        conn.execute("ROLLBACK")
                return rows
            except sqlite3.Error as error:
                # Heal only on corruption, which raises DatabaseError
                # itself; busy or locked (OperationalError) is a writer.
                if type(error) is sqlite3.DatabaseError:
                    self._heal()
                return None

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def _connect(self) -> Optional[sqlite3.Connection]:
        if self._conn is not None or self.broken is not None:
            return self._conn
        try:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            conn = sqlite3.connect(
                self.path, timeout=BUSY_TIMEOUT_S, isolation_level=None,
                check_same_thread=False,
            )
        except (OSError, sqlite3.Error) as error:
            self.broken = f"cannot open: {error}"
            return None
        try:
            conn.execute("PRAGMA journal_mode = WAL")
            conn.execute(f"PRAGMA synchronous = {self.synchronous}")
            conn.execute(PAGE_CACHE_PRAGMA)
            conn.executescript(self.schema)
            if self.check and conn.execute(self.check).fetchone() != (1,):
                raise sqlite3.DatabaseError("foreign schema version")
        except sqlite3.Error:
            conn.close()
            raise
        self._conn = conn
        return conn

    def _heal(self) -> None:
        """Discard the damaged file; the next operation recreates it
        empty, so every lookup degrades to a miss."""
        self.close()
        self.healed += 1
        for suffix in ("", "-wal", "-shm", "-journal"):
            try:
                os.unlink(self.path + suffix)
            except OSError:
                pass


# No SQLite state may cross fork(): a child that opens a file while it
# inherits the parent's connection loses writes once the parent closes
# it.  So every connection closes before a fork, with all locks held so
# no thread reopens one; both sides reopen on first use.
_LIVE_FILES: "weakref.WeakSet[SqliteFile]" = weakref.WeakSet()
_FORKING: List[SqliteFile] = []


def _close_before_fork() -> None:
    _FORKING[:] = list(_LIVE_FILES)
    for db in _FORKING:
        db._lock.acquire()
        db.close()


def _release_after_fork() -> None:
    for db in _FORKING:
        db._lock.release()
    _FORKING.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_close_before_fork,
        after_in_parent=_release_after_fork,
        after_in_child=_release_after_fork,
    )

_BLOB_FILES: "weakref.WeakValueDictionary[str, SqliteFile]" = (
    weakref.WeakValueDictionary()
)
_BLOB_FILES_LOCK = threading.Lock()


def blob_file(directory: str) -> SqliteFile:
    """This process's handle on ``<directory>/blobs.sqlite``, shared by
    every namespace stored there."""
    path = os.path.abspath(os.path.join(directory, BLOB_FILE))
    with _BLOB_FILES_LOCK:
        db = _BLOB_FILES.get(path)
        if db is None:
            db = _BLOB_FILES[path] = SqliteFile(path, BLOB_SCHEMA, "NORMAL")
    return db


class CacheStats:
    """Hit/miss accounting for one cache instance."""

    __slots__ = ("memory_hits", "disk_hits", "misses", "stores", "disk_errors")

    def __init__(self) -> None:
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.disk_errors = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return (self.memory_hits + self.disk_hits) / self.lookups

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            f"<CacheStats mem={self.memory_hits} disk={self.disk_hits} "
            f"miss={self.misses}>"
        )


def artifact_key(
    source: str,
    config: Optional[Dict[str, object]] = None,
    schema_tag: Optional[str] = None,
) -> str:
    """Content address of one cached artifact.

    Hashes the schema tag, the configuration (sorted, so dict ordering
    never changes the key) and the source text.  Runtime state is
    deliberately excluded.
    """
    hasher = hashlib.sha256()
    hasher.update((SCHEMA_TAG if schema_tag is None else schema_tag).encode())
    for name, value in sorted((config or {}).items()):
        hasher.update(b"\0")
        hasher.update(f"{name}={value!r}".encode())
    hasher.update(b"\0\0")
    hasher.update(source.encode())
    return hasher.hexdigest()


def result_cell_key(source: str, params: Dict[str, object]) -> str:
    """Content address of one eval/chaos result cell.

    The same derivation the artifact cache uses, under the results
    schema tag: *source* is the MiniC text of the workload(s) the cell
    executes and *params* are the cell's coordinates (kind, workload,
    variant, seeds, chunk bounds, config fingerprint).  Editing a
    workload or changing a cell's configuration changes the key, which
    is exactly what makes re-runs incremental — an unchanged cell's key
    is already present in the store.
    """
    return artifact_key(source, params, schema_tag=RESULTS_SCHEMA_TAG)


class ArtifactCache:
    """A two-layer (memory LRU + optional disk) artifact cache.

    The payload is opaque: :meth:`lookup` takes the content-address key
    and a builder thunk, so one class serves the instrumentation, analysis
    and region code namespaces.  ``payload_type``, when given, guards
    disk loads against rows of the wrong type.
    """

    def __init__(
        self,
        capacity: int = 128,
        cache_dir: Optional[str] = None,
        enabled: bool = True,
        schema_tag: str = SCHEMA_TAG,
        payload_type: Optional[type] = InstrumentedModule,
        use_memory: bool = True,
    ) -> None:
        self.capacity = max(1, capacity)
        self.cache_dir = cache_dir
        self.enabled = enabled
        self.schema_tag = schema_tag
        self.payload_type = payload_type
        # Callers whose payloads are mutated after lookup (e.g.
        # restored world snapshots) disable the memory layer so every
        # load is a fresh unpickle, never a shared object.
        self.use_memory = use_memory
        self.stats = CacheStats()
        self._blobs = (
            blob_file(cache_dir) if enabled and cache_dir is not None else None
        )
        self._memory: "OrderedDict[str, object]" = OrderedDict()
        # Guards the memory LRU and the stats counters: one instance is
        # shared by all of the serve daemon's worker threads.
        self._lock = threading.RLock()

    # -- lookup ----------------------------------------------------------------

    def lookup(self, key: str, builder):
        """The artifact stored under *key*, building (and persisting)
        it on a miss."""
        if not self.enabled:
            return builder()
        artifact = self.load(key)
        if artifact is None:
            # Build outside the lock: compilation is slow and two racing
            # builders produce content-identical artifacts anyway.
            artifact = builder()
            self._disk_store(key, artifact)
            artifact = self._remember(key, artifact)
        return artifact

    def load(self, key: str):
        """The artifact stored under *key*, or None — no builder.

        Checks the memory layer first (when enabled), then disk.  Lets
        callers distinguish "cached" from "must compute" (e.g. resume
        logic skipping completed cells).
        """
        if not self.enabled:
            return None
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                return cached
        artifact = self._disk_load(key)
        with self._lock:
            if artifact is not None:
                self.stats.disk_hits += 1
            else:
                self.stats.misses += 1
        if artifact is not None:
            artifact = self._remember(key, artifact)
        return artifact

    def store(self, key: str, artifact) -> None:
        """Persist *artifact* under *key* without a lookup."""
        if not self.enabled:
            return
        self._disk_store(key, artifact)
        self._remember(key, artifact)

    def instrumented(
        self, source: str, config: Optional[Dict[str, object]] = None
    ) -> InstrumentedModule:
        """The instrumented artifact for *source*, cached.

        Since the instrumenter consumes the relevance switch (pruned vs
        full plans), the switch state joins the content address: a plan
        cached with pruning on can never be served to a ``--no-relevance``
        run, or vice versa.
        """
        prune = relevance_enabled()
        full_config = dict(config or {})
        full_config["relevance_pruning"] = prune
        return self.lookup(
            artifact_key(source, full_config, self.schema_tag),
            lambda: instrument_module(compile_source(source), prune=prune),
        )

    def _remember(self, key: str, artifact):
        """Install *artifact* in the LRU; returns the canonical object
        for *key* (a racing thread's insert wins, so all callers share
        one in-memory artifact per key)."""
        if not self.use_memory:
            return artifact
        with self._lock:
            existing = self._memory.get(key)
            if existing is not None:
                self._memory.move_to_end(key)
                return existing
            self._memory[key] = artifact
            self._memory.move_to_end(key)
            while len(self._memory) > self.capacity:
                self._memory.popitem(last=False)
        return artifact

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def clear_memory(self) -> None:
        with self._lock:
            self._memory.clear()

    # -- disk layer ------------------------------------------------------------

    def _disk_load(self, key: str):
        if self._blobs is None:
            return None
        where = (self.schema_tag, key)
        rows = self._blobs.execute(
            "SELECT payload, digest FROM blobs WHERE namespace = ? AND key = ?",
            where,
        )
        if rows == []:
            return None
        artifact = rows and unseal(*rows[0], self.schema_tag, self.payload_type)
        if artifact is None:
            # A damaged row (dropped, unless a writer replaced it since),
            # or a busy, healed or unusable file.
            if rows:
                self._blobs.execute(
                    "DELETE FROM blobs WHERE namespace = ? AND key = ? "
                    "AND digest = ?",
                    where + rows[0][1:],
                )
            with self._lock:
                self.stats.disk_errors += 1
        return artifact

    def _disk_store(self, key: str, artifact) -> None:
        if self._blobs is None:
            return
        # The cache is an accelerator, never a correctness dependency:
        # a failed store only costs a future rebuild.
        sealed = seal(artifact, self.schema_tag)
        written = sealed and self._blobs.execute(
            "INSERT OR REPLACE INTO blobs VALUES (?, ?, ?, ?, ?)",
            (self.schema_tag, key) + sealed + (time.time(),),
        )
        with self._lock:
            if written is None:
                self.stats.disk_errors += 1
            else:
                self.stats.stores += 1


# -- process-global caches -----------------------------------------------------
#
# The workload registry and the pool workers all route through shared
# instances so hit statistics and the LRUs are coherent within a
# process.  ``configure`` swaps all three (e.g. per the CLI's
# --cache-dir / --no-cache flags, or inside a freshly spawned worker).


def _code_cache(cache_dir: Optional[str] = None, enabled: bool = True) -> ArtifactCache:
    return ArtifactCache(
        capacity=CODE_CAPACITY,
        cache_dir=cache_dir,
        enabled=enabled,
        schema_tag=code_schema_tag(),
        payload_type=bytes,
    )


_GLOBAL = ArtifactCache()
_ANALYSIS = ArtifactCache(schema_tag=ANALYSIS_SCHEMA_TAG, payload_type=None)
_CODE = _code_cache()


def configure(
    cache_dir: Optional[str] = None,
    enabled: bool = True,
    capacity: int = 128,
) -> ArtifactCache:
    """Replace the process-global caches; returns the artifact one."""
    global _GLOBAL, _ANALYSIS, _CODE
    _GLOBAL = ArtifactCache(capacity=capacity, cache_dir=cache_dir, enabled=enabled)
    _ANALYSIS = ArtifactCache(
        capacity=capacity,
        cache_dir=cache_dir,
        enabled=enabled,
        schema_tag=ANALYSIS_SCHEMA_TAG,
        payload_type=None,
    )
    _CODE = _code_cache(cache_dir, enabled)
    return _GLOBAL


def get_cache() -> ArtifactCache:
    return _GLOBAL


def get_analysis_cache() -> ArtifactCache:
    return _ANALYSIS


def get_compiled_cache() -> ArtifactCache:
    """The region code namespace (threaded-backend generated code)."""
    return _CODE


def instrumented_for(
    source: str, config: Optional[Dict[str, object]] = None
) -> InstrumentedModule:
    """Module-level convenience: look *source* up in the global cache."""
    return _GLOBAL.instrumented(source, config)


def code_for(source: str, filename: str, builder) -> bytes:
    """Marshalled code object of generated *source*, cached.

    *builder* compiles on a miss and returns ``marshal.dumps`` of the
    code object.  The optimization level joins the key: ``-O`` changes
    what ``compile()`` emits for asserts and ``__debug__``.
    """
    key = artifact_key(
        source,
        {"filename": filename, "optimize": sys.flags.optimize},
        schema_tag=_CODE.schema_tag,
    )
    return _CODE.lookup(key, builder)


def analysis_for(source: str, fingerprint: str, builder):
    """Cached static-analysis summary of *source* under the given seed
    fingerprint.  *builder* produces the summary on a miss."""
    key = artifact_key(
        source, {"seeds": fingerprint}, schema_tag=ANALYSIS_SCHEMA_TAG
    )
    return _ANALYSIS.lookup(key, builder)
