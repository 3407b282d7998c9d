"""The columnar results store: every eval/chaos cell, queryable.

Before this module, every experiment result died in per-run text or
JSON: re-running ``repro eval`` recomputed all ~28 workloads even when
nothing changed.  The store fixes that with one SQLite database
(default ``.repro-cache/results.sqlite``) holding two tables:

* ``cells`` — one row per completed experiment cell (a Table 1 row, a
  Table 4 seed chunk, a chaos seed chunk, ...), keyed by the same
  content-address scheme as :mod:`repro.cache`
  (:func:`repro.cache.result_cell_key`): workload source x variant x
  schedule seed x fault seed x config fingerprint x schema tag.  The
  coordinates are real columns, so the store is queryable; the result
  object itself is a digest-verified pickle blob.  **Incremental
  re-runs fall out of the keying**: an unchanged cell's key is already
  present, so ``repro eval`` executes only absent keys and ``repro
  report`` renders every table with zero execution.
* ``runs`` — one row per recorded eval/chaos invocation: the planning
  parameters (needed to re-derive the exact cell plan when reporting)
  plus executed/reused counts.

Robustness mirrors the artifact cache's contract, through the same
persistence primitive (:class:`repro.cache.SqliteFile`): the store is
an accelerator, never a correctness dependency.  A torn write (the
database truncated mid-transaction), a corrupt pickle, a digest
mismatch or a foreign schema tag all **heal to a miss** — the damaged
state is discarded (row or whole file) and the cell is simply
recomputed; a busy or locked database only counts an error.  No store
failure ever fails an experiment; a store that cannot be opened at all
degrades to no-ops after one stderr warning.  With ``synchronous=FULL``
a committed cell survives a power loss, and since each ``put_cell`` is
one transaction, concurrent runs may share a store.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, Iterable, Optional

from repro.cache import RESULTS_SCHEMA_TAG, SqliteFile, seal, unseal
from repro.errors import ReproError

DEFAULT_STORE_PATH = os.path.join(".repro-cache", "results.sqlite")

_SCHEMA = f"""
CREATE TABLE IF NOT EXISTS meta (
    name  TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    key           TEXT PRIMARY KEY,
    kind          TEXT NOT NULL,
    workload      TEXT NOT NULL,
    variant       TEXT NOT NULL DEFAULT '',
    schedule_seed INTEGER,
    fault_seed    INTEGER,
    fingerprint   TEXT NOT NULL,
    schema        TEXT NOT NULL,
    payload       BLOB NOT NULL,
    digest        TEXT NOT NULL,
    created_at    REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS cells_by_kind ON cells (kind, workload, variant);
CREATE TABLE IF NOT EXISTS runs (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    kind       TEXT NOT NULL,
    params     TEXT NOT NULL,
    planned    INTEGER NOT NULL,
    executed   INTEGER NOT NULL,
    reused     INTEGER NOT NULL,
    created_at REAL NOT NULL
);
INSERT OR IGNORE INTO meta (name, value) VALUES ('schema', '{RESULTS_SCHEMA_TAG}');
"""

# A store of another schema version is orphaned wholesale instead of
# unpickling incompatible rows.
_SAME_SCHEMA = f"SELECT value = '{RESULTS_SCHEMA_TAG}' FROM meta WHERE name = 'schema'"


class ResultsError(ReproError):
    """Raised when a report is requested from an insufficient store."""


class CellSpec:
    """One cell's identity: its content-address key plus the columnar
    coordinates stored alongside the payload."""

    __slots__ = ("key", "kind", "workload", "variant", "schedule_seed",
                 "fault_seed", "fingerprint")

    def __init__(
        self,
        key: str,
        kind: str,
        workload: str,
        variant: str = "",
        schedule_seed: Optional[int] = None,
        fault_seed: Optional[int] = None,
        fingerprint: str = "",
    ) -> None:
        self.key = key
        self.kind = kind
        self.workload = workload
        self.variant = variant
        self.schedule_seed = schedule_seed
        self.fault_seed = fault_seed
        self.fingerprint = fingerprint

    def __repr__(self) -> str:
        return (
            f"<CellSpec {self.kind}:{self.workload}:{self.variant} "
            f"key={self.key[:12]}>"
        )


class StoreStats:
    """Hit/miss/write accounting for one store instance."""

    __slots__ = ("hits", "misses", "stores", "errors", "healed")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.errors = 0
        self.healed = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class ResultsStore:
    """SQLite-backed columnar store for experiment cells.

    ``enabled=False`` turns every operation into a no-op returning a
    miss, so callers never branch on whether a store is configured.
    """

    def __init__(self, path: str = DEFAULT_STORE_PATH, enabled: bool = True) -> None:
        self.path = path
        self.enabled = enabled
        self.stats = StoreStats()
        self._db = SqliteFile(path, _SCHEMA, "FULL", check=_SAME_SCHEMA)

    def _execute(self, query: str, params=(), *more) -> Optional[list]:
        """:meth:`SqliteFile.execute` plus this store's accounting; None
        means a miss or a no-op."""
        if not self.enabled:
            return None
        rows = self._db.execute(query, params, *more)
        self.stats.healed = self._db.healed
        if rows is None:
            self.stats.errors += 1
            if self._db.broken is not None:
                self.enabled = False
                print(f"results store: {self._db.broken} ({self.path}); "
                      "continuing without it", file=sys.stderr)
        return rows

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- cells -----------------------------------------------------------------

    def get_cell(self, key: str):
        """The result stored under *key*, or None (missing or corrupt
        rows are misses; corrupt rows are also deleted)."""
        rows = self._execute(
            "SELECT payload, digest, schema FROM cells WHERE key = ?", (key,)
        )
        result = None
        if rows:
            payload, digest, schema = rows[0]
            if schema == RESULTS_SCHEMA_TAG:
                result = unseal(payload, digest)
            if result is None:
                # A damaged row must become a miss, never a wrong result.
                self.stats.errors += 1
                self._execute("DELETE FROM cells WHERE key = ?", (key,))
        if result is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return result

    def get_cells(self, keys: Iterable[str]) -> Dict[str, object]:
        """{key -> result} for every *present and intact* key."""
        found: Dict[str, object] = {}
        for key in keys:
            result = self.get_cell(key)
            if result is not None:
                found[key] = result
        return found

    def put_cell(self, spec: CellSpec, result) -> None:
        """Persist one completed cell, in one transaction; supersedes
        any row that shares the cell's coordinates under a stale
        fingerprint (the old config's result can never be reported
        again)."""
        if not self.enabled:
            return
        sealed = seal(result)
        if sealed is None:
            self.stats.errors += 1
            return
        written = self._execute(
            "DELETE FROM cells WHERE kind = ? AND workload = ? AND variant = ? "
            "AND COALESCE(schedule_seed, -1) = COALESCE(?, -1) "
            "AND COALESCE(fault_seed, -1) = COALESCE(?, -1) AND key != ?",
            (spec.kind, spec.workload, spec.variant, spec.schedule_seed,
             spec.fault_seed, spec.key),
            ("INSERT OR REPLACE INTO cells "
             "(key, kind, workload, variant, schedule_seed, fault_seed, "
             " fingerprint, schema, payload, digest, created_at) "
             "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
             (spec.key, spec.kind, spec.workload, spec.variant,
              spec.schedule_seed, spec.fault_seed, spec.fingerprint,
              RESULTS_SCHEMA_TAG) + sealed + (time.time(),)),
        )
        if written is not None:
            self.stats.stores += 1

    def cell_count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            rows = self._execute("SELECT COUNT(*) FROM cells")
        else:
            rows = self._execute(
                "SELECT COUNT(*) FROM cells WHERE kind = ?", (kind,)
            )
        return rows[0][0] if rows else 0

    # -- runs ------------------------------------------------------------------

    def record_run(
        self, kind: str, params: Dict[str, object],
        planned: int, executed: int, reused: int,
    ) -> None:
        """Record one eval/chaos invocation's plan parameters and
        incremental-execution counts."""
        self._execute(
            "INSERT INTO runs (kind, params, planned, executed, reused, "
            "created_at) VALUES (?, ?, ?, ?, ?, ?)",
            (kind, json.dumps(params, sort_keys=True), planned, executed,
             reused, time.time()),
        )

    def latest_run(self, kind: str) -> Optional[Dict[str, object]]:
        """The most recent recorded run of *kind*, or None."""
        rows = self._execute(
            "SELECT params, planned, executed, reused, created_at FROM runs "
            "WHERE kind = ? ORDER BY id DESC LIMIT 1",
            (kind,),
        )
        if not rows:
            return None
        params, planned, executed, reused, created_at = rows[0]
        try:
            params = json.loads(params)
        except ValueError:
            return None
        return {
            "kind": kind,
            "params": params,
            "planned": planned,
            "executed": executed,
            "reused": reused,
            "created_at": created_at,
        }
