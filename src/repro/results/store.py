"""The results store: every eval/chaos cell, kept like a cached blob.

Before this module, every experiment result died in per-run text or
JSON: re-running ``repro eval`` recomputed all ~28 workloads even when
nothing changed.  The store fixes that with one SQLite database
(default ``.repro-cache/results.sqlite``) holding two tables:

* ``blobs`` — one row per completed experiment cell (a Table 1 row, a
  Table 4 seed chunk, a chaos seed chunk, ...), in the artifact
  cache's row format under the namespace
  :data:`repro.cache.RESULTS_SCHEMA_TAG`: a content-address key
  (:func:`repro.eval.parallel.cell_key`: the sources of the workloads
  the cell runs, its kind and its payload) and a digest-verified
  pickle of the result.  **Incremental re-runs fall out of the
  keying**: an unchanged cell's key is already present, so ``repro
  eval`` executes only absent keys and ``repro report`` renders every
  table with zero execution.
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

from repro.cache import BLOB_SCHEMA, RESULTS_SCHEMA_TAG, CacheStats, SqliteFile
from repro.errors import ReproError

DEFAULT_STORE_PATH = os.path.join(".repro-cache", "results.sqlite")

_SCHEMA = BLOB_SCHEMA + f"""
CREATE TABLE IF NOT EXISTS meta (
    name  TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
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


class ResultsStore:
    """SQLite-backed store for experiment cells and recorded runs.

    ``stats`` counts as the artifact cache does (``disk_hits``,
    ``misses``, ``stores``, ``disk_errors``).  A file that cannot be
    opened clears ``enabled``, which turns every later operation into
    a no-op returning a miss.
    """

    def __init__(self, path: str = DEFAULT_STORE_PATH) -> None:
        self.path = path
        self.enabled = True
        self.stats = CacheStats()
        self._db = SqliteFile(path, _SCHEMA, "FULL", check=_SAME_SCHEMA)

    def _account(self, ok: bool) -> None:
        """Count a failed operation; a file that cannot be opened
        disables the store after one warning."""
        if ok:
            return
        self.stats.disk_errors += 1
        if self._db.broken is not None:
            self.enabled = False
            print(f"results store: {self._db.broken} ({self.path}); "
                  "continuing without it", file=sys.stderr)

    def _execute(self, query: str, params=()) -> Optional[list]:
        """:meth:`SqliteFile.execute` plus this store's accounting; None
        means a miss or a no-op."""
        if not self.enabled:
            return None
        rows = self._db.execute(query, params)
        self._account(rows is not None)
        return rows

    def close(self) -> None:
        self._db.close()

    # -- cells -----------------------------------------------------------------

    def get_cell(self, key: str):
        """The result stored under *key*, or None (missing or corrupt
        rows are misses; corrupt rows are also deleted)."""
        result = None
        if self.enabled:
            result, ok = self._db.read_blob(RESULTS_SCHEMA_TAG, key)
            self._account(ok)
        if result is None:
            self.stats.misses += 1
        else:
            self.stats.disk_hits += 1
        return result

    def get_cells(self, keys: Iterable[str]) -> Dict[str, object]:
        """{key -> result} for every *present and intact* key."""
        found: Dict[str, object] = {}
        for key in keys:
            result = self.get_cell(key)
            if result is not None:
                found[key] = result
        return found

    def put_cell(self, key: str, result) -> None:
        """Persist one completed cell under *key*, in one transaction."""
        if not self.enabled:
            return
        written = self._db.write_blob(RESULTS_SCHEMA_TAG, key, result)
        self._account(written)
        if written:
            self.stats.stores += 1

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
