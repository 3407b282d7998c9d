"""Unit tests for the results store (repro.results).

The store's contract mirrors the artifact cache's: an accelerator,
never a correctness dependency.  Damage of any kind — torn writes,
corrupt pickles, digest mismatches, foreign schema tags — heals to a
miss, and a store that cannot operate degrades to a no-op instead of
failing the experiment.  Cells are rows of the artifact cache's
``blobs`` table under the results namespace.
"""

import os
import sqlite3
import sys
import types

import pytest

from repro.cache import RESULTS_SCHEMA_TAG, result_cell_key
from repro.eval.parallel import cell_key
from repro.results import ResultsStore


def _query(path, sql, params=()):
    """Run one statement from a second connection (as another process
    would) and return its rows."""
    conn = sqlite3.connect(path)
    try:
        with conn:
            return conn.execute(sql, params).fetchall()
    finally:
        conn.close()


def _cell_rows(path):
    return _query(
        path, "SELECT COUNT(*) FROM blobs WHERE namespace = ?",
        (RESULTS_SCHEMA_TAG,),
    )[0][0]


@pytest.fixture
def store(tmp_path):
    store = ResultsStore(str(tmp_path / "results.sqlite"))
    yield store
    store.close()


def test_round_trip(store):
    payload = {"rows": [1, 2, 3], "name": "gzip"}
    assert store.get_cell("k1") is None
    store.put_cell("k1", payload)
    loaded = store.get_cell("k1")
    assert loaded == payload
    # Fresh unpickle per load: mutating one copy must not leak into the
    # next (ChaosRow.merge is destructive).
    loaded["rows"].append(4)
    assert store.get_cell("k1") == payload


def test_round_trip_across_reopen(store):
    store.put_cell("k1", [1, 2])
    store.close()
    reopened = ResultsStore(store.path)
    assert reopened.get_cell("k1") == [1, 2]
    assert _cell_rows(store.path) == 1
    reopened.close()


def test_get_cells_maps_only_present_keys(store):
    store.put_cell("a", "A")
    store.put_cell("b", "B")
    found = store.get_cells(["a", "b", "missing"])
    assert found == {"a": "A", "b": "B"}


def test_corrupt_payload_heals_to_miss(store):
    store.put_cell("k1", {"ok": True})
    store.close()
    _query(store.path, "UPDATE blobs SET payload = ? WHERE key = 'k1'", (b"garbage",))
    reopened = ResultsStore(store.path)
    assert reopened.get_cell("k1") is None  # digest mismatch -> miss
    assert reopened.stats.disk_errors == 1
    # ... and the damaged row is gone, so a re-put works cleanly.
    assert _cell_rows(store.path) == 0
    reopened.put_cell("k1", {"ok": True})
    assert reopened.get_cell("k1") == {"ok": True}
    reopened.close()


def test_row_naming_a_vanished_class_heals_to_miss(store, monkeypatch):
    """An intact digest over a pickle that no longer loads (its class
    is gone) is damage like any other: counted, deleted, a miss."""
    module = types.ModuleType("vanishing_results_module")

    class Gone:
        pass

    Gone.__module__ = module.__name__
    Gone.__qualname__ = "Gone"
    module.Gone = Gone
    monkeypatch.setitem(sys.modules, module.__name__, module)
    store.put_cell("k1", Gone())
    monkeypatch.delitem(sys.modules, module.__name__)

    assert store.get_cell("k1") is None
    assert store.stats.disk_errors == 1
    assert store.stats.misses == 1
    assert _cell_rows(store.path) == 0


def test_torn_write_truncation_heals_to_empty_store(store):
    store.put_cell("k1", list(range(1000)))
    store.close()
    # Simulate a torn write: the file is cut mid-page.
    size = os.path.getsize(store.path)
    with open(store.path, "r+b") as handle:
        handle.truncate(size // 3)
    reopened = ResultsStore(store.path)
    assert reopened.get_cell("k1") is None
    assert reopened.enabled  # healed, not disabled
    reopened.put_cell("k1", "fresh")
    assert reopened.get_cell("k1") == "fresh"
    reopened.close()


def test_garbage_file_heals_at_open(store):
    store.close()
    with open(store.path, "wb") as handle:
        handle.write(b"this is not a sqlite database at all")
    reopened = ResultsStore(store.path)
    assert reopened.get_cell("anything") is None
    reopened.put_cell("k1", 42)
    assert reopened.get_cell("k1") == 42
    assert reopened._db.healed >= 1
    reopened.close()


def test_busy_lock_is_an_error_never_a_heal(tmp_path, monkeypatch):
    """A second writer holding the lock past the busy timeout costs this
    put, nothing else: the store must not delete a file another
    connection is writing."""
    from repro import cache

    monkeypatch.setattr(cache, "BUSY_TIMEOUT_S", 0.05)
    store = ResultsStore(str(tmp_path / "results.sqlite"))
    store.put_cell("kept", "earlier")
    other = sqlite3.connect(store.path, isolation_level=None)
    other.execute("BEGIN IMMEDIATE")
    other.execute(
        "INSERT INTO runs (kind, params, planned, executed, reused, created_at)"
        " VALUES ('other', '{}', 7, 7, 0, 0)"
    )
    store.put_cell("blocked", "lost")
    other.execute("COMMIT")
    other.close()
    assert store._db.healed == 0
    assert store.stats.disk_errors == 1
    assert store.enabled
    assert store.get_cell("kept") == "earlier"
    assert store.get_cell("blocked") is None
    assert store.latest_run("other")["planned"] == 7
    store.close()


def test_foreign_schema_tag_orphans_the_store(store):
    store.put_cell("k1", "old")
    store.close()
    _query(store.path, "UPDATE meta SET value = 'ldx-results-v0' WHERE name = 'schema'")
    reopened = ResultsStore(store.path)
    assert reopened.get_cell("k1") is None  # incompatible rows never load
    reopened.close()


# The layout of the previous schema version: cells in their own table,
# with coordinate columns.
_V1_LAYOUT = """
CREATE TABLE meta (name TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE cells (
    key TEXT PRIMARY KEY, kind TEXT NOT NULL, workload TEXT NOT NULL,
    variant TEXT NOT NULL DEFAULT '', schedule_seed INTEGER,
    fault_seed INTEGER, fingerprint TEXT NOT NULL, schema TEXT NOT NULL,
    payload BLOB NOT NULL, digest TEXT NOT NULL, created_at REAL NOT NULL
);
CREATE INDEX cells_by_kind ON cells (kind, workload, variant);
CREATE TABLE runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT, kind TEXT NOT NULL,
    params TEXT NOT NULL, planned INTEGER NOT NULL, executed INTEGER NOT NULL,
    reused INTEGER NOT NULL, created_at REAL NOT NULL
);
INSERT INTO meta VALUES ('schema', 'ldx-results-v1');
"""


def test_previous_layout_heals_to_empty_and_refills(tmp_path):
    from repro.eval.robustness import render_chaos, run_chaos

    path = str(tmp_path / "results.sqlite")
    conn = sqlite3.connect(path)
    conn.executescript(_V1_LAYOUT)
    conn.execute(
        "INSERT INTO runs (kind, params, planned, executed, reused, created_at)"
        " VALUES ('chaos', '{}', 1, 1, 0, 0)"
    )
    conn.commit()
    conn.close()

    store = ResultsStore(path)
    assert store.latest_run("chaos") is None  # healed to empty
    assert store.enabled
    rows = run_chaos(names=["gzip"], seeds=2, store=store)
    run = store.latest_run("chaos")
    assert run["executed"] == run["planned"] == 1
    warm = run_chaos(names=["gzip"], seeds=2, store=store)
    assert store.latest_run("chaos")["reused"] == 1
    store.close()
    assert render_chaos(warm, 2, 0.1) == render_chaos(rows, 2, 0.1)
    assert _cell_rows(path) == 1
    tables = {name for (name,) in _query(
        path, "SELECT name FROM sqlite_master WHERE type = 'table'"
    )}
    assert "cells" not in tables


def test_rolled_back_config_reads_its_own_result(store):
    """A config change is a new key beside the old one, never a
    replacement: rolling it back hashes to the old key, whose row holds
    the old config's result."""
    old = cell_key(("chaos", ("gzip", (0, 1), 0.1, 25_000.0)))
    new = cell_key(("chaos", ("gzip", (0, 1), 0.2, 25_000.0)))
    store.put_cell(old, "old-result")
    store.put_cell(new, "new-result")
    assert store.get_cell(old) == "old-result"
    assert store.get_cell(new) == "new-result"


def test_unopenable_path_disables_instead_of_raising(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the store wants a directory")
    store = ResultsStore(str(blocker / "r.sqlite"))
    store.put_cell("k1", "x")  # must not raise
    assert store.get_cell("k1") is None
    assert not store.enabled
    store.record_run("eval", {}, planned=1, executed=1, reused=0)
    assert store.latest_run("eval") is None
    store.close()
    assert capsys.readouterr().err.count("continuing without it") == 1


def test_run_metadata_round_trip(store):
    assert store.latest_run("eval") is None
    store.record_run("eval", {"table4_runs": 3, "check_static": False},
                     planned=92, executed=92, reused=0)
    store.record_run("eval", {"table4_runs": 3, "check_static": True},
                     planned=120, executed=28, reused=92)
    run = store.latest_run("eval")
    assert run["params"]["check_static"] is True
    assert run["planned"] == 120
    assert run["executed"] == 28
    assert run["reused"] == 92
    assert store.latest_run("chaos") is None


def test_cell_keys_are_stable_and_source_sensitive():
    cell = ("table1", ("gzip",))
    assert cell_key(cell) == cell_key(("table1", ("gzip",)))
    # Different workload -> different key.
    assert cell_key(("table1", ("bzip2",))) != cell_key(cell)
    # Different kind over the same workload -> different key.
    assert cell_key(("table2", ("gzip",))) != cell_key(cell)
    # A mutation cell hashes every workload it runs.
    assert cell_key(("mutation", ("random", ("gzip", "bzip2")))) != cell_key(
        ("mutation", ("random", ("gzip",)))
    )


def test_chaos_keys_track_config_and_seeds():
    base = ("chaos", ("gzip", (0, 1, 2), 0.1, 25_000.0))
    other_deadline = ("chaos", ("gzip", (0, 1, 2), 0.1, 30_000.0))
    assert cell_key(other_deadline) != cell_key(base)
    other_rate = ("chaos", ("gzip", (0, 1, 2), 0.2, 25_000.0))
    assert cell_key(other_rate) != cell_key(base)
    other_seeds = ("chaos", ("gzip", (3, 4, 5), 0.1, 25_000.0))
    assert cell_key(other_seeds) != cell_key(base)


def test_result_cell_key_ties_to_schema_tag():
    key = result_cell_key("int main() {}", {"kind": "table1"})
    assert RESULTS_SCHEMA_TAG == "ldx-results-v2"
    assert len(key) == 64  # sha256 hex
    assert key != result_cell_key("int main() { return 1; }", {"kind": "table1"})
