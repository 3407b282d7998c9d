"""Unit tests for the columnar results store (repro.results).

The store's contract mirrors the artifact cache's: an accelerator,
never a correctness dependency.  Damage of any kind — torn writes,
corrupt pickles, digest mismatches, foreign schema tags — heals to a
miss, and a store that cannot operate degrades to a no-op instead of
failing the experiment.
"""

import os
import sqlite3

import pytest

from repro.cache import RESULTS_SCHEMA_TAG, result_cell_key
from repro.results import CellSpec, ResultsStore
from repro.results.keys import spec_for_cell


def _spec(key: str = "k1", workload: str = "gzip") -> CellSpec:
    return CellSpec(
        key=key,
        kind="table1",
        workload=workload,
        variant="default",
        fingerprint="fp1",
    )


@pytest.fixture
def store(tmp_path):
    store = ResultsStore(str(tmp_path / "results.sqlite"))
    yield store
    store.close()


def test_round_trip(store):
    payload = {"rows": [1, 2, 3], "name": "gzip"}
    assert store.get_cell("k1") is None
    store.put_cell(_spec(), payload)
    loaded = store.get_cell("k1")
    assert loaded == payload
    # Fresh unpickle per load: mutating one copy must not leak into the
    # next (ChaosRow.merge is destructive).
    loaded["rows"].append(4)
    assert store.get_cell("k1") == payload


def test_round_trip_across_reopen(store):
    store.put_cell(_spec(), [1, 2])
    store.close()
    reopened = ResultsStore(store.path)
    assert reopened.get_cell("k1") == [1, 2]
    assert reopened.cell_count("table1") == 1
    reopened.close()


def test_get_cells_maps_only_present_keys(store):
    store.put_cell(_spec("a"), "A")
    store.put_cell(_spec("b", workload="bzip2"), "B")
    found = store.get_cells(["a", "b", "missing"])
    assert found == {"a": "A", "b": "B"}


def test_corrupt_payload_heals_to_miss(store):
    store.put_cell(_spec(), {"ok": True})
    store.close()
    conn = sqlite3.connect(store.path)
    with conn:
        conn.execute(
            "UPDATE cells SET payload = ? WHERE key = 'k1'", (b"garbage",)
        )
    conn.close()
    reopened = ResultsStore(store.path)
    assert reopened.get_cell("k1") is None  # digest mismatch -> miss
    # ... and the damaged row is gone, so a re-put works cleanly.
    assert reopened.cell_count() == 0
    reopened.put_cell(_spec(), {"ok": True})
    assert reopened.get_cell("k1") == {"ok": True}
    reopened.close()


def test_torn_write_truncation_heals_to_empty_store(store):
    store.put_cell(_spec(), list(range(1000)))
    store.close()
    # Simulate a torn write: the file is cut mid-page.
    size = os.path.getsize(store.path)
    with open(store.path, "r+b") as handle:
        handle.truncate(size // 3)
    reopened = ResultsStore(store.path)
    assert reopened.get_cell("k1") is None
    assert reopened.enabled  # healed, not disabled
    reopened.put_cell(_spec(), "fresh")
    assert reopened.get_cell("k1") == "fresh"
    reopened.close()


def test_garbage_file_heals_at_open(store):
    store.close()
    with open(store.path, "wb") as handle:
        handle.write(b"this is not a sqlite database at all")
    reopened = ResultsStore(store.path)
    assert reopened.get_cell("anything") is None
    reopened.put_cell(_spec(), 42)
    assert reopened.get_cell("k1") == 42
    assert reopened.stats.healed >= 1
    reopened.close()


def test_foreign_schema_tag_orphans_the_store(store):
    store.put_cell(_spec(), "old")
    store.close()
    conn = sqlite3.connect(store.path)
    with conn:
        conn.execute("UPDATE meta SET value = 'ldx-results-v0' WHERE name = 'schema'")
    conn.close()
    reopened = ResultsStore(store.path)
    assert reopened.get_cell("k1") is None  # incompatible rows never load
    reopened.close()


def test_supersede_replaces_stale_fingerprint_rows(store):
    """Same coordinates + changed config: the old row must go away, or
    a rolled-back config would report the new config's results."""
    old = CellSpec(key="old-key", kind="figure6", workload="gzip",
                   variant="figure6", fingerprint="cfg-old")
    new = CellSpec(key="new-key", kind="figure6", workload="gzip",
                   variant="figure6", fingerprint="cfg-new")
    store.put_cell(old, "old-result")
    store.put_cell(new, "new-result")
    assert store.get_cell("old-key") is None
    assert store.get_cell("new-key") == "new-result"
    assert store.cell_count("figure6") == 1


def test_disabled_store_is_a_no_op(tmp_path):
    store = ResultsStore(str(tmp_path / "r.sqlite"), enabled=False)
    store.put_cell(_spec(), "x")
    assert store.get_cell("k1") is None
    assert not os.path.exists(store.path)
    store.close()


def test_unopenable_path_disables_instead_of_raising(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the store wants a directory")
    store = ResultsStore(str(blocker / "r.sqlite"))
    store.put_cell(_spec(), "x")  # must not raise
    assert store.get_cell("k1") is None
    assert not store.enabled
    store.close()


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


def test_bench_history_series(store):
    store.record_bench("storm", {"requests": 60.0, "skipme": "text"},
                       {"workers": 2})
    store.record_bench("storm", {"requests": 80.0})
    store.record_bench("other", {"mean": 1.5})
    series = store.bench_series("storm")
    assert len(series) == 1
    assert series[0]["values"] == [60.0, 80.0]
    everything = store.bench_series()
    assert {entry["bench"] for entry in everything} == {"storm", "other"}


def test_cell_keys_are_stable_and_source_sensitive():
    cell = ("table1", ("gzip",))
    spec1 = spec_for_cell(cell)
    spec2 = spec_for_cell(cell)
    assert spec1.key == spec2.key
    assert spec1.kind == "table1"
    assert spec1.workload == "gzip"
    # Different workload -> different key.
    assert spec_for_cell(("table1", ("bzip2",))).key != spec1.key
    # Different kind over the same workload -> different key.
    assert spec_for_cell(("table2", ("gzip",))).key != spec1.key


def test_chaos_keys_track_config_and_seeds():
    base = ("chaos", ("gzip", (0, 1, 2), 0.1, 25_000.0))
    other_deadline = ("chaos", ("gzip", (0, 1, 2), 0.1, 30_000.0))
    assert spec_for_cell(other_deadline).key != spec_for_cell(base).key
    other_rate = ("chaos", ("gzip", (0, 1, 2), 0.2, 25_000.0))
    assert spec_for_cell(other_rate).key != spec_for_cell(base).key
    other_seeds = ("chaos", ("gzip", (3, 4, 5), 0.1, 25_000.0))
    assert spec_for_cell(other_seeds).key != spec_for_cell(base).key
    # Config changes move the fingerprint; coordinate changes don't.
    assert spec_for_cell(other_rate).fingerprint != spec_for_cell(base).fingerprint
    assert spec_for_cell(other_seeds).fingerprint == spec_for_cell(base).fingerprint


def test_result_cell_key_ties_to_schema_tag():
    key = result_cell_key("int main() {}", {"kind": "table1"})
    assert RESULTS_SCHEMA_TAG == "ldx-results-v1"
    assert len(key) == 64  # sha256 hex
    assert key != result_cell_key("int main() { return 1; }", {"kind": "table1"})
