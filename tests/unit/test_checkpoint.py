"""Unit tests for checkpoint persistence and the supervisor hook."""

import os
import pickle
import sqlite3

from repro.cache import BLOB_FILE
from repro.checkpoint import (
    CHECKPOINT_SCHEMA_TAG,
    CheckpointStore,
    world_key,
)
from repro.core.supervisor import Checkpointer
from repro.vos.world import World


# -- keys ----------------------------------------------------------------------


def test_world_keys_distinguish_rungs():
    base = world_key("run", 1, "abandon-slave-t0#0")
    assert world_key("run", 1, "abandon-slave-t0#1") != base
    assert world_key("run", 2, "abandon-slave-t0#0") != base
    assert world_key("other", 1, "abandon-slave-t0#0") != base


# -- store ---------------------------------------------------------------------


def test_store_roundtrip_and_missing(tmp_path):
    store = CheckpointStore(str(tmp_path))
    assert store.load("absent" * 8) is None
    store.save("k" * 8, {"payload": [1, 2]})
    assert store.load("k" * 8) == {"payload": [1, 2]}
    # Rows land in the directory's blob file, under the checkpoint
    # namespace.
    assert _rows(tmp_path, "SELECT namespace, key FROM blobs") == [
        (CHECKPOINT_SCHEMA_TAG, "k" * 8)
    ]


def test_store_loads_are_fresh_objects(tmp_path):
    """No memory layer: a loaded snapshot is restored and run on, so
    two loads of the same key must never alias one object."""
    store = CheckpointStore(str(tmp_path))
    store.save("key" * 4, {"rows": [1]})
    first = store.load("key" * 4)
    second = store.load("key" * 4)
    assert first == second
    assert first is not second
    first["rows"].append(2)
    assert store.load("key" * 4) == {"rows": [1]}


def test_store_corrupt_entry_degrades_to_rerun(tmp_path):
    store = CheckpointStore(str(tmp_path))
    store.save("bad" * 4, {"ok": True})
    _rows(tmp_path, "UPDATE blobs SET payload = ?", (b"garbage",))
    assert store.load("bad" * 4) is None
    assert store.stats.disk_errors == 1
    assert _rows(tmp_path, "SELECT COUNT(*) FROM blobs") == [(0,)]


def test_store_disabled_is_inert(tmp_path):
    store = CheckpointStore(str(tmp_path), enabled=False)
    store.save("k" * 4, {"x": 1})
    assert store.load("k" * 4) is None
    assert not os.listdir(str(tmp_path))


# -- the supervisor's checkpointer ---------------------------------------------


def _world():
    world = World(seed=2)
    world.fs.add_file("/etc/conf", "x")
    return world


def test_checkpointer_persists_restorable_snapshots(tmp_path):
    store = CheckpointStore(str(tmp_path))
    checkpointer = Checkpointer(store, label="t", seed=2)
    world = _world()
    world.fs.add_file("/scratch", "mid-run")
    key = checkpointer.checkpoint(world, "abandon-slave-t1")
    assert checkpointer.taken == [("abandon-slave-t1#0", key)]
    restored = _world().restore(store.load(key))
    assert restored.fs.read_file("/scratch").content == "mid-run"


def test_checkpointer_ordinals_keep_repeated_rungs_distinct(tmp_path):
    store = CheckpointStore(str(tmp_path))
    checkpointer = Checkpointer(store, label="t", seed=2)
    world = _world()
    first = checkpointer.checkpoint(world, "abandon-slave-t1")
    world.fs.add_file("/second", "2")
    second = checkpointer.checkpoint(world, "abandon-slave-t1")
    assert first != second
    assert store.load(first)["fs_delta"] != store.load(second)["fs_delta"]


def test_checkpointer_swallows_store_failures():
    class Exploding:
        def save(self, key, payload):
            raise OSError("disk on fire")

    checkpointer = Checkpointer(Exploding())
    checkpointer.checkpoint(_world(), "abandon-master-t0")
    assert checkpointer.taken == []


def test_snapshot_payload_is_picklable_without_scripts():
    world = _world()
    world.network.register("srv", 1, lambda req: "r")  # closure: unpicklable
    world.network.connect("srv", 1).send("x")
    pickle.dumps(world.snapshot())  # must not try to pickle the script


# -- garbage collection --------------------------------------------------------


def _rows(checkpoint_dir, query, params=()):
    """Run one statement against the store's file from a second
    connection."""
    conn = sqlite3.connect(os.path.join(str(checkpoint_dir), BLOB_FILE))
    with conn:
        rows = conn.execute(query, params).fetchall()
    conn.close()
    return rows


def _aged_store(tmp_path, ages):
    """A store with one entry per (key, age-seconds) pair, creation
    times pinned relative to now=1000.0."""
    store = CheckpointStore(str(tmp_path))
    for key, age in ages:
        store.save(key, {"k": key})
        _rows(
            tmp_path,
            "UPDATE blobs SET created_at = ? WHERE key = ?",
            (1000.0 - age, key),
        )
    return store


def test_prune_ttl_removes_only_expired_entries(tmp_path):
    store = _aged_store(
        tmp_path, [("fresh000", 10.0), ("old00000", 500.0), ("older000", 900.0)]
    )
    summary = store.prune(max_age_seconds=100.0, now=1000.0)
    assert summary["scanned"] == 3
    assert summary["removed"] == 2
    assert summary["kept"] == 1
    assert summary["reclaimed_bytes"] > 0
    assert store.load("fresh000") is not None
    assert store.load("old00000") is None
    assert store.load("older000") is None


def test_prune_max_entries_keeps_the_newest(tmp_path):
    store = _aged_store(
        tmp_path, [("a0000000", 300.0), ("b0000000", 200.0), ("c0000000", 100.0)]
    )
    summary = store.prune(max_entries=2, now=1000.0)
    assert summary["removed"] == 1
    assert summary["kept"] == 2
    assert store.load("a0000000") is None  # oldest evicted
    assert store.load("b0000000") is not None
    assert store.load("c0000000") is not None


def test_prune_sweeps_stale_namespaces_but_not_foreign_ones(tmp_path):
    store = CheckpointStore(str(tmp_path))
    store.save("keep0000", {"x": 1})
    for namespace, key in (("ldx-checkpoint-v1", "ancient0"),
                           ("ldx-artifact-v4", "precious")):
        _rows(
            tmp_path,
            "INSERT INTO blobs VALUES (?, ?, ?, '', 0)",
            (namespace, key, b"not loadable here"),
        )

    summary = store.prune()
    assert summary == {
        "scanned": 2, "removed": 1, "kept": 1,
        "reclaimed_bytes": len(b"not loadable here"),
    }
    assert _rows(tmp_path, "SELECT namespace FROM blobs ORDER BY namespace") == [
        ("ldx-artifact-v4",), (CHECKPOINT_SCHEMA_TAG,)
    ]
    assert store.load("keep0000") is not None


def test_prune_missing_dir_is_a_noop(tmp_path):
    from repro.checkpoint import prune_checkpoints

    summary = prune_checkpoints(str(tmp_path / "never-created"), max_entries=1)
    assert summary == {"scanned": 0, "removed": 0, "kept": 0, "reclaimed_bytes": 0}
    assert prune_checkpoints(None)["scanned"] == 0
