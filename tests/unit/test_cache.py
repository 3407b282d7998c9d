"""Unit tests for the content-addressed instrumentation artifact cache."""

import os
import sqlite3
import time

import pytest

from repro import cache
from repro.cache import BLOB_FILE, SCHEMA_TAG, ArtifactCache, artifact_key
from repro.instrument import InstrumentedModule, relevance_enabled

SOURCE = """
fn main() {
  var fd = open("/etc/secret", "r");
  var x = parse_int(read(fd, 8));
  close(fd);
  print(x);
}
"""

OTHER_SOURCE = """
fn main() {
  print("other");
}
"""


# -- keys ---------------------------------------------------------------------


def test_key_is_stable_and_content_addressed():
    assert artifact_key(SOURCE) == artifact_key(SOURCE)
    assert artifact_key(SOURCE) != artifact_key(OTHER_SOURCE)


def test_key_covers_instrumentation_config_not_dict_order():
    base = artifact_key(SOURCE)
    assert artifact_key(SOURCE, {"opt": 1}) != base
    assert artifact_key(SOURCE, {"a": 1, "b": 2}) == artifact_key(
        SOURCE, {"b": 2, "a": 1}
    )


def test_key_changes_with_schema_tag(monkeypatch):
    before = artifact_key(SOURCE)
    monkeypatch.setattr(cache, "SCHEMA_TAG", SCHEMA_TAG + "-bumped")
    assert artifact_key(SOURCE) != before


# -- memory layer --------------------------------------------------------------


def test_memory_hit_and_miss_accounting():
    store = ArtifactCache()
    first = store.instrumented(SOURCE)
    second = store.instrumented(SOURCE)
    assert first is second
    assert isinstance(first, InstrumentedModule)
    assert store.stats.misses == 1
    assert store.stats.memory_hits == 1


def test_lru_evicts_least_recently_used():
    store = ArtifactCache(capacity=1)
    store.instrumented(SOURCE)
    store.instrumented(OTHER_SOURCE)  # evicts SOURCE
    assert len(store) == 1
    store.instrumented(SOURCE)
    assert store.stats.misses == 3
    assert store.stats.memory_hits == 0


def test_disabled_cache_always_recompiles():
    store = ArtifactCache(enabled=False)
    first = store.instrumented(SOURCE)
    second = store.instrumented(SOURCE)
    assert first is not second
    assert len(store) == 0
    assert store.stats.lookups == 0


# -- disk layer ----------------------------------------------------------------


def test_disk_roundtrip_across_instances(tmp_path):
    cold = ArtifactCache(cache_dir=str(tmp_path))
    artifact = cold.instrumented(SOURCE)
    assert cold.stats.misses == 1 and cold.stats.stores == 1

    warm = ArtifactCache(cache_dir=str(tmp_path))
    loaded = warm.instrumented(SOURCE)
    assert warm.stats.disk_hits == 1 and warm.stats.misses == 0
    assert loaded.static_stats() == artifact.static_stats()


def _edit_rows(cache_dir, query, params=()):
    """Run one statement against ``blobs.sqlite`` from a second
    connection, as another process would."""
    conn = sqlite3.connect(os.path.join(str(cache_dir), BLOB_FILE))
    with conn:
        rows = conn.execute(query, params).fetchall()
    conn.close()
    return rows


def test_schema_tag_mismatch_invalidates_entry(tmp_path):
    stale = ArtifactCache(cache_dir=str(tmp_path), schema_tag="ldx-artifact-v0-stale")
    stale.instrumented(SOURCE)
    # Moved under the current namespace and key, the row fails its
    # digest, which covers the namespace it was written under.
    config = {"relevance_pruning": relevance_enabled()}
    _edit_rows(
        tmp_path,
        "UPDATE blobs SET namespace = ?, key = ?",
        (SCHEMA_TAG, artifact_key(SOURCE, config, SCHEMA_TAG)),
    )

    reopened = ArtifactCache(cache_dir=str(tmp_path))
    reopened.instrumented(SOURCE)
    assert reopened.stats.disk_hits == 0
    assert reopened.stats.misses == 1
    assert reopened.stats.disk_errors == 1
    # The stale row was replaced by a fresh, loadable one.
    rewritten = ArtifactCache(cache_dir=str(tmp_path))
    rewritten.instrumented(SOURCE)
    assert rewritten.stats.disk_hits == 1


def test_corrupted_entry_falls_back_to_recompile(tmp_path):
    store = ArtifactCache(cache_dir=str(tmp_path))
    store.instrumented(SOURCE)
    _edit_rows(tmp_path, "UPDATE blobs SET payload = ?", (b"\x80\x04 garbage",))

    reopened = ArtifactCache(cache_dir=str(tmp_path))
    artifact = reopened.instrumented(SOURCE)
    assert isinstance(artifact, InstrumentedModule)
    assert reopened.stats.disk_errors == 1
    assert reopened.stats.misses == 1
    assert _edit_rows(tmp_path, "SELECT COUNT(*) FROM blobs") == [(1,)]


def test_unwritable_disk_layer_degrades_gracefully(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the cache dir should be")
    store = ArtifactCache(cache_dir=str(blocker / "sub"))
    artifact = store.instrumented(SOURCE)
    assert isinstance(artifact, InstrumentedModule)
    assert store.stats.disk_errors >= 1


# -- process-global configuration ---------------------------------------------


def test_configure_swaps_global_cache():
    original = cache.get_cache()
    try:
        swapped = cache.configure(enabled=False)
        assert cache.get_cache() is swapped
        assert not cache.get_cache().enabled
    finally:
        cache._GLOBAL = original


def test_workload_property_routes_through_global_cache():
    from repro.workloads import ALL_WORKLOADS

    workload = ALL_WORKLOADS[0]
    workload._instrumented = None
    workload._module = None
    baseline = cache.get_cache().stats.lookups
    artifact = workload.instrumented
    assert cache.get_cache().stats.lookups == baseline + 1
    # The per-workload memo serves repeat accesses without a lookup.
    assert workload.instrumented is artifact
    assert cache.get_cache().stats.lookups == baseline + 1


# -- concurrent-writer hardening ----------------------------------------------


def test_digest_mismatch_is_a_miss_and_heals(tmp_path):
    """Silent bit-rot inside a stored payload must be caught by the
    digest, never unpickled."""
    store = ArtifactCache(cache_dir=str(tmp_path))
    store.instrumented(SOURCE)
    ((payload,),) = _edit_rows(tmp_path, "SELECT payload FROM blobs")
    flipped = bytearray(payload)
    flipped[len(flipped) // 2] ^= 0xFF
    _edit_rows(tmp_path, "UPDATE blobs SET payload = ?", (bytes(flipped),))

    reopened = ArtifactCache(cache_dir=str(tmp_path))
    artifact = reopened.instrumented(SOURCE)
    assert isinstance(artifact, InstrumentedModule)
    assert reopened.stats.disk_hits == 0
    assert reopened.stats.disk_errors == 1
    assert reopened.stats.misses == 1
    # The rebuild republished a good entry.
    healed = ArtifactCache(cache_dir=str(tmp_path))
    healed.instrumented(SOURCE)
    assert healed.stats.disk_hits == 1


def test_torn_partial_write_is_a_miss(tmp_path):
    """A torn database file (cut mid-page) is discarded, not a crash:
    one miss, then the rebuilt entry persists in a fresh file."""
    store = ArtifactCache(cache_dir=str(tmp_path))
    store.instrumented(SOURCE)
    cache.blob_file(str(tmp_path)).close()  # checkpoints the WAL
    path = tmp_path / BLOB_FILE
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

    reopened = ArtifactCache(cache_dir=str(tmp_path))
    artifact = reopened.instrumented(SOURCE)
    assert isinstance(artifact, InstrumentedModule)
    assert reopened.stats.disk_errors == 1
    assert reopened.stats.misses == 1
    assert reopened.stats.stores == 1
    rebuilt = ArtifactCache(cache_dir=str(tmp_path))
    rebuilt.instrumented(SOURCE)
    assert rebuilt.stats.disk_hits == 1


def test_busy_file_is_a_miss_not_a_heal(tmp_path, monkeypatch):
    """Another process holding the write lock is not corruption: the
    store is lost, the file and its rows are not."""
    monkeypatch.setattr(cache, "BUSY_TIMEOUT_S", 0.05)
    store = ArtifactCache(cache_dir=str(tmp_path), payload_type=bytes)
    store.store("kept", b"old")
    other = sqlite3.connect(str(tmp_path / BLOB_FILE), isolation_level=None)
    other.execute("BEGIN IMMEDIATE")
    store.store("blocked", b"new")
    other.execute("COMMIT")
    other.close()
    assert store.stats.disk_errors == 1
    assert cache.blob_file(str(tmp_path)).healed == 0
    fresh = ArtifactCache(cache_dir=str(tmp_path), payload_type=bytes)
    assert fresh.load("kept") == b"old"
    assert fresh.load("blocked") is None


def test_concurrent_lookups_converge_on_one_artifact(tmp_path):
    """Racing builders reconcile on a single canonical object."""
    import threading

    store = ArtifactCache(cache_dir=str(tmp_path))
    results = []
    barrier = threading.Barrier(8)

    def hammer():
        barrier.wait()
        for _ in range(5):
            results.append(store.instrumented(SOURCE))

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(results) == 40
    assert len({id(artifact) for artifact in results}) == 1
    assert len(store) == 1
    # The on-disk entry is intact after the race.
    fresh = ArtifactCache(cache_dir=str(tmp_path))
    fresh.instrumented(SOURCE)
    assert fresh.stats.disk_hits == 1


def test_concurrent_instances_share_the_disk_entry_safely(tmp_path):
    """Separate cache instances (separate processes in spirit) racing
    on one cache dir never corrupt the published entry."""
    import threading

    instances = [ArtifactCache(cache_dir=str(tmp_path)) for _ in range(4)]
    barrier = threading.Barrier(4)

    def hammer(store):
        barrier.wait()
        store.instrumented(SOURCE)

    threads = [threading.Thread(target=hammer, args=(s,)) for s in instances]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    fresh = ArtifactCache(cache_dir=str(tmp_path))
    artifact = fresh.instrumented(SOURCE)
    assert isinstance(artifact, InstrumentedModule)
    assert fresh.stats.disk_hits == 1
    assert fresh.stats.disk_errors == 0


def test_concurrent_stores_count_every_store(tmp_path):
    """Stats counters are updated under the lock: serve worker threads
    storing into one shared instance lose no increment."""
    import sys
    import threading

    store = ArtifactCache(cache_dir=str(tmp_path), payload_type=bytes)
    threads_n, per_thread = 8, 40
    barrier = threading.Barrier(threads_n)

    def hammer(worker):
        barrier.wait()
        for index in range(per_thread):
            store.store(f"{worker}-{index}", b"payload %d" % index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert store.stats.stores == threads_n * per_thread
    assert store.stats.disk_errors == 0
    rows = _edit_rows(tmp_path, "SELECT COUNT(*) FROM blobs")
    assert rows == [(threads_n * per_thread,)]


def test_durability_pragmas_per_file(tmp_path):
    """Blob files are rebuildable (WAL, synchronous=NORMAL); the
    results file is not (WAL, synchronous=FULL)."""
    from repro.results import ResultsStore

    blobs = ArtifactCache(cache_dir=str(tmp_path), payload_type=bytes)
    blobs.store("a", b"x")
    db = cache.blob_file(str(tmp_path))
    assert db.execute("PRAGMA journal_mode") == [("wal",)]
    assert db.execute("PRAGMA synchronous") == [(1,)]
    assert db.execute("PRAGMA cache_size") == [(-256,)]
    results = ResultsStore(str(tmp_path / "results.sqlite"))
    assert results._db.execute("PRAGMA journal_mode") == [("wal",)]
    assert results._db.execute("PRAGMA synchronous") == [(2,)]
    results.close()


# -- processes sharing one cache dir -------------------------------------------


def _store_range(cache_dir, prefix, count, start, report):
    start.wait()
    store = ArtifactCache(cache_dir=cache_dir, payload_type=bytes)
    for index in range(count):
        store.store(f"{prefix}-{index}", b"%s %d" % (prefix.encode(), index))
    report.put(store.stats.as_dict())


def test_two_processes_store_into_one_cache_dir(tmp_path):
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    start, report = context.Event(), context.Queue()
    count = 150
    workers = [
        context.Process(
            target=_store_range, args=(str(tmp_path), name, count, start, report)
        )
        for name in ("first", "second")
    ]
    for worker in workers:
        worker.start()
    start.set()
    stats = [report.get(timeout=120) for _ in workers]
    for worker in workers:
        worker.join(timeout=60)
    assert [worker.exitcode for worker in workers] == [0, 0]
    assert [entry["disk_errors"] for entry in stats] == [0, 0]
    assert [entry["stores"] for entry in stats] == [count, count]
    fresh = ArtifactCache(cache_dir=str(tmp_path), payload_type=bytes)
    for name in ("first", "second"):
        for index in range(count):
            assert fresh.load(f"{name}-{index}") == b"%s %d" % (name.encode(), index)
    assert fresh.stats.disk_errors == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork()")
def test_forked_child_uses_its_own_connection(tmp_path):
    """The parent's connection is open across fork(); the child's
    lookups and stores work, while the parent writes and reopens."""
    parent = ArtifactCache(cache_dir=str(tmp_path), payload_type=bytes)
    parent.store("before-fork", b"parent")
    db = cache.blob_file(str(tmp_path))
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child
        code = 1
        try:
            child = ArtifactCache(cache_dir=str(tmp_path), payload_type=bytes)
            if child.load("before-fork") == b"parent":
                for index in range(200):
                    child.store(f"child-{index}", b"%d" % index)
                if child.stats.disk_errors == 0 and child.stats.stores == 200:
                    code = 0
        finally:
            os._exit(code)
    for index in range(40):
        parent.store(f"parent-{index}", b"%d" % index)
        db.close()
    deadline = time.monotonic() + 60
    while (waited := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            pytest.fail("forked child did not finish")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(waited[1]) == 0
    assert db.execute("PRAGMA integrity_check") == [("ok",)]
    fresh = ArtifactCache(cache_dir=str(tmp_path), payload_type=bytes)
    assert all(fresh.load(f"child-{index}") == b"%d" % index for index in range(200))
    assert all(fresh.load(f"parent-{index}") == b"%d" % index for index in range(40))
    assert parent.stats.disk_errors == fresh.stats.disk_errors == 0
