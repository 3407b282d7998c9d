"""Unit tests for the content-addressed instrumentation artifact cache."""

import os
import pickle

import pytest

from repro import cache
from repro.cache import SCHEMA_TAG, ArtifactCache, artifact_key
from repro.instrument import InstrumentedModule

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


def test_schema_tag_mismatch_invalidates_entry(tmp_path):
    store = ArtifactCache(cache_dir=str(tmp_path))
    store.instrumented(SOURCE)
    (entry,) = list((tmp_path / SCHEMA_TAG).iterdir())
    payload = pickle.loads(entry.read_bytes())
    payload["schema"] = "ldx-artifact-v0-stale"
    entry.write_bytes(pickle.dumps(payload))

    reopened = ArtifactCache(cache_dir=str(tmp_path))
    reopened.instrumented(SOURCE)
    assert reopened.stats.disk_hits == 0
    assert reopened.stats.misses == 1
    assert reopened.stats.disk_errors == 1
    # The stale entry was replaced by a fresh, loadable one.
    rewritten = ArtifactCache(cache_dir=str(tmp_path))
    rewritten.instrumented(SOURCE)
    assert rewritten.stats.disk_hits == 1


def test_corrupted_entry_falls_back_to_recompile(tmp_path):
    store = ArtifactCache(cache_dir=str(tmp_path))
    store.instrumented(SOURCE)
    (entry,) = list((tmp_path / SCHEMA_TAG).iterdir())
    entry.write_bytes(b"\x80\x04 truncated garbage")

    reopened = ArtifactCache(cache_dir=str(tmp_path))
    artifact = reopened.instrumented(SOURCE)
    assert isinstance(artifact, InstrumentedModule)
    assert reopened.stats.disk_errors == 1
    assert reopened.stats.misses == 1


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
    """Silent bit-rot inside the artifact blob (outer pickle still
    valid) must be caught by the payload digest, never unpickled."""
    store = ArtifactCache(cache_dir=str(tmp_path))
    store.instrumented(SOURCE)
    (entry,) = list((tmp_path / SCHEMA_TAG).iterdir())
    payload = pickle.loads(entry.read_bytes())
    blob = bytearray(payload["artifact"])
    blob[len(blob) // 2] ^= 0xFF
    payload["artifact"] = bytes(blob)
    entry.write_bytes(pickle.dumps(payload))  # digest now stale

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
    """A torn write (file cut mid-payload) is a miss, not a crash."""
    store = ArtifactCache(cache_dir=str(tmp_path))
    store.instrumented(SOURCE)
    (entry,) = list((tmp_path / SCHEMA_TAG).iterdir())
    whole = entry.read_bytes()
    entry.write_bytes(whole[: len(whole) // 2])

    reopened = ArtifactCache(cache_dir=str(tmp_path))
    artifact = reopened.instrumented(SOURCE)
    assert isinstance(artifact, InstrumentedModule)
    assert reopened.stats.disk_errors == 1
    assert reopened.stats.misses == 1


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

    store = ArtifactCache(cache_dir=str(tmp_path), payload_type=bytes, fsync=False)
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
    assert len(list(tmp_path.rglob("*.pkl"))) == threads_n * per_thread


def test_fsync_is_per_namespace(tmp_path, monkeypatch):
    """Only instances built with ``fsync=False`` skip the per-entry
    fsync; publish stays atomic and the entry loads back verified."""
    synced = []
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
    ArtifactCache(cache_dir=str(tmp_path), payload_type=bytes).store("a", b"x")
    assert len(synced) == 1
    unsynced = ArtifactCache(cache_dir=str(tmp_path), payload_type=bytes, fsync=False)
    unsynced.store("b", b"y")
    assert len(synced) == 1
    reopened = ArtifactCache(cache_dir=str(tmp_path), payload_type=bytes)
    assert reopened.load("b") == b"y"
    assert reopened.stats.disk_hits == 1
    assert not list(tmp_path.rglob("*.tmp"))
