"""Checkpoint persistence for dual executions.

**World checkpoints** land under ``.repro-cache/checkpoints/``:
:meth:`World.snapshot` dicts saved by the engine supervisor at each
degradation-ladder rung (before a thread is abandoned, or when the
engine fails terminally).  These make the slave's overlay delta
inspectable after the fact and let a future run re-materialize the
execution point.  (Resuming an interrupted ``repro chaos`` or
``repro eval`` is the results store's job, not this module's: every
finished cell persists there and a re-run reuses it.)

Storage reuses :class:`repro.cache.ArtifactCache` (content-addressed
keys, schema-versioned directory, atomic writes, corrupt-entry
recovery) with two deliberate differences: its own schema tag — a
checkpoint is runtime state, never mixed with instrumentation
artifacts — and **no memory layer**.  A loaded snapshot is restored
into a world that then runs on; a shared in-memory object would carry
one caller's mutations into the next load.  Every load is a fresh
unpickle.

Keying *includes* runtime identity (run label, seed, rung label):
unlike instrumentation artifacts, a checkpoint is only meaningful for
the exact run that produced it.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.cache import ArtifactCache, artifact_key

# Bump when the World.snapshot pickle layout changes.
# v2: cache payloads embed a SHA-256 digest of the pickled artifact.
CHECKPOINT_SCHEMA_TAG = "ldx-checkpoint-v2"

DEFAULT_CHECKPOINT_DIR = os.path.join(".repro-cache", "checkpoints")


def world_key(label: str, seed: int, rung: str, source: str = "") -> str:
    """Content address of one world snapshot taken at a ladder rung."""
    return artifact_key(
        source,
        {"kind": "world", "label": label, "seed": seed, "rung": rung},
        schema_tag=CHECKPOINT_SCHEMA_TAG,
    )


class CheckpointStore:
    """On-disk checkpoint persistence (no in-memory sharing)."""

    def __init__(
        self,
        checkpoint_dir: Optional[str] = DEFAULT_CHECKPOINT_DIR,
        enabled: bool = True,
    ) -> None:
        self.checkpoint_dir = checkpoint_dir
        self._cache = ArtifactCache(
            cache_dir=checkpoint_dir,
            enabled=enabled,
            schema_tag=CHECKPOINT_SCHEMA_TAG,
            payload_type=None,
            use_memory=False,
        )

    @property
    def enabled(self) -> bool:
        return self._cache.enabled

    @property
    def stats(self):
        return self._cache.stats

    def save(self, key: str, payload) -> None:
        """Persist *payload* under *key* (atomic publish)."""
        self._cache.store(key, payload)

    def load(self, key: str):
        """The payload under *key*, or None (missing/corrupt = None)."""
        return self._cache.load(key)

    def prune(
        self,
        max_entries: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        now: Optional[float] = None,
    ) -> dict:
        """GC this store; see :func:`prune_checkpoints`."""
        return prune_checkpoints(
            self.checkpoint_dir,
            max_entries=max_entries,
            max_age_seconds=max_age_seconds,
            now=now,
        )


# -- garbage collection --------------------------------------------------------
#
# Checkpoints are runtime state: unlike instrumentation artifacts they
# go stale (world snapshots of a long-fixed stall) and a long-lived
# daemon accumulates them without bound.  ``prune_checkpoints`` enforces a TTL and an entry
# cap; schema-tag subdirectories from older layouts are swept whole
# (their entries can never be loaded again), and orphaned ``.tmp``
# files from crashed writers are always removed.


def _is_stale_schema_dir(name: str) -> bool:
    return name.startswith("ldx-checkpoint-") and name != CHECKPOINT_SCHEMA_TAG


def prune_checkpoints(
    checkpoint_dir: Optional[str] = DEFAULT_CHECKPOINT_DIR,
    max_entries: Optional[int] = None,
    max_age_seconds: Optional[float] = None,
    now: Optional[float] = None,
) -> dict:
    """Delete stale checkpoint entries; returns a summary dict.

    *max_age_seconds* removes entries whose mtime is older than the
    TTL; *max_entries* then keeps only the newest N.  Either may be
    None (no limit on that axis).  *now* is injectable for tests.
    Returns ``{"scanned", "removed", "kept", "reclaimed_bytes"}``.
    """
    summary = {"scanned": 0, "removed": 0, "kept": 0, "reclaimed_bytes": 0}
    if checkpoint_dir is None or not os.path.isdir(checkpoint_dir):
        return summary
    if now is None:
        now = time.time()

    def _remove(path: str, size: int) -> None:
        try:
            os.unlink(path)
        except OSError:
            return
        summary["removed"] += 1
        summary["reclaimed_bytes"] += size

    entries = []  # (mtime, path, size) for current-schema entries
    for schema_name in sorted(os.listdir(checkpoint_dir)):
        schema_dir = os.path.join(checkpoint_dir, schema_name)
        if not os.path.isdir(schema_dir):
            continue
        stale = _is_stale_schema_dir(schema_name)
        if not stale and schema_name != CHECKPOINT_SCHEMA_TAG:
            continue  # not ours: never touch foreign directories
        for file_name in sorted(os.listdir(schema_dir)):
            path = os.path.join(schema_dir, file_name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            summary["scanned"] += 1
            if stale or file_name.endswith(".tmp"):
                _remove(path, stat.st_size)
            else:
                entries.append((stat.st_mtime, path, stat.st_size))
        if stale:
            try:
                os.rmdir(schema_dir)
            except OSError:
                pass

    entries.sort()  # oldest first
    kept = []
    for mtime, path, size in entries:
        if max_age_seconds is not None and now - mtime > max_age_seconds:
            _remove(path, size)
        else:
            kept.append((mtime, path, size))
    if max_entries is not None and len(kept) > max_entries:
        excess, kept = kept[: len(kept) - max_entries], kept[len(kept) - max_entries:]
        for mtime, path, size in excess:
            _remove(path, size)
    summary["kept"] = len(kept)
    return summary
