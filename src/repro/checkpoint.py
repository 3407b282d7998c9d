"""Checkpoint persistence for dual executions.

**World checkpoints** land in ``.repro-cache/checkpoints/blobs.sqlite``:
:meth:`World.snapshot` dicts saved by the engine supervisor at each
degradation-ladder rung (before a thread is abandoned, or when the
engine fails terminally).  These make the slave's overlay delta
inspectable after the fact and let a future run re-materialize the
execution point.  (Resuming an interrupted ``repro chaos`` or
``repro eval`` is the results store's job, not this module's: every
finished cell persists there and a re-run reuses it.)

Storage reuses :class:`repro.cache.ArtifactCache` (content-addressed
keys, one ``blobs`` table in a SQLite file, one transaction per save,
digest-verified loads, corrupt-row and corrupt-file recovery) with two
deliberate differences: its own namespace — a checkpoint is runtime
state, never mixed with instrumentation artifacts — and **no memory
layer**.  A loaded snapshot is restored into a world that then runs
on; a shared in-memory object would carry one caller's mutations into
the next load.  Every load is a fresh unpickle.

Keying *includes* runtime identity (run label, seed, rung label):
unlike instrumentation artifacts, a checkpoint is only meaningful for
the exact run that produced it.
"""

from __future__ import annotations

import math
import os
import time
from typing import Optional

from repro.cache import BLOB_FILE, ArtifactCache, artifact_key, blob_file

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
        """Persist *payload* under *key* (one transaction)."""
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
# Checkpoints are runtime state: they go stale and a long-lived daemon
# accumulates them without bound.  ``prune_checkpoints`` enforces a TTL
# and an entry cap, and drops every row of an older checkpoint
# namespace; other namespaces in the file are never touched.

# Rows of an older checkpoint namespace, past the TTL, or outside the
# newest N of those the TTL keeps.
_PRUNABLE = (
    "namespace GLOB 'ldx-checkpoint-*' AND (namespace != ? OR created_at < ?"
    " OR key NOT IN (SELECT key FROM blobs WHERE namespace = ?"
    " AND created_at >= ? ORDER BY created_at DESC, key DESC LIMIT ?))"
)


def prune_checkpoints(
    checkpoint_dir: Optional[str] = DEFAULT_CHECKPOINT_DIR,
    max_entries: Optional[int] = None,
    max_age_seconds: Optional[float] = None,
    now: Optional[float] = None,
) -> dict:
    """Delete stale checkpoint entries; returns a summary dict.

    *max_age_seconds* removes entries stored longer ago than the TTL;
    *max_entries* then keeps only the newest N.  Either may be None (no
    limit on that axis).  *now* is injectable for tests.  Returns
    ``{"scanned", "removed", "kept", "reclaimed_bytes"}``, where
    ``reclaimed_bytes`` sums the removed payloads.
    """
    rows = None
    if checkpoint_dir is not None and os.path.exists(
        os.path.join(checkpoint_dir, BLOB_FILE)
    ):
        cutoff = -math.inf
        if max_age_seconds is not None:
            cutoff = (time.time() if now is None else now) - max_age_seconds
        limit = -1 if max_entries is None else max_entries  # -1: no LIMIT
        params = (CHECKPOINT_SCHEMA_TAG, cutoff) * 2 + (limit,)
        rows = blob_file(checkpoint_dir).execute(
            "SELECT (SELECT COUNT(*) FROM blobs"
            " WHERE namespace GLOB 'ldx-checkpoint-*'),"
            f" COUNT(*), TOTAL(length(payload)) FROM blobs WHERE {_PRUNABLE}",
            params,
            (f"DELETE FROM blobs WHERE {_PRUNABLE}", params),
        )
    scanned, removed, reclaimed = rows[0] if rows else (0, 0, 0)
    return {"scanned": scanned, "removed": removed,
            "kept": scanned - removed, "reclaimed_bytes": int(reclaimed)}
