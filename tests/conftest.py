"""Test-session isolation for process-global state."""

import pytest

from repro import cache


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """Run every test in its own empty directory.  The CLI's relative
    defaults (``--cache-dir .repro-cache``, ``--store-path
    .repro-cache/results.sqlite``) then land in ``tmp_path``: the suite
    never writes into the caller's working tree, and no test passes on
    a cell that an earlier run stored."""
    monkeypatch.chdir(tmp_path)


@pytest.fixture(autouse=True)
def _restore_artifact_caches():
    """CLI handlers reconfigure the process-global caches (``--cache-dir``
    defaults to ``.repro-cache``).  Put the default memory-only caches
    back afterwards, so no later test loads entries, such as generated
    region code, that an earlier test wrote to disk."""
    before = cache.get_cache()
    yield
    if cache.get_cache() is not before:
        cache.configure()
