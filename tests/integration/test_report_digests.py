"""The committed anchor for the eval and chaos reports.

``repro eval`` and ``repro chaos`` produce every report through one
path: plan cells, run them, reassemble in plan order.  The other tests
compare that path against itself (one job against a pool, a cold store
against a warm one); this one pins its output to the reference digests
in ``benchmarks/e2e/references.json``, which come from an independent
configuration (``switch`` backend, unpruned plans, no caches).  A
change that alters a single byte of either report fails here.

The runs are real CLI subprocesses, as a user would invoke them.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(ROOT, "benchmarks", "e2e", "references.json")


def _env():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not existing else SRC + os.pathsep + existing
    return env


@pytest.mark.parametrize(
    "reference, argv",
    [
        ("eval-cold-quick",
         ["eval", "--check-static", "--table4-runs", "5"]),
        ("chaos-sweep-quick", ["chaos", "--seeds", "5"]),
    ],
    ids=["eval", "chaos"],
)
def test_report_matches_committed_digest(tmp_path, reference, argv):
    with open(REFERENCES) as handle:
        expected = json.load(handle)[reference]
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--no-store", "--no-cache"],
        cwd=str(tmp_path), env=_env(), capture_output=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    assert hashlib.sha256(proc.stdout).hexdigest() == expected
