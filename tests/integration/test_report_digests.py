"""The committed anchor for the eval and chaos reports, in tier 1.

Runs the ``tier1`` cells of the identity matrix (``tests/identity_matrix.py``,
which declares every byte-identity contract): each is a short sequence
of real ``repro`` subprocesses whose stdout must hash to a reference
digest in ``benchmarks/e2e/references.json``.  Those digests come from
an independent configuration (``switch`` backend, unpruned plans, no
caches), so a change that alters a single byte of either report fails
here.  The tier-1 cells are two opposite corners of {switch, threaded}
× {pruned, unpruned} × {one job, a pool} for each report, each filled
cold, re-run warm and re-rendered by ``repro report``, plus the chaos
sweep with no code cache and over a cold then warm one.
``python tests/identity_matrix.py`` runs every cell.
"""

import pytest

from tests.identity_matrix import MATRIX, run_cell


@pytest.mark.parametrize(
    "cell", [cell for cell in MATRIX if cell.tier1], ids=lambda cell: cell.name
)
def test_report_matches_committed_digest(cell):
    failure = run_cell(cell)
    assert failure is None, failure
