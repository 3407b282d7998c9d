"""The identity matrix: every byte-identity contract of ``repro eval``
and ``repro chaos``, declared as one table and anchored to the committed
digests in ``benchmarks/e2e/references.json``.

LDX's verdicts must not depend on how the tool runs.  A report is the
same bytes under either interpreter backend (``switch``, ``threaded``),
with pruned or full instrumentation plans (``--no-relevance``), in one
process or a pool (``--jobs``), from a cold results store, a warm one or
re-rendered by ``repro report``, and whatever state the artifact
cache's generated region code is in.  Each :class:`Cell` below is one
such configuration: a short sequence of ``repro`` command lines and
named setup steps, run as subprocesses in a fresh temporary directory.
Every command's stdout must hash to the cell's reference digest.

Run the whole matrix (it takes no options; every declared cell runs,
nothing is cherry-picked)::

    python tests/identity_matrix.py

It prints one row per cell and exits 1 if any cell misses.  Files a
cell names in ``keep`` (Table 5's JSON) are copied into the directory
it was started from.  The tier-1 suite runs the cells marked ``tier1``
(``tests/integration/test_report_digests.py``).  Stdlib only.
"""

import hashlib
import json
import os
import shutil
import sqlite3
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(ROOT, "benchmarks", "e2e", "references.json")
TIMEOUT_S = 900

# Code-cache row checks on a run's ``--cache-dir``.  STORED: the run
# wrote region code (more ``ldx-code-*`` rows than the cell's
# expectation, none at first), and the count becomes the expectation.
# SAME: the run left the count equal to that expectation (a warm run
# stores nothing; a pool stores as much as one process).
STORED = "stored"
SAME = "same"


@dataclass(frozen=True)
class Run:
    """One ``repro`` command line; exit 0 and stdout equal to the
    cell's reference, plus the optional checks."""

    argv: Tuple[str, ...]
    stderr: Optional[str] = None  # text its stderr must contain
    codes: Optional[str] = None  # STORED or SAME

    def __str__(self) -> str:
        return "repro " + " ".join(self.argv)


@dataclass(frozen=True)
class Setup:
    """A named change to the cell's artifact cache (``cc``) between two
    runs."""

    name: str
    action: Callable[[str], None]  # called with the cache directory

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Cell:
    name: str
    reference: str  # key in references.json
    steps: Tuple[object, ...]
    tier1: bool = False
    keep: Tuple[str, ...] = ()


CODE = "namespace GLOB 'ldx-code-*'"  # the region code rows


def _code_rows(cache_dir: str) -> int:
    path = os.path.join(cache_dir, "blobs.sqlite")
    try:
        db = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        try:
            return db.execute(f"SELECT COUNT(*) FROM blobs WHERE {CODE}").fetchone()[0]
        finally:
            db.close()
    except sqlite3.OperationalError:  # no file, or no blobs table
        return 0


def _cut_code_payloads(cache_dir: str) -> None:
    db = sqlite3.connect(os.path.join(cache_dir, "blobs.sqlite"))
    try:
        with db:
            db.execute(
                f"UPDATE blobs SET payload = substr(payload, 1, 64) WHERE {CODE}"
            )
    finally:
        db.close()


def _tear_blobs(cache_dir: str) -> None:
    path = os.path.join(cache_dir, "blobs.sqlite")
    os.truncate(path, os.path.getsize(path) // 2)


CUT = Setup("cut every ldx-code-* payload to 64 bytes", _cut_code_payloads)
TEAR = Setup("tear blobs.sqlite in half", _tear_blobs)


# -- the matrix ----------------------------------------------------------------

EVAL = ("eval", "--check-static", "--table4-runs", "5")
CHAOS = ("chaos", "--seeds", "5")
PLANS = {"pruned": (), "unpruned": ("--no-relevance",)}
STORE = ("--store-path", "results.sqlite")
DEFAULT = ("threaded", "pruned", "1")  # what the CLI runs with no flags
CACHED = CHAOS + ("--no-store", "--cache-dir", "cc")  # the cell's own code cache


def _store_cell(report, command, reference, backend, plan, jobs, tier1):
    """Fill a fresh results store, re-run warm, re-render from it."""
    config = ("--interp-backend", backend, *PLANS[plan], "--jobs", jobs)
    render = ("report", "--chaos") if report == "chaos" else ("report",)
    name = f"{report}/{backend}/{plan}/jobs{jobs}"
    fill = command + config + STORE
    keep = ()
    if report == "eval" and (backend, plan, jobs) == DEFAULT:
        fill += ("--table5-json", "table5.json")
        keep = ("table5.json",)
    return Cell(
        name,
        reference,
        (
            Run(fill, stderr=", 0 reused"),
            Run(
                command + config + STORE,
                stderr=f"{report}: results store: 0 executed",
            ),
            Run(render + STORE),
        ),
        tier1=tier1,
        keep=keep,
    )


def _code_cache_cell(state, steps, tier1=False):
    """Chaos over the artifact cache's region code in one *state*; each
    state starts from a cold fill of ``cc``."""
    cold = Run(CACHED, codes=STORED)
    return Cell(
        f"chaos/code-cache/{state}", "chaos-sweep-quick", (cold, *steps), tier1
    )


def _matrix() -> List[Cell]:
    cells = []
    for report, command, reference in (
        ("eval", EVAL, "eval-cold-quick"),
        ("chaos", CHAOS, "chaos-sweep-quick"),
    ):
        for backend in ("switch", "threaded"):
            for plan in PLANS:
                for jobs in ("1", "2"):
                    # Two opposite corners cover every axis value in tier 1.
                    corner = (backend, plan, jobs)
                    tier1 = corner in (DEFAULT, ("switch", "unpruned", "2"))
                    cells.append(
                        _store_cell(report, command, reference, *corner, tier1)
                    )
    warm = Run(CACHED, codes=SAME)
    pool = Run(
        CHAOS + ("--no-store", "--jobs", "2", "--cache-dir", "cc-jobs"), codes=SAME
    )
    cells += [
        Cell(
            "chaos/code-cache/none",
            "chaos-sweep-quick",
            (Run(CHAOS + ("--no-store", "--no-cache")),),
            tier1=True,
        ),
        _code_cache_cell("cold+warm", (warm,), tier1=True),
        _code_cache_cell("cut", (CUT, warm)),
        _code_cache_cell("torn", (TEAR, warm)),
        _code_cache_cell("jobs2", (pool,)),
        # Region code is keyed by artifact identity: full and pruned
        # plans, and a switch run, share one cache dir without ever
        # loading each other's code, and a repeat stores nothing.
        Cell(
            "chaos/code-cache/shared-configs",
            "chaos-sweep-quick",
            (
                Run(CACHED + PLANS["unpruned"], codes=STORED),
                Run(CACHED, codes=STORED),
                Run(CACHED + ("--interp-backend", "switch"), codes=SAME),
                Run(CACHED + PLANS["unpruned"], codes=SAME),
            ),
        ),
        Cell(
            "eval/full",
            "eval-cold",
            (Run(("eval", "--check-static", "--no-store", "--no-cache")),),
        ),
        Cell(
            "chaos/full",
            "chaos-sweep",
            (Run(("chaos", "--seeds", "10", "--no-store")),),
        ),
    ]
    return cells


MATRIX: Tuple[Cell, ...] = tuple(_matrix())


# -- running -------------------------------------------------------------------


def references() -> Dict[str, str]:
    with open(REFERENCES) as handle:
        return json.load(handle)


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not existing else SRC + os.pathsep + existing
    return env


def run_cell(cell: Cell, keep_into: Optional[str] = None) -> Optional[str]:
    """Run *cell* in a fresh directory; None when every step holds,
    else the first miss, one line."""
    expected = references()[cell.reference]
    codes = None
    with tempfile.TemporaryDirectory(prefix="identity-") as workdir:
        for number, step in enumerate(cell.steps, 1):
            where = f"step {number} ({step})"
            if isinstance(step, Setup):
                step.action(os.path.join(workdir, "cc"))
                continue
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "repro", *step.argv],
                    cwd=workdir, env=_env(), capture_output=True, timeout=TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                return f"{where}: no exit within {TIMEOUT_S} s"
            stderr = proc.stderr.decode(errors="replace")
            if proc.returncode != 0:
                return f"{where}: exit {proc.returncode}: {stderr.strip()[-300:]}"
            digest = hashlib.sha256(proc.stdout).hexdigest()
            if digest != expected:
                return (
                    f"{where}: stdout {digest[:12]}, "
                    f"want {cell.reference} {expected[:12]}"
                )
            if step.stderr is not None and step.stderr not in stderr:
                return f"{where}: stderr lacks {step.stderr!r}"
            if step.codes is not None:
                cache_dir = step.argv[step.argv.index("--cache-dir") + 1]
                rows = _code_rows(os.path.join(workdir, cache_dir))
                if step.codes == STORED and rows <= (codes or 0):
                    return f"{where}: the code cache stored no entries"
                if step.codes == SAME and rows != codes:
                    return f"{where}: {rows} code entries, want {codes}"
                codes = rows
        if keep_into is not None:
            for name in cell.keep:
                shutil.copy(os.path.join(workdir, name), keep_into)
    return None


def main() -> int:
    if sys.argv[1:]:
        sys.exit("usage: python tests/identity_matrix.py (it takes no options)")
    width = max(len(cell.name) for cell in MATRIX)
    misses = 0
    started = time.perf_counter()
    for cell in MATRIX:
        began = time.perf_counter()
        failure = run_cell(cell, keep_into=os.getcwd())
        misses += failure is not None
        print(
            f"{'FAIL' if failure else 'pass'}  {cell.name:<{width}}  "
            f"{cell.reference:<17} {time.perf_counter() - began:6.1f} s"
            + (f"  {failure}" if failure else ""),
            flush=True,
        )
    print(
        f"{len(MATRIX) - misses}/{len(MATRIX)} cells match their committed digest"
        f" ({time.perf_counter() - started:.0f} s)"
    )
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
