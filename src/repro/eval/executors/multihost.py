"""Multi-machine cell fan-out: worker nodes, work stealing, re-dispatch.

:class:`MultiHostExecutor` runs cells on a set of **worker nodes** —
subprocesses on this machine (``localhost``) or remote machines over
SSH — the way instrumentation-infra layers its cluster pool over the
same job abstraction as the local one.  The moving parts:

* **Node lifecycle** — each node is one ``repro.eval.executors.node``
  process speaking line-JSON over its stdin/stdout.  At startup the
  parent sends ``hello`` (cache/backend configuration plus the sweep's
  workload list, so the node warms its on-disk artifact cache before
  any cell arrives) and the node answers ``ready``.
* **Work stealing** — the round's cells are split into batches on a
  shared queue; every node holds at most ``window`` batches in flight
  and pulls the next one when it reports a result.  Fast nodes
  therefore drain the queue while slow ones finish what they hold: no
  static partitioning, no stragglers.
* **Heartbeats + dead-node detection** — each node's heartbeat thread
  runs from process start (before cache warm-up, so a cold cache never
  reads as death), and the parent records liveness as frames *arrive*
  on the reader thread, so an unpumped stream() cannot starve it.  A
  node whose pipe closes, whose process exits, that stays silent past
  ``heartbeat_timeout`` (not-yet-ready nodes get ``STARTUP_GRACE`` for
  slow SSH connects), or that returns a truncated result frame is
  declared dead.  Its in-flight batches go back on the queue and other
  nodes pick them up.
  Cells are pure functions of their spec, so a re-dispatched cell
  reproduces the lost result exactly and the report stays
  byte-identical — node loss costs time, never output.  Losing *every*
  node raises :class:`ExecutorError`.
* **Streaming** — results are yielded to the caller the moment a batch
  lands, in completion order; the caller persists each one (results
  store / checkpoints) and reassembles in plan order.

Remote nodes need the repo importable (``PYTHONPATH``) on the target
machine and an SSH identity that works non-interactively; see
docs/DISTRIBUTED.md.  CI exercises the whole machinery with
``--nodes localhost,localhost``.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.eval.executors.base import Cell, CellExecutor, ExecutorError
from repro.eval.executors.node import decode_blob, encode_blob

LOCAL_SPECS = frozenset({"localhost", "local"})

# Queue batches per node beyond which splitting stops paying for its
# dispatch overhead; work stealing wants several batches per node.
STEAL_FACTOR = 4
MAX_BATCH = 8

DEFAULT_HEARTBEAT_TIMEOUT = 30.0

# Nodes that have not yet answered ``ready`` get this much grace on
# top of the heartbeat timeout: an SSH node's heartbeat thread only
# starts once the connection is up and python is running, and slow
# connects must not read as death.  (Once the process is up its
# heartbeat thread runs from the very start, before cache warm-up, so
# ready nodes never need the grace.)
STARTUP_GRACE = 120.0


def _batch_size(cells: int, nodes: int) -> int:
    """Batches sized for stealing: aim for STEAL_FACTOR batches per
    node, capped so one slow batch cannot hide a node's death for long."""
    if cells <= 0:
        return 1
    size = max(1, cells // (nodes * STEAL_FACTOR) or 1)
    return min(size, MAX_BATCH)


def _node_command(spec: str) -> List[str]:
    if spec in LOCAL_SPECS:
        return [sys.executable, "-u", "-m", "repro.eval.executors"]
    remote_python = os.environ.get("REPRO_NODE_PYTHON", "python3")
    return [
        "ssh", "-o", "BatchMode=yes", spec,
        f"{remote_python} -u -m repro.eval.executors",
    ]


def _node_env() -> Dict[str, str]:
    """The parent's environment with this repro checkout prepended to
    PYTHONPATH, so localhost nodes import the same code regardless of
    how the parent was launched."""
    import repro

    env = dict(os.environ)
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        source_root if not existing
        else source_root + os.pathsep + existing
    )
    return env


class _Node:
    """One worker node: its process, reader thread and in-flight work."""

    def __init__(self, spec: str, index: int) -> None:
        self.spec = spec
        self.index = index
        self.proc: Optional[subprocess.Popen] = None
        self.ready = False
        self.alive = False
        self.last_seen = 0.0
        self.inflight: Dict[int, List[Tuple[int, Cell]]] = {}
        self.completed_batches = 0

    @property
    def label(self) -> str:
        return f"{self.spec}#{self.index}"

    def send(self, msg: dict) -> None:
        if self.proc is None or self.proc.stdin is None:
            raise ExecutorError(f"worker node {self.label} has no input pipe")
        self.proc.stdin.write(json.dumps(msg, sort_keys=True) + "\n")
        self.proc.stdin.flush()


class MultiHostExecutor(CellExecutor):
    """Fan cells out to worker nodes with work stealing and re-dispatch."""

    name = "multihost"

    def __init__(
        self,
        nodes: Sequence[str],
        cache_dir: Optional[str] = None,
        cache_enabled: Optional[bool] = None,
        batch_size: Optional[int] = None,
        window: int = 1,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    ) -> None:
        if not nodes:
            raise ExecutorError("multihost executor needs at least one node")
        if window < 1:
            raise ExecutorError(f"window must be >= 1, got {window}")
        self._specs = list(nodes)
        self._cache_dir = cache_dir
        self._cache_enabled = cache_enabled
        self._batch_size = batch_size
        self._window = window
        self._heartbeat_timeout = heartbeat_timeout
        self._nodes: List[_Node] = []
        self._events: "queue.Queue[Tuple[int, dict]]" = queue.Queue()
        self._work: Deque[List[Tuple[int, Cell]]] = deque()
        self._next_batch_id = 0
        self._round_pending = 0
        self.redispatched_cells = 0  # across the executor's lifetime

    # -- node lifecycle --------------------------------------------------------

    def _start_node(self, node: _Node, warm: Sequence[str]) -> None:
        from repro.eval.parallel import _cache_settings
        from repro.interp import get_default_backend, relevance_enabled

        cache_dir, cache_enabled = _cache_settings(
            self._cache_dir, self._cache_enabled
        )
        try:
            node.proc = subprocess.Popen(
                _node_command(node.spec),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                env=_node_env(),
                text=True,
            )
        except OSError as failure:
            raise ExecutorError(
                f"cannot start worker node {node.label}: {failure}"
            ) from None
        node.alive = True
        node.last_seen = time.monotonic()
        threading.Thread(
            target=self._reader, args=(node,),
            name=f"node-reader-{node.label}", daemon=True,
        ).start()
        try:
            node.send({
                "op": "hello",
                "cache_dir": cache_dir,
                "cache_enabled": cache_enabled,
                "backend": get_default_backend(),
                "relevance": relevance_enabled(),
                "warm": list(warm),
            })
        except (BrokenPipeError, OSError):
            pass  # the reader sees EOF and reports the node dead

    def _reader(self, node: _Node) -> None:
        """Pump one node's protocol stream into the shared event queue."""
        if node.proc is None or node.proc.stdout is None:
            raise ExecutorError(f"worker node {node.label} has no output pipe")
        for line in node.proc.stdout:
            line = line.strip()
            if not line:
                continue
            try:
                msg = json.loads(line)
            except ValueError:
                continue  # noise on the pipe (ssh banners etc.)
            # Liveness is recorded here, as frames *arrive*, not when
            # stream() consumes them: a caller that pauses between
            # yields (or an executor idling between rounds) must not
            # see queued-but-unread heartbeats as silence.  A plain
            # monotonic-float write is safe cross-thread.
            node.last_seen = time.monotonic()
            self._events.put((node.index, msg))
        self._events.put((node.index, {"op": "eof"}))

    def _ensure_nodes(self, warm: Sequence[str]) -> None:
        if self._nodes:
            return
        self._nodes = [
            _Node(spec, index) for index, spec in enumerate(self._specs)
        ]
        for node in self._nodes:
            self._start_node(node, warm)

    # -- round management ------------------------------------------------------

    def submit(self, cells: Sequence[Cell]) -> None:
        if self._round_pending:
            raise ExecutorError("previous round not drained")
        cells = list(cells)
        self._ensure_nodes(_warm_list(cells))
        size = self._batch_size or _batch_size(len(cells), len(self._specs))
        batch: List[Tuple[int, Cell]] = []
        for index, cell in enumerate(cells):
            batch.append((index, cell))
            if len(batch) >= size:
                self._work.append(batch)
                batch = []
        if batch:
            self._work.append(batch)
        self._round_pending = len(cells)

    def _feed(self, node: _Node) -> None:
        """Hand *node* work until its in-flight window is full."""
        while (
            node.alive and node.ready
            and len(node.inflight) < self._window and self._work
        ):
            batch = self._work.popleft()
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            node.inflight[batch_id] = batch
            try:
                node.send({
                    "op": "run",
                    "batch": batch_id,
                    "cells": encode_blob([cell for _index, cell in batch]),
                })
            except (BrokenPipeError, OSError):
                self._on_dead(node, "write failed")
                return

    def _on_dead(self, node: _Node, reason: str) -> None:
        """Re-queue a dead node's in-flight batches for the survivors."""
        if not node.alive:
            return
        node.alive = False
        node.ready = False
        if node.proc is not None:
            # For an SSH node this kills the local ssh client; the
            # remote worker is not signalled but self-terminates
            # quickly: its stdin hits EOF and its next protocol write
            # (heartbeat within 2s, or the in-flight batch's result)
            # dies on EPIPE.  See docs/DISTRIBUTED.md.
            try:
                node.proc.kill()
            except OSError:
                pass
        requeued = list(node.inflight.values())
        node.inflight.clear()
        for batch in reversed(requeued):
            self.redispatched_cells += len(batch)
            self._work.appendleft(batch)
        if requeued:
            print(
                f"multihost: node {node.label} died ({reason}); "
                f"re-dispatching {sum(len(b) for b in requeued)} cell(s)",
                file=sys.stderr,
            )
        live = [peer for peer in self._nodes if peer.alive]
        if not live and (self._work or self._round_pending):
            raise ExecutorError(
                f"all worker nodes died (last: {node.label}, {reason}); "
                f"{self._round_pending} cell(s) incomplete"
            )
        for peer in live:
            self._feed(peer)

    def _check_liveness(self) -> None:
        now = time.monotonic()
        for node in self._nodes:
            if not node.alive:
                continue
            if node.proc is not None and node.proc.poll() is not None:
                self._on_dead(node, f"exit code {node.proc.returncode}")
                continue
            timeout = self._heartbeat_timeout
            if not node.ready:
                timeout = max(timeout, STARTUP_GRACE)
            if now - node.last_seen > timeout:
                self._on_dead(
                    node,
                    "heartbeat timeout" if node.ready else "startup timeout",
                )

    def stream(self) -> Iterator[Tuple[int, object]]:
        for node in self._nodes:
            self._feed(node)
        while self._round_pending:
            self._check_liveness()
            try:
                node_index, msg = self._events.get(timeout=0.5)
            except queue.Empty:
                continue
            node = self._nodes[node_index]
            op = msg.get("op")
            if op == "ready":
                node.ready = True
                self._feed(node)
            elif op == "heartbeat":
                pass  # the reader thread already refreshed last_seen
            elif op == "result":
                batch = node.inflight.pop(msg["batch"], None)
                if batch is None:
                    continue  # a batch this node was already declared dead for
                results = decode_blob(msg["data"])
                if len(results) != len(batch):
                    # A short frame would otherwise drop cells silently
                    # (zip truncates) and hang the round forever with
                    # _round_pending never reaching 0.  Treat it like
                    # node death: re-dispatch the whole batch.
                    node.inflight[msg["batch"]] = batch
                    self._on_dead(
                        node,
                        f"truncated result frame: {len(results)} "
                        f"result(s) for {len(batch)} cell(s)",
                    )
                    continue
                node.completed_batches += 1
                self._feed(node)
                for (index, _cell), result in zip(batch, results):
                    self._round_pending -= 1
                    yield index, result
            elif op == "error":
                raise ExecutorError(
                    f"cell failed on node {node.label}: "
                    f"{msg.get('kind')}: {msg.get('message')}"
                )
            elif op == "eof":
                self._on_dead(node, "pipe closed")

    def close(self) -> None:
        self._round_pending = 0
        self._work.clear()
        for node in self._nodes:
            if node.proc is None:
                continue
            if node.alive:
                try:
                    node.send({"op": "shutdown"})
                except (BrokenPipeError, OSError):
                    pass
            try:
                node.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                node.proc.kill()
                try:
                    node.proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    pass
            node.alive = False
        self._nodes = []


def _warm_list(cells: Sequence[Cell]) -> List[str]:
    """The distinct workloads *cells* will execute, for cache warm-up."""
    names: List[str] = []
    seen = set()
    for kind, payload in cells:
        if kind == "mutation":
            cell_names = payload[1]
        else:
            cell_names = (payload[0],)
        for name in cell_names:
            if name not in seen:
                seen.add(name)
                names.append(name)
    return names
