"""Unit tests for the admission gate (bounds, shedding, FIFO order)."""

import sys
import threading
import time

from repro.serve.admission import AdmissionQueue, ShedReason


def _until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def _waiter(gate, name, ran, warm=True):
    """A thread that enters *gate* (it must be admitted), records *name*
    once it runs, and leaves.  Returns after the gate counts it, so
    waiters arrive in call order."""
    depth = gate.depth

    def run():
        assert gate.enter(warm) is None
        ran.append(name)
        gate.leave()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    _until(lambda: gate.depth == depth + 1)
    return thread


def _finish(gate, threads):
    """Release the slot the test thread holds; every waiter then runs."""
    gate.leave()
    assert gate.wait_idle(timeout=10)
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_fifo_below_watermark():
    gate = AdmissionQueue(capacity=8)
    assert gate.enter(warm=False) is None  # holds the only slot
    ran = []
    threads = [_waiter(gate, f"k{index}", ran, warm=False) for index in range(3)]
    assert ran == []
    _finish(gate, threads)
    assert ran == ["k0", "k1", "k2"]


def test_slots_bound_concurrent_runs():
    gate = AdmissionQueue(capacity=8, slots=2)
    assert gate.enter(warm=True) is None
    assert gate.enter(warm=True) is None  # the second slot, no wait
    ran = []
    thread = _waiter(gate, "third", ran)
    assert ran == []
    gate.leave()
    thread.join(timeout=10)
    assert ran == ["third"]
    gate.leave()
    assert gate.wait_idle(timeout=10)


def test_capacity_sheds_everything():
    gate = AdmissionQueue(capacity=2)
    assert gate.enter(warm=True) is None
    ran = []
    threads = [_waiter(gate, name, ran) for name in ("a", "b")]
    assert gate.enter(warm=True) == ShedReason.QUEUE_FULL
    assert gate.snapshot()["shed"][ShedReason.QUEUE_FULL] == 1
    _finish(gate, threads)
    assert ran == ["a", "b"]


def test_watermark_sheds_cold_keeps_warm():
    gate = AdmissionQueue(capacity=4)
    assert gate.enter(warm=True) is None
    ran = []
    threads = [_waiter(gate, f"c{index}", ran, warm=False) for index in range(3)]
    # At the watermark (3 of 4 waiting): cold shed, warm admitted.
    assert gate.enter(warm=False) == ShedReason.WATERMARK_COLD
    threads.append(_waiter(gate, "w", ran, warm=True))
    assert gate.depth == 4
    _finish(gate, threads)
    assert ran == ["c0", "c1", "c2", "w"]


def test_draining_sheds_everything_but_drains_backlog():
    gate = AdmissionQueue(capacity=8)
    assert gate.enter(warm=True) is None
    ran = []
    threads = [_waiter(gate, "a", ran)]
    gate.begin_drain()
    assert gate.enter(warm=True) == ShedReason.DRAINING
    _finish(gate, threads)
    assert ran == ["a"]  # admitted before the drain, so it still ran


def test_wait_idle_times_out_while_a_slot_is_held():
    gate = AdmissionQueue(capacity=2)
    assert gate.wait_idle(timeout=0.01)
    assert gate.enter(warm=True) is None
    assert not gate.wait_idle(timeout=0.01)
    gate.leave()
    assert gate.wait_idle(timeout=0.01)


def test_saturated_tracks_watermark():
    gate = AdmissionQueue(capacity=4)
    assert gate.enter(warm=True) is None
    ran = []
    threads = [_waiter(gate, name, ran) for name in ("a", "b")]
    assert not gate.saturated
    threads.append(_waiter(gate, "c", ran))
    assert gate.saturated
    _finish(gate, threads)
    assert not gate.saturated


def test_stress_never_exceeds_slots_and_accounts_every_offer():
    # More threads than cores and a short switch interval, so a lost
    # update in the gate's counters would show as an overrun slot, a
    # leftover waiter or an unaccounted offer.
    gate = AdmissionQueue(capacity=4, slots=2)
    lock = threading.Lock()
    state = {"running": 0, "peak": 0, "ran": 0}
    threads_n, rounds = 8, 200

    def client(index):
        for round_ in range(rounds):
            if gate.enter(warm=(index + round_) % 2 == 0) is not None:
                continue
            try:
                with lock:
                    state["running"] += 1
                    state["peak"] = max(state["peak"], state["running"])
                time.sleep(0)
                with lock:
                    state["running"] -= 1
                    state["ran"] += 1
            finally:
                gate.leave()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(index,), daemon=True)
                   for index in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert gate.wait_idle(timeout=10)
    snapshot = gate.snapshot()
    assert state["peak"] <= 2
    assert snapshot["depth"] == 0
    assert snapshot["admitted"] == state["ran"]
    assert snapshot["admitted"] + sum(snapshot["shed"].values()) == threads_n * rounds
