"""Unit tests for the per-workload circuit breaker."""

from repro.serve.breaker import (
    CLOSED,
    COOLDOWN_S,
    FAILURE_THRESHOLD,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _tripped(clock):
    breaker = CircuitBreaker(clock)
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure()
    return breaker


def test_closed_allows_and_counts_failures():
    breaker = CircuitBreaker(FakeClock())
    assert breaker.allow()
    for _ in range(FAILURE_THRESHOLD - 1):
        breaker.record_failure()
    assert breaker.state == CLOSED
    assert breaker.allow()


def test_threshold_trips_open():
    breaker = CircuitBreaker(FakeClock())
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CLOSED
    breaker.record_failure()  # the third consecutive failure
    assert breaker.state == OPEN
    assert breaker.trips == 1
    assert not breaker.allow()


def test_success_resets_failure_count():
    breaker = CircuitBreaker(FakeClock())
    for _ in range(FAILURE_THRESHOLD - 1):
        breaker.record_failure()
    breaker.record_success()
    for _ in range(FAILURE_THRESHOLD - 1):
        breaker.record_failure()
    assert breaker.state == CLOSED


def test_half_open_admits_exactly_one_probe():
    clock = FakeClock()
    breaker = _tripped(clock)
    clock.now = 29.5
    assert not breaker.allow()
    clock.now = 30.0
    assert breaker.allow()  # the probe
    assert breaker.state == HALF_OPEN
    assert not breaker.allow()  # everyone else still fast-fails


def test_probe_success_closes():
    clock = FakeClock()
    breaker = _tripped(clock)
    clock.now = COOLDOWN_S + 1.0
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == CLOSED
    assert breaker.allow()


def test_probe_failure_reopens_for_another_cooldown():
    clock = FakeClock()
    breaker = _tripped(clock)
    clock.now = COOLDOWN_S + 1.0
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == OPEN
    assert breaker.trips == 2
    assert not breaker.allow()
    clock.now = 2 * COOLDOWN_S + 2.0
    assert breaker.allow()


def test_board_keys_breakers_independently():
    board = BreakerBoard(FakeClock())
    for _ in range(FAILURE_THRESHOLD):
        board.record("a", failed=True)
    assert not board.allow("a")
    assert board.allow("b")
    snapshot = board.snapshot()
    assert snapshot["a"]["state"] == OPEN
    assert list(snapshot) == ["a"]


def test_board_keeps_only_breakers_with_failures_on_record():
    clock = FakeClock()
    board = BreakerBoard(clock)
    # Unknown keys pass and leave nothing behind, success or not.
    for index in range(40):
        assert board.allow(f"k{index}")
        board.record(f"k{index}", failed=False)
    assert board.snapshot() == {}
    # A failure makes a breaker; a success that closes it with no
    # failures forgets it again.
    board.record("a", failed=True)
    assert board.snapshot() == {"a": {"state": CLOSED, "failures": 1, "trips": 0}}
    board.record("a", failed=False)
    assert board.snapshot() == {}
    # A tripped breaker stays until its probe succeeds.
    for _ in range(FAILURE_THRESHOLD):
        board.record("a", failed=True)
    clock.now = COOLDOWN_S
    assert board.allow("a")  # the probe
    assert board.snapshot()["a"]["state"] == HALF_OPEN
    board.record("a", failed=False)
    assert board.snapshot() == {}
