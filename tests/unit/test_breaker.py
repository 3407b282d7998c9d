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
        board.breaker_for("a").record_failure()
    assert board.breaker_for("a").state == OPEN
    assert board.breaker_for("b").state == CLOSED
    assert board.breaker_for("a") is board.breaker_for("a")
    snapshot = board.snapshot()
    assert snapshot["a"]["state"] == OPEN
    assert snapshot["b"]["trips"] == 0
