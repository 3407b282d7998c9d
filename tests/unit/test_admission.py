"""Unit tests for the admission queue (bounds, shedding, FIFO order)."""

from repro.serve.admission import Admitted, AdmissionQueue, ShedReason


def _entry(key="k", warm=False):
    return Admitted(request=object(), module_key=key, warm=warm, enqueued_at=0.0)


def test_fifo_below_watermark():
    queue = AdmissionQueue(capacity=8)
    for index in range(3):
        assert queue.offer(_entry(f"k{index}")) is None
    assert queue.take().module_key == "k0"
    assert queue.take().module_key == "k1"
    assert queue.take().module_key == "k2"


def test_capacity_sheds_everything():
    queue = AdmissionQueue(capacity=2)
    assert queue.offer(_entry(warm=True)) is None
    assert queue.offer(_entry(warm=True)) is None
    assert queue.offer(_entry(warm=True)) == ShedReason.QUEUE_FULL
    assert queue.snapshot()["shed"][ShedReason.QUEUE_FULL] == 1


def test_watermark_sheds_cold_keeps_warm():
    queue = AdmissionQueue(capacity=4)
    for _ in range(3):
        assert queue.offer(_entry()) is None
    # At the watermark (3 of 4): cold shed, warm admitted.
    assert queue.offer(_entry(warm=False)) == ShedReason.WATERMARK_COLD
    assert queue.offer(_entry(warm=True)) is None
    assert queue.depth == 4


def test_draining_sheds_everything_but_drains_backlog():
    queue = AdmissionQueue(capacity=8)
    assert queue.offer(_entry("a")) is None
    queue.begin_drain()
    assert queue.offer(_entry("b", warm=True)) == ShedReason.DRAINING
    assert queue.take().module_key == "a"
    assert queue.take(timeout=0.01) is None


def test_take_times_out_empty():
    queue = AdmissionQueue(capacity=2)
    assert queue.take(timeout=0.01) is None


def test_saturated_tracks_watermark():
    queue = AdmissionQueue(capacity=4)
    for _ in range(2):
        queue.offer(_entry(warm=True))
    assert not queue.saturated
    queue.offer(_entry(warm=True))
    assert queue.saturated
