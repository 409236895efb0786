import os

import pytest

from resspec import parallel
from resspec.parallel import SERIAL_THRESHOLD, ordered_map


class RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, maps serially."""

    sizes: list[int] = []

    def __init__(self, processes):
        RecordingPool.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(x) for x in items]


@pytest.fixture
def recording_pool(monkeypatch):
    RecordingPool.sizes = []
    monkeypatch.setattr(parallel, "Pool", RecordingPool)
    return RecordingPool.sizes


@pytest.mark.parametrize("threads", [1, 2])
def test_results_in_input_order(threads):
    items = list(range(3 * SERIAL_THRESHOLD, 0, -1))
    assert ordered_map(hex, items, threads) == [hex(x) for x in items]


def test_worker_count_capped_at_cpu_count(recording_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    items = list(range(SERIAL_THRESHOLD))
    assert ordered_map(hex, items, 10**9) == [hex(x) for x in items]
    assert ordered_map(hex, items, 3) == [hex(x) for x in items]
    assert recording_pool == [4, 3]


def test_unknown_cpu_count_and_short_input_run_serially(recording_pool, monkeypatch):
    items = list(range(SERIAL_THRESHOLD))
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert ordered_map(hex, items, 8) == [hex(x) for x in items]
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert ordered_map(hex, items[1:], 8) == [hex(x) for x in items[1:]]
    assert recording_pool == []
