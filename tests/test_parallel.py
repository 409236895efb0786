import os
from collections.abc import Iterator

import pytest

from resspec import parallel
from resspec.parallel import SERIAL_THRESHOLD, ordered_map


class RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, maps serially and lazily."""

    sizes: list[int] = []

    def __init__(self, processes):
        RecordingPool.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.fixture
def recording_pool(monkeypatch):
    RecordingPool.sizes = []
    monkeypatch.setattr(parallel, "Pool", RecordingPool)
    return RecordingPool.sizes


@pytest.mark.parametrize("threads", [1, 2])
def test_results_in_input_order(threads):
    # an iterator, in input order, over a sequence it does not copy
    items = list(range(3 * SERIAL_THRESHOLD, 0, -1))
    results = ordered_map(hex, items, threads)
    assert isinstance(results, Iterator)
    assert list(results) == [hex(x) for x in items]


def test_worker_count_capped_at_cpu_count(recording_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    items = list(range(SERIAL_THRESHOLD))
    assert list(ordered_map(hex, items, 10**9)) == [hex(x) for x in items]
    assert list(ordered_map(hex, items, 3)) == [hex(x) for x in items]
    assert recording_pool == [4, 3]


def test_unknown_cpu_count_and_short_input_run_serially(recording_pool, monkeypatch):
    items = list(range(SERIAL_THRESHOLD))
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert list(ordered_map(hex, items, 8)) == [hex(x) for x in items]
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert list(ordered_map(hex, items[1:], 8)) == [hex(x) for x in items[1:]]
    assert recording_pool == []
