"""Order-preserving parallel map over a process pool."""

from __future__ import annotations

import os
from multiprocessing import Pool

# below this many items a pool costs more to start than it saves
SERIAL_THRESHOLD = 64


def ordered_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items], computed by up to `threads` worker processes.

    The pool never has more workers than the machine has CPUs. Results come
    back in input order, so output does not depend on the worker count.
    `fn` and every item must be picklable.
    """
    items = list(items)
    workers = min(threads, os.cpu_count() or 1)
    if workers < 2 or len(items) < SERIAL_THRESHOLD:
        return [fn(x) for x in items]
    chunksize = max(16, len(items) // (workers * 8))
    with Pool(workers) as pool:
        return pool.map(fn, items, chunksize)
