"""Order-preserving parallel map over a process pool."""

from __future__ import annotations

import os
from collections.abc import Iterator
from multiprocessing import Pool

# below this many items a pool costs more to start than it saves
SERIAL_THRESHOLD = 64


def ordered_map(fn, items, threads: int) -> Iterator:
    """Iterator over fn(x) for x in items, computed by up to `threads` worker processes.

    `items` is a sequence (anything with a length), read in place and never
    copied. The pool never has more workers than the machine has CPUs; it
    starts at the first next() and ends when the iterator is exhausted or
    closed. Results come back in input order, so output does not depend on
    the worker count. `fn` and every item must be picklable.
    """
    workers = min(threads, os.cpu_count() or 1)
    if workers < 2 or len(items) < SERIAL_THRESHOLD:
        yield from map(fn, items)
        return
    chunksize = max(16, len(items) // (workers * 8))
    with Pool(workers) as pool:
        yield from pool.imap(fn, items, chunksize)
