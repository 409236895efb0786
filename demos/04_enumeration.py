#!/usr/bin/env python3
"""Connected graphs up to isomorphism, by canonical augmentation.

Each class on k vertices is grown from its class on k-1 vertices; a
designated-orbit rule on the added vertex keeps exactly one copy. Output
is deterministic: canonical representatives in canonical-code order.
"""

import tempfile
import time

from resspec import are_isomorphic, canonical_form, cycle_graph, complete_bipartite, to_graph6
from resspec.enumeration import connected_graphs, enumerate_connected, save_connected_cache

print("connected graph classes by vertex count:")
t0 = time.time()
for n in range(1, 8):
    count = sum(1 for _ in enumerate_connected(n))
    print(f"  n={n}: {count:5d}   ({time.time() - t0:.2f}s cumulative)")

print("\nall 6 classes on 4 vertices, as graph6:")
for g in enumerate_connected(4):
    degs = ",".join(str(g.degree(v)) for v in range(4))
    print(f"  {to_graph6(g)}   degrees {degs}")

# Canonical forms answer isomorphism questions by equality.
c4 = cycle_graph(4)
k22 = complete_bipartite(2, 2)
print("\nC4 vs K_{2,2}:", "isomorphic" if are_isomorphic(c4, k22) else "different")
print("their canonical codes match:", canonical_form(c4) == canonical_form(k22))

# Levels persist as graph6 cache files with a checksum trailer; the writer
# takes the canonical bits of each class.
with tempfile.TemporaryDirectory() as cache:
    path = save_connected_cache(cache, 5, [g.bits for g in enumerate_connected(5)])
    lines = open(path).read().splitlines()
    print(f"\ncache file {path.split('/')[-1]}: {len(lines) - 1} graphs + trailer")
    print("  last line:", lines[-1][:50] + "...")

with tempfile.TemporaryDirectory() as cache:
    first = list(connected_graphs(6, cache_dir=cache))
    reloaded = list(connected_graphs(6, cache_dir=cache))  # second call reads the file
print("\ncache round-trip preserves all", len(first), "classes:", reloaded == first)
