"""Seeded input generators for the benchmark workloads.

Everything here is independent of resspec: inputs are produced as graph6
or network text by this module's own encoders, so the program under test
only ever sees text. The same seed always yields the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

# Seed used while the benchmark and any optimisation are developed.
DEV_SEED = 1
# Held-out seed: never used while tuning, kept to check a claimed gain on
# inputs it was not tuned on.
HELDOUT_SEED = 7919

# OEIS A001349: connected graphs on n unlabelled vertices, n = 1..8.
OEIS_A001349 = (1, 1, 2, 6, 21, 112, 853, 11117)

SPECTRA_ORDERS = range(6, 15)
SPECTRA_DENSITIES = (0.15, 0.35, 0.6, 0.85)
# Orders repeat in these cycles. Each cycle puts the median and the 99th
# percentile of item latency inside one dense cluster of similar items, not
# on the boundary between two, so the percentiles do not jump when a few
# items are slowed by the host. One query in seven is of order 8, where
# every query re-reads the 2.7 MB order-8 index.
QUERY_ORDERS = (6, 6, 7, 7, 7, 7, 8)
QUERY_DENSITIES = (0.2, 0.4, 0.6)
TRIAL_ORDERS = tuple(n for n, weight in zip(range(6, 15), (1, 2, 3, 4, 5, 4, 3, 2, 3))
                     for _ in range(weight))
TRIAL_KINDS = ("series", "parallel", "substitute")
TRIAL_DENSITY = 0.3


def graph6(n: int, edges) -> str:
    """graph6 text of a simple graph on vertices 0..n-1 (n <= 62)."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2))
        for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def network_text(n: int, edges) -> str:
    """Network text: header 'n m', then one 'u v num/den' line per edge."""
    lines = [f"{n} {len(edges)}"]
    for u, v, r in edges:
        r = Fraction(r)
        lines.append(f"{u} {v} {r.numerator}/{r.denominator}")
    return "\n".join(lines) + "\n"


def random_connected(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    """Random spanning tree plus each remaining pair with probability `density`."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {
        tuple(sorted((order[k], order[rng.randrange(k)]))) for k in range(1, n)
    }
    for j in range(1, n):
        for i in range(j):
            if (i, j) not in edges and rng.random() < density:
                edges.add((i, j))
    return sorted(edges)


def _resistor(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 5), rng.randint(1, 3))


def spectra_inputs(seed: int, per_cell: int) -> list[str]:
    """graph6 texts, `per_cell` graphs for each (order, density) cell."""
    rng = random.Random(f"spectra/{seed}")
    return [
        graph6(n, random_connected(rng, n, p))
        for n in SPECTRA_ORDERS
        for p in SPECTRA_DENSITIES
        for _ in range(per_cell)
    ]


def pair_sample(seed: int, orders: list[int], every: int) -> list[tuple[int, int, int]]:
    """(graph index, u, v) for every `every`-th graph, a seeded vertex pair each."""
    rng = random.Random(f"pairs/{seed}")
    return [(i, *rng.sample(range(orders[i]), 2)) for i in range(0, len(orders), every)]


def drs_queries(seed: int, count: int) -> list[tuple[str, str]]:
    """(relabelled graph6, original graph6) pairs of connected graphs, order 6-8."""
    rng = random.Random(f"drs-query/{seed}")
    out = []
    for k in range(count):
        n = QUERY_ORDERS[k % len(QUERY_ORDERS)]
        density = QUERY_DENSITIES[(k // len(QUERY_ORDERS)) % len(QUERY_DENSITIES)]
        edges = random_connected(rng, n, density)
        perm = list(range(n))
        rng.shuffle(perm)
        out.append((graph6(n, [(perm[u], perm[v]) for u, v in edges]), graph6(n, edges)))
    return out


def _weighted(rng: random.Random, n: int) -> list[list]:
    return [[u, v, _resistor(rng)] for u, v in random_connected(rng, n, TRIAL_DENSITY)]


def reduction_trials(seed: int, count: int, part: int = 0) -> list[dict]:
    """Series, parallel and substitute trials on weighted networks of 6-14 vertices.

    Each trial carries the network as text plus what the step needs:
    series the degree-2 vertex, parallel the doubled pair, substitute the
    region and an equivalent replacement network (the induced sub-network
    with one edge split into two resistors in series). `part` draws a
    different set from the same seed, so that the iterations of one run
    pool distinct networks into the latency tail.
    """
    rng = random.Random(f"reduction/{seed}/{part}")
    trials = []
    for k in range(count):
        kind = TRIAL_KINDS[k % len(TRIAL_KINDS)]
        cell = k // len(TRIAL_KINDS)
        n = TRIAL_ORDERS[cell % len(TRIAL_ORDERS)]
        if kind == "series":
            # subdivide one edge of a network on n-1 vertices by vertex v
            edges = _weighted(rng, n - 1)
            v = rng.randrange(n)
            relabel = [w if w < v else w + 1 for w in range(n - 1)]
            edges = [[relabel[a], relabel[b], r] for a, b, r in edges]
            a, b, r = edges.pop(rng.randrange(len(edges)))
            edges += [[a, v, r], [v, b, _resistor(rng)]]
            trials.append({"kind": kind, "text": network_text(n, edges), "v": v})
        elif kind == "parallel":
            edges = _weighted(rng, n)
            a, b, _ = rng.choice(edges)
            edges.append([a, b, _resistor(rng)])
            trials.append({"kind": kind, "text": network_text(n, edges), "u": a, "v": b})
        else:
            edges = _weighted(rng, n)
            region = _connected_region(rng, n, edges, rng.randint(3, 5))
            pos = {w: i for i, w in enumerate(region)}
            inner = [[pos[a], pos[b], r] for a, b, r in edges if a in pos and b in pos]
            a, b, r = inner.pop(rng.randrange(len(inner)))
            part = r * Fraction(rng.randint(1, 3), 4)
            mid = len(region)
            inner += [[a, mid, part], [mid, b, r - part]]
            trials.append({
                "kind": kind,
                "text": network_text(n, edges),
                "region": region,
                "replacement": network_text(len(region) + 1, inner),
            })
    return trials


def _connected_region(rng: random.Random, n: int, edges, size: int) -> list[int]:
    nbrs: dict[int, list[int]] = {w: [] for w in range(n)}
    for a, b, _ in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    region = [rng.randrange(n)]
    while len(region) < size:
        frontier = sorted({x for w in region for x in nbrs[w]} - set(region))
        region.append(rng.choice(frontier))
    return sorted(region)


def digest(inputs) -> str:
    """Short, stable fingerprint of generated inputs (JSON-serialisable)."""
    text = json.dumps(inputs, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
