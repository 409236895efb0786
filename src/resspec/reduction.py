"""Weighted electrical networks and resistance-preserving reductions.

Unlike Graph, a WeightedNetwork is a multigraph: parallel edges are the
whole point of the parallel rule. Every transform here is a single
explicit step that preserves the effective resistance between all
surviving vertex pairs exactly; callers compose steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .graphs import Graph, _masks_connected, blocks_and_cut_vertices, delete_vertices
from .resistance import (
    DisconnectedError,
    format_rational,
    parse_rational,
    reduced_adjugate,
    resistance_numerator,
    resistance_rows,
)


class ReductionError(ValueError):
    """Transform precondition violated."""


class SEquivalenceError(ReductionError):
    """Replacement network does not match the sub-network it replaces."""

    def __init__(self, u: int, v: int, expected: Fraction, got: Fraction):
        super().__init__(
            f"terminal pair ({u},{v}): replacement resistance "
            f"{format_rational(got)} != required {format_rational(expected)}"
        )
        self.pair = (u, v)
        self.expected = expected
        self.got = got


@dataclass(frozen=True)
class WeightedNetwork:
    """Immutable multigraph with a positive rational resistance per edge."""

    order: int
    edges: tuple[tuple[int, int, Fraction], ...]

    def incident(self, v: int) -> list[tuple[int, int, Fraction]]:
        return [e for e in self.edges if v in e[:2]]

    def edges_between(self, u: int, v: int) -> list[tuple[int, int, Fraction]]:
        a, b = min(u, v), max(u, v)
        return [e for e in self.edges if (e[0], e[1]) == (a, b)]


def new_network(n: int, edges) -> WeightedNetwork:
    """Build a weighted network; edge list may repeat pairs (parallel edges)."""
    if n < 1:
        raise ReductionError(f"network order must be >= 1, got {n}")
    normalized = []
    for u, v, r in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ReductionError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ReductionError(f"self-loop ({u},{v}) is not allowed")
        r = Fraction(r)
        if r <= 0:
            raise ReductionError(f"edge ({u},{v}) needs positive resistance, got {r}")
        normalized.append((min(u, v), max(u, v), r))
    return WeightedNetwork(n, tuple(sorted(normalized)))


def unit_network(g: Graph) -> WeightedNetwork:
    """The graph viewed as a network of unit resistors."""
    return new_network(g.order, [(u, v, Fraction(1)) for u, v in g.edges()])


def is_network_connected(net: WeightedNetwork) -> bool:
    masks = [0] * net.order
    for u, v, _ in net.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return _masks_connected(net.order, masks)


def _integer_laplacian(net: WeightedNetwork) -> tuple[list[list[int]], int]:
    """Laplacian of the conductances 1/r scaled to integers, and the scale.

    The scale s is the LCM of the conductance denominators; resistances of
    the scaled network are those of net divided by s. Parallel edges add
    their conductances.
    """
    conductances = [1 / r for _, _, r in net.edges]
    s = lcm(*(c.denominator for c in conductances))
    n = net.order
    L = [[0] * n for _ in range(n)]
    for (u, v, _), c in zip(net.edges, conductances):
        w = c.numerator * (s // c.denominator)
        L[u][u] += w
        L[v][v] += w
        L[u][v] -= w
        L[v][u] -= w
    return L, s


def weighted_resistance(net: WeightedNetwork, u: int, v: int) -> Fraction:
    """Effective resistance between u and v in the weighted network."""
    if not (0 <= u < net.order and 0 <= v < net.order):
        raise ReductionError("vertex out of range")
    if u == v:
        raise ReductionError("resistance requires two distinct vertices")
    if not is_network_connected(net):
        raise DisconnectedError("infinite resistance: network is disconnected")
    L, s = _integer_laplacian(net)
    adj, det = reduced_adjugate(L)
    return Fraction(s * resistance_numerator(adj, u, v), det)


def weighted_resistance_matrix(net: WeightedNetwork) -> list[list[Fraction]]:
    """All-pairs resistances from one exact adjugate of the scaled Laplacian."""
    if not is_network_connected(net):
        raise DisconnectedError("infinite resistance: network is disconnected")
    L, s = _integer_laplacian(net)
    return resistance_rows(L, s)


def series_reduce(net: WeightedNetwork, v: int) -> WeightedNetwork:
    """Replace a degree-2 vertex by one edge carrying the summed resistance.

    The removed vertex's two edges must reach two distinct neighbors.
    Survivors are relabeled densely: old id minus one for ids above v.
    """
    if not 0 <= v < net.order:
        raise ReductionError("vertex out of range")
    inc = net.incident(v)
    if len(inc) != 2:
        raise ReductionError(
            f"series reduction needs exactly 2 incident edges at {v}, found {len(inc)}"
        )
    (a1, b1, r1), (a2, b2, r2) = inc
    w1 = a1 if b1 == v else b1
    w2 = a2 if b2 == v else b2
    if w1 == w2:
        raise ReductionError(
            f"both edges at {v} reach {w1}; a parallel step must run first"
        )
    def shift(w: int) -> int:
        return w - 1 if w > v else w
    edges = [e for e in net.edges if v not in e[:2]]
    shifted = [(shift(a), shift(b), r) for a, b, r in edges]
    shifted.append((shift(w1), shift(w2), r1 + r2))
    return new_network(net.order - 1, shifted)


def parallel_reduce(net: WeightedNetwork, u: int, v: int) -> WeightedNetwork:
    """Merge all parallel u-v edges into one with the reciprocal-sum value."""
    bundle = net.edges_between(u, v)
    if len(bundle) < 2:
        raise ReductionError(
            f"parallel reduction needs >= 2 edges between {u} and {v}, found {len(bundle)}"
        )
    combined = 1 / sum(1 / r for _, _, r in bundle)
    edges = [e for e in net.edges if (e[0], e[1]) != (min(u, v), max(u, v))]
    edges.append((u, v, combined))
    return new_network(net.order, edges)


def eliminate_block(g: Graph, block, w: int) -> Graph:
    """Drop a leaf block, keeping its single cut vertex w.

    Resistances between all surviving vertices are unchanged. Survivors are
    relabeled densely (delete_vertices convention).
    """
    blk = frozenset(block)
    blocks, cuts = blocks_and_cut_vertices(g)
    if blk not in blocks:
        raise ReductionError(f"{sorted(blk)} is not a block of the graph")
    inside = blk & cuts
    if inside != {w}:
        if w not in blk:
            raise ReductionError(f"vertex {w} is not in the block")
        raise ReductionError(
            f"block must contain exactly one cut vertex, has {sorted(inside)}"
        )
    reduced, _ = delete_vertices(g, blk - {w})
    return reduced


def _induced_network(net: WeightedNetwork, vertices: list[int]) -> WeightedNetwork:
    pos = {v: i for i, v in enumerate(vertices)}
    edges = [
        (pos[u], pos[v], r)
        for u, v, r in net.edges
        if u in pos and v in pos
    ]
    return WeightedNetwork(len(vertices), tuple(sorted(edges)))


def substitute(host, h_vertices, replacement: WeightedNetwork) -> WeightedNetwork:
    """Swap the sub-network induced on h_vertices for an equivalent one.

    Terminal convention: normally every vertex of h_vertices is a terminal,
    and replacement vertex i stands for sorted(h_vertices)[i]. A replacement
    SMALLER than h_vertices keeps only the attachment vertices (those with
    edges leaving h_vertices, in ascending order) as terminals; the rest of
    h_vertices are internal to the sub-network and are dropped with it.
    Replacement vertices beyond the terminals become fresh internal
    vertices of the composite.

    In every case the replacement must reproduce the induced sub-network's
    pairwise resistances on all terminal pairs; this is checked by direct
    computation, not trusted. When internal host vertices are dropped, the
    survivors are relabeled densely (ascending order, fresh internals last).
    """
    if isinstance(host, Graph):
        host = unit_network(host)
    region = sorted(set(h_vertices))
    if len(region) < 2:
        raise ReductionError("substitution needs at least two sub-network vertices")
    for t in region:
        if not 0 <= t < host.order:
            raise ReductionError(f"sub-network vertex {t} out of range")
    region_set = set(region)
    boundary = {
        v for v in region
        for u, w, _ in host.incident(v)
        if (u if w == v else w) not in region_set
    }
    if replacement.order >= len(region):
        terminals = region
    else:
        # a smaller replacement keeps only the attachment vertices; the
        # dropped ones are internal by construction, so nothing outside
        # the region can tell the difference
        terminals = sorted(boundary)
        if replacement.order < len(terminals):
            raise ReductionError(
                f"replacement has {replacement.order} vertices but the sub-network "
                f"attaches to the host at {len(terminals)}"
            )
    k = len(terminals)
    induced = _induced_network(host, region)
    if not is_network_connected(induced):
        raise ReductionError("induced sub-network is disconnected; resistances undefined")
    if not is_network_connected(replacement):
        raise ReductionError("replacement network is disconnected; resistances undefined")
    want = weighted_resistance_matrix(induced)
    have = weighted_resistance_matrix(replacement)
    region_pos = {v: i for i, v in enumerate(region)}
    for i, j in combinations(range(k), 2):
        wij = want[region_pos[terminals[i]]][region_pos[terminals[j]]]
        if wij != have[i][j]:
            raise SEquivalenceError(terminals[i], terminals[j], wij, have[i][j])
    # splice: drop sub-network edges (and dropped internals), graft the replacement
    dropped_set = region_set - set(terminals)
    kept = [
        e for e in host.edges
        if not (e[0] in region_set and e[1] in region_set)
        and e[0] not in dropped_set and e[1] not in dropped_set
    ]
    survivors = [v for v in range(host.order) if v not in dropped_set]
    relabel = {old: new for new, old in enumerate(survivors)}
    n_new = len(survivors) + (replacement.order - k)
    def map_vertex(w: int) -> int:
        return relabel[terminals[w]] if w < k else len(survivors) + (w - k)
    grafted = [(map_vertex(u), map_vertex(v), r) for u, v, r in replacement.edges]
    relabeled_kept = [(relabel[u], relabel[v], r) for u, v, r in kept]
    return new_network(n_new, relabeled_kept + grafted)


# ---------------------------------------------------------------------------
# text interchange: header "n m", then m lines "u v num/den"

def network_to_text(net: WeightedNetwork) -> str:
    lines = [f"{net.order} {len(net.edges)}"]
    lines += [f"{u} {v} {format_rational(r)}" for u, v, r in net.edges]
    return "\n".join(lines) + "\n"


def parse_network(text: str) -> WeightedNetwork:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ReductionError("empty network text")
    head = lines[0].split()
    if len(head) != 2:
        raise ReductionError(f"bad header {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ReductionError(f"bad header {lines[0]!r}, expected integers") from None
    if len(lines) - 1 != m:
        raise ReductionError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ReductionError(f"bad edge line {ln!r}, expected 'u v num/den'")
        edges.append((int(parts[0]), int(parts[1]), parse_rational(parts[2])))
    return new_network(n, edges)
