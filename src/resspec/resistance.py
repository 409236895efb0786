"""Exact effective resistances, resistance matrices, and resistance spectra.

All values are exact rationals (fractions.Fraction). The one exact engine is
reduced_adjugate: fraction-free Bareiss elimination over Python integers of
the Laplacian minor without the last vertex. Every resistance, single pair
or all pairs, unit or weighted, and the spanning-tree count are read from
its adjugate and determinant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .graphs import Graph, GraphError, find, is_connected


class DisconnectedError(GraphError):
    """Effective resistance of a disconnected graph is infinite."""


# ---------------------------------------------------------------------------
# rational serialization ("num/den" in lowest terms, "1" when den == 1)

def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# integer linear algebra

def laplacian(g: Graph) -> list[list[int]]:
    """Combinatorial Laplacian L = D - A as a dense integer matrix."""
    n = g.order
    masks = g.adjacency_masks
    L = [[0] * n for _ in range(n)]
    for v in range(n):
        row = L[v]
        m = masks[v]
        deg = 0
        while m:
            b = m & -m
            row[b.bit_length() - 1] = -1
            deg += 1
            m ^= b
        row[v] = deg
    return L


def reduced_adjugate(L: list[list[int]]) -> tuple[list[list[int]], int]:
    """Adjugate and determinant of an integer Laplacian without its last row/column.

    For a connected network the minor is positive definite, so Bareiss forward
    elimination needs no pivoting; the adjugate is recovered column by column
    with integer back-substitution (every division below is exact because the
    adjugate is an integer matrix). The determinant is the (weighted)
    spanning-tree count, and R(u, v) = resistance_numerator(adj, u, v) / det.
    """
    n = len(L) - 1
    if n == 0:
        return [], 1
    # augmented [L0 | I], full rows so Bareiss ops stay exact on both halves
    a = [L[i][:n] + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        pivot = a[k][k]
        if pivot == 0:
            raise DisconnectedError("infinite resistance: graph is disconnected")
        ak = a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, 2 * n):
                ai[j] = (pivot * ai[j] - aik * ak[j]) // prev
            ai[k] = 0
        prev = pivot
    det = a[n - 1][n - 1]
    if det == 0:
        raise DisconnectedError("infinite resistance: graph is disconnected")
    # back-substitute U X = det * B, column by column
    adj = [[0] * n for _ in range(n)]
    for c in range(n):
        col = adj[c]  # filled transposed; adjugate of symmetric input is symmetric
        for i in range(n - 1, -1, -1):
            s = det * a[i][n + c]
            ai = a[i]
            for j in range(i + 1, n):
                s -= ai[j] * col[j]
            col[i] = s // ai[i]
    return adj, det


def resistance_numerator(adj: list[list[int]], u: int, v: int) -> int:
    """det * R(u, v) from a reduced adjugate; the deleted last vertex is ground."""
    last = len(adj)
    if u == last:
        return adj[v][v]
    if v == last:
        return adj[u][u]
    return adj[u][u] + adj[v][v] - 2 * adj[u][v]


def resistance_rows(L: list[list[int]], scale: int = 1) -> list[list[Fraction]]:
    """All-pairs resistances of the integer Laplacian L, each multiplied by scale."""
    adj, det = reduced_adjugate(L)
    n = len(L)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for u, v in combinations(range(n), 2):
        rows[u][v] = rows[v][u] = Fraction(scale * resistance_numerator(adj, u, v), det)
    return rows


def spanning_tree_count(g: Graph) -> int:
    """Matrix-tree determinant; 0 exactly when the graph is disconnected."""
    if not is_connected(g):
        return 0
    return reduced_adjugate(laplacian(g))[1]


def resistance(g: Graph, u: int, v: int) -> Fraction:
    """Effective resistance between two distinct vertices."""
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise GraphError("resistance requires two distinct vertices")
    if not is_connected(g):
        raise DisconnectedError("infinite resistance: graph is disconnected")
    adj, det = reduced_adjugate(laplacian(g))
    return Fraction(resistance_numerator(adj, u, v), det)


@dataclass(frozen=True)
class ResistanceMatrix:
    """Symmetric all-pairs resistance table with zero diagonal."""

    order: int
    rows: tuple[tuple[Fraction, ...], ...]

    def value(self, u: int, v: int) -> Fraction:
        return self.rows[u][v]

    def pairs(self):
        for u, v in combinations(range(self.order), 2):
            yield u, v, self.rows[u][v]


def resistance_matrix(g: Graph) -> ResistanceMatrix:
    """All-pairs resistances sharing one adjugate/determinant computation."""
    if not is_connected(g):
        raise DisconnectedError("infinite resistance: graph is disconnected")
    rows = resistance_rows(laplacian(g))
    return ResistanceMatrix(g.order, tuple(tuple(row) for row in rows))


@dataclass(frozen=True)
class ResistanceSpectrum:
    """Sorted multiset of pairwise resistances, run-length encoded."""

    entries: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        values = [v for v, _ in self.entries]
        if values != sorted(values) or len(set(values)) != len(values):
            raise ValueError("spectrum values must be strictly increasing")
        if any(m < 1 for _, m in self.entries):
            raise ValueError("multiplicities must be positive")

    @classmethod
    def from_values(cls, values) -> "ResistanceSpectrum":
        counts: dict[Fraction, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        return cls(tuple(sorted(counts.items())))

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    @property
    def max_value(self) -> Fraction:
        return self.entries[-1][0]

    def to_json(self) -> str:
        payload = [[format_rational(v), m] for v, m in self.entries]
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ResistanceSpectrum":
        payload = json.loads(text)
        return cls(tuple((parse_rational(v), int(m)) for v, m in payload))

    def __str__(self) -> str:
        return self.to_json()


def resistance_spectrum(g: Graph) -> ResistanceSpectrum:
    rm = resistance_matrix(g)
    return ResistanceSpectrum.from_values(r for _, _, r in rm.pairs())


def resistance_diameter(g: Graph) -> Fraction:
    if g.order == 1:
        raise GraphError("resistance diameter needs at least one vertex pair")
    return resistance_spectrum(g).max_value


def kmn_spectrum_closed_form(m: int, n: int) -> ResistanceSpectrum:
    """Resistance spectrum of K_{m,n} without touching the graph.

    Same-part pairs in the size-n part see 2/m, cross pairs see
    1/m + 1/n - 1/(mn), same-part pairs in the size-m part see 2/n.
    Equal values coalesce (for m=2, 2/m collides with the cross term at
    n=3 and with nothing else; coalescing handles every such case).
    """
    if m < 1 or n < 1:
        raise GraphError(f"both part sizes must be >= 1, got ({m},{n})")
    counts: dict[Fraction, int] = {}
    for value, mult in (
        (Fraction(2, m), n * (n - 1) // 2),
        (Fraction(1, m) + Fraction(1, n) - Fraction(1, m * n), m * n),
        (Fraction(2, n), m * (m - 1) // 2),
    ):
        if mult:
            counts[value] = counts.get(value, 0) + mult
    return ResistanceSpectrum(tuple(sorted(counts.items())))


# ---------------------------------------------------------------------------
# brute-force oracles (independent of the elimination path above)

def _union(parent: list[int], a: int, b: int) -> bool:
    ra, rb = find(parent, a), find(parent, b)
    if ra == rb:
        return False
    parent[ra] = rb
    return True


def spanning_tree_count_by_enumeration(g: Graph) -> int:
    """Count spanning trees by testing every (n-1)-edge subset."""
    n = g.order
    if n == 1:
        return 1
    edges = g.edges()
    count = 0
    for subset in combinations(edges, n - 1):
        parent = list(range(n))
        if all(_union(parent, u, v) for u, v in subset):
            count += 1
    return count


def resistance_by_forest_enumeration(g: Graph, u: int, v: int) -> Fraction:
    """Resistance as (2-component forests separating u,v) / (spanning trees)."""
    n = g.order
    if u == v:
        raise GraphError("resistance requires two distinct vertices")
    trees = spanning_tree_count_by_enumeration(g)
    if trees == 0:
        raise DisconnectedError("infinite resistance: graph is disconnected")
    if n == 2:
        separating = 1  # the empty forest
    else:
        edges = g.edges()
        separating = 0
        for subset in combinations(edges, n - 2):
            parent = list(range(n))
            if not all(_union(parent, a, b) for a, b in subset):
                continue
            # exactly two trees; count it when they separate u from v
            if find(parent, u) != find(parent, v):
                separating += 1
    return Fraction(separating, trees)
