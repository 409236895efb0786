"""Resistance identities and inequalities as executable checks.

Every check either passes or hands back a concrete witness (graph, vertex
tuple, both sides of the failed comparison). All comparisons are exact:
they run on the integer resistance numerators of a ResistanceMatrix over
its one shared denominator, and only a witness holds Fractions. On correct
code every check passes on every connected graph, so a witness is always
an actionable bug report, never noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .graphs import (
    Graph,
    GraphError,
    _components,
    _masks_reach,
    blocks_and_cut_vertices,
    is_connected,
    to_graph6,
)
from .enumeration import ENUMERATION_GUARD, enumerate_connected
from .parallel import ordered_map
from .resistance import (
    ResistanceMatrix,
    format_rational,
    laplacian,
    laplacian_resistance_matrix,
    resistance_matrix,
)


@dataclass(frozen=True)
class Witness:
    graph: Graph
    vertices: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction

    def to_json_dict(self) -> dict:
        return {
            "graph6": to_graph6(self.graph),
            "vertices": list(self.vertices),
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
        }


@dataclass(frozen=True)
class CheckReport:
    lemma_id: str
    passed: bool
    witness: Witness | None = None
    note: str = ""

    def __post_init__(self):
        if self.passed == (self.witness is not None):
            raise ValueError("witness must be present exactly when the check fails")


def _fail(lemma_id: str, g: Graph, vertices, lhs, rhs) -> CheckReport:
    return CheckReport(lemma_id, False, Witness(g, tuple(vertices), lhs, rhs))


def _first(reports) -> CheckReport | None:
    return next((report for report in reports if report), None)


# Every witness takes (g, rm, bridges, cuts) and returns the first violation
# it finds, or None; bridges and cuts come from _context and are None for
# the witnesses that never read them. It compares the integer numerators
# N = rm.nums over the shared denominator rm.det > 0 (each side scaled by
# det) and builds Fractions only for the witness it returns.

def _triangle(g: Graph, rm: ResistanceMatrix, bridges, cuts) -> CheckReport | None:
    N = rm.nums
    for u, v, w in permutations(range(g.order), 3):
        lhs = N[u][v] + N[v][w]
        if lhs < N[u][w]:
            return _fail("triangle", g, (u, v, w),
                         Fraction(lhs, rm.det), Fraction(N[u][w], rm.det))
    return None


def _foster(g: Graph, rm: ResistanceMatrix, bridges, cuts) -> CheckReport | None:
    total = sum(rm.nums[u][v] for u, v in g.edges())
    if total != (g.order - 1) * rm.det:
        return _fail("foster", g, (), Fraction(total, rm.det), Fraction(g.order - 1))
    return None


def _local_sum_at(g: Graph, rm: ResistanceMatrix, u: int, v: int) -> CheckReport | None:
    N = rm.nums
    lhs = g.degree(u) * N[u][v]
    for z in g.neighbor_lists[u]:
        lhs += N[z][u] - N[z][v]
    if lhs != 2 * rm.det:
        return _fail("local_sum", g, (u, v), Fraction(lhs, rm.det), Fraction(2))
    return None


def _local_sum(g: Graph, rm: ResistanceMatrix, bridges, cuts) -> CheckReport | None:
    return _first(_local_sum_at(g, rm, u, v) for u, v in permutations(range(g.order), 2))


def _degree_bound(g: Graph, rm: ResistanceMatrix, bridges, cuts) -> CheckReport | None:
    masks = g.adjacency_masks
    for u, v in combinations(range(g.order), 2):
        # R = N/det against 1/a + 1/b = (a+b)/(ab), where a, b are the degrees plus one
        a, b = g.degree(u) + 1, g.degree(v) + 1
        lhs, rhs = rm.nums[u][v] * a * b, rm.det * (a + b)
        # equality holds iff uv is an edge and u, v have the same other neighbors
        twins = g.has_edge(u, v) and (
            masks[u] & ~(1 << v) == masks[v] & ~(1 << u)
        )
        if lhs < rhs or (lhs == rhs) != twins:
            return _fail("degree_bound", g, (u, v),
                         rm.value(u, v), Fraction(a + b, a * b))
    return None


def _without_edge(L: list[list[int]], u: int, v: int) -> list[list[int]]:
    """The Laplacian of G - uv from that of G: rows u and v copied, four entries edited."""
    L = L[:]
    ru = L[u] = L[u][:]
    rv = L[v] = L[v][:]
    ru[u] -= 1
    rv[v] -= 1
    ru[v] = rv[u] = 0
    return L


def _rayleigh_at(g: Graph, rm: ResistanceMatrix, L, e: tuple[int, int]) -> CheckReport | None:
    # an independent adjugate of G - e, never a rank-one update of rm
    rm2 = laplacian_resistance_matrix(_without_edge(L, *e))
    for x, y in combinations(range(g.order), 2):
        if rm2.nums[x][y] * rm.det < rm.nums[x][y] * rm2.det:
            return _fail("rayleigh", g, (x, y), rm2.value(x, y), rm.value(x, y))
    return None


def _rayleigh(g: Graph, rm: ResistanceMatrix, bridges, cuts) -> CheckReport | None:
    L = laplacian(g)
    return _first(_rayleigh_at(g, rm, L, e) for e in g.edges() if e not in bridges)


def _cycle_bound(g: Graph, rm: ResistanceMatrix, bridges, cuts) -> CheckReport | None:
    for u, v in g.edges():
        if (u, v) not in bridges and rm.nums[u][v] >= rm.det:
            return _fail("cycle_bound", g, (u, v), rm.value(u, v), Fraction(1))
    return None


def _cut_additivity(g: Graph, rm: ResistanceMatrix, bridges, cuts) -> CheckReport | None:
    for w in sorted(cuts):
        comps = _components(g.adjacency_masks, ((1 << g.order) - 1) ^ (1 << w))  # of G - w
        for u, v in combinations(range(g.order), 2):
            pair = (1 << u) | (1 << v)
            if (pair >> w) & 1 or any(c & pair == pair for c in comps):
                continue
            rhs = rm.nums[u][w] + rm.nums[w][v]
            if rm.nums[u][v] != rhs:
                return _fail("cut_additivity", g, (u, w, v),
                             rm.value(u, v), Fraction(rhs, rm.det))
    return None


_WITNESSES = {
    "triangle": _triangle,
    "foster": _foster,
    "local_sum": _local_sum,
    "degree_bound": _degree_bound,
    "rayleigh": _rayleigh,
    "cycle_bound": _cycle_bound,
    "cut_additivity": _cut_additivity,
}
LEMMA_IDS = tuple(_WITNESSES)


def _context(g: Graph) -> tuple[ResistanceMatrix, frozenset, frozenset[int]]:
    """Resistance matrix, bridges (two-vertex blocks, as sorted pairs) and cut vertices."""
    blocks, cuts = blocks_and_cut_vertices(g)  # refuses a disconnected graph
    bridges = frozenset(tuple(sorted(b)) for b in blocks if len(b) == 2)
    return resistance_matrix(g), bridges, cuts


def _check(lemma_id: str, g: Graph, context=None) -> CheckReport:
    """One lemma on g. Witnesses that read bridges or cut vertices are given
    _context(g); the others get the matrix alone, whose engine refuses a
    disconnected g (DisconnectedError)."""
    rm, bridges, cuts = context or (resistance_matrix(g), None, None)
    return _WITNESSES[lemma_id](g, rm, bridges, cuts) or CheckReport(lemma_id, True)


def check_triangle(g: Graph) -> CheckReport:
    """R(u,v) + R(v,w) >= R(u,w) for every ordered vertex triple."""
    return _check("triangle", g)


def check_foster(g: Graph) -> CheckReport:
    """Resistances summed over the edges equal n - 1 exactly."""
    return _check("foster", g)


def check_local_sum(g: Graph, u: int, v: int) -> CheckReport:
    """d(u)*R(u,v) + sum over neighbors z of u of (R(z,u) - R(z,v)) = 2."""
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise GraphError("local sum check needs two distinct vertices")
    return _local_sum_at(g, resistance_matrix(g), u, v) or CheckReport("local_sum", True)


def check_lower_bound(g: Graph) -> CheckReport:
    """R(u,v) >= 1/(d(u)+1) + 1/(d(v)+1), with equality exactly for
    adjacent vertices sharing all other neighbors (checked both ways)."""
    return _check("degree_bound", g)


def check_rayleigh(g: Graph, e: tuple[int, int]) -> CheckReport:
    """Deleting an edge never lowers any resistance.

    A bridge makes the comparison vacuous (resistances become infinite);
    that case passes with an explanatory note instead of a witness.
    """
    if not is_connected(g):
        raise GraphError("check requires a connected graph")
    u, v = e
    if not g.has_edge(u, v):
        raise GraphError(f"({u},{v}) is not an edge")
    full = (1 << g.order) - 1
    masks = list(g.adjacency_masks)
    masks[u] ^= 1 << v
    masks[v] ^= 1 << u
    if _masks_reach(masks, full) != full:  # a bridge: no matrix needed
        return CheckReport(
            "rayleigh", True,
            note=f"edge ({u},{v}) is a bridge; deletion disconnects, comparison vacuous",
        )
    return _rayleigh_at(g, resistance_matrix(g), laplacian(g), e) or CheckReport("rayleigh", True)


def check_cycle_bound(g: Graph) -> CheckReport:
    """Every edge lying on a cycle has resistance strictly below 1."""
    return _check("cycle_bound", g, _context(g))


def check_cut_additivity(g: Graph) -> CheckReport:
    """R(u,v) = R(u,w) + R(w,v) whenever the cut vertex w separates u from v."""
    return _check("cut_additivity", g, _context(g))


# ---------------------------------------------------------------------------
# exhaustive sweep

def _sweep_graph(g: Graph) -> list[dict]:
    """Lemma-tagged witnesses of every lemma violation on one graph."""
    context = _context(g)
    reports = (witness(g, *context) for witness in _WITNESSES.values())
    return [
        {"lemma": report.lemma_id, **report.witness.to_json_dict()}
        for report in reports
        if report
    ]


def run_all_checks(n_max: int, *, threads: int = 1) -> dict:
    """Run every check over every connected graph with at most n_max vertices.

    Returns a JSON-ready summary with per-lemma pass counts; `failures`
    stays empty unless the resistance engine itself is broken.
    """
    if not 1 <= n_max <= ENUMERATION_GUARD:
        raise GraphError(f"n_max must be in 1..{ENUMERATION_GUARD}, got {n_max}")
    graphs_checked = 0
    failures: list[dict] = []
    fail_counts = {lemma: 0 for lemma in LEMMA_IDS}
    per_order: dict[str, int] = {}
    for n in range(1, n_max + 1):
        graphs = list(enumerate_connected(n, threads=threads))
        per_order[str(n)] = len(graphs)
        graphs_checked += len(graphs)
        for witnesses in ordered_map(_sweep_graph, graphs, threads):
            failures.extend(witnesses)
            for w in witnesses:  # at most one witness per lemma and graph
                fail_counts[w["lemma"]] += 1
    return {
        "max_order": n_max,
        "graphs_checked": graphs_checked,
        "classes_per_order": per_order,
        "checks": {
            lemma: {"passed": graphs_checked - fail_counts[lemma],
                    "failed": fail_counts[lemma]}
            for lemma in LEMMA_IDS
        },
        "failures_total": len(failures),
        "failures": failures,
    }


def summary_to_json(summary: dict) -> str:
    return json.dumps(summary, separators=(",", ":"), sort_keys=True)
