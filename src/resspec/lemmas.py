"""Resistance identities and inequalities as executable checks.

Every check either passes or hands back a concrete witness (graph, vertex
tuple, both sides of the failed comparison). All comparisons are exact;
on correct code every check passes on every connected graph, so a witness
is always an actionable bug report, never noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .graphs import (
    Graph,
    GraphError,
    blocks_and_cut_vertices,
    delete_edge,
    is_connected,
    to_graph6,
)
from .enumeration import enumerate_connected
from .parallel import ordered_map
from .resistance import ResistanceMatrix, format_rational, resistance_matrix

LEMMA_IDS = (
    "triangle",
    "foster",
    "local_sum",
    "degree_bound",
    "rayleigh",
    "cycle_bound",
    "cut_additivity",
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


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise GraphError("check requires a connected graph")


def _triangle_witness(g: Graph, rm: ResistanceMatrix) -> CheckReport | None:
    for u, v, w in permutations(range(g.order), 3):
        lhs = rm.value(u, v) + rm.value(v, w)
        rhs = rm.value(u, w)
        if lhs < rhs:
            return _fail("triangle", g, (u, v, w), lhs, rhs)
    return None


def check_triangle(g: Graph) -> CheckReport:
    """R(u,v) + R(v,w) >= R(u,w) for every ordered vertex triple."""
    _require_connected(g)
    return _triangle_witness(g, resistance_matrix(g)) or CheckReport("triangle", True)


def _foster_witness(g: Graph, rm: ResistanceMatrix) -> CheckReport | None:
    total = sum((rm.value(u, v) for u, v in g.edges()), Fraction(0))
    want = Fraction(g.order - 1)
    if total != want:
        return _fail("foster", g, (), total, want)
    return None


def check_foster(g: Graph) -> CheckReport:
    """Resistances summed over the edges equal n - 1 exactly."""
    _require_connected(g)
    return _foster_witness(g, resistance_matrix(g)) or CheckReport("foster", True)


def _local_sum_sides(g: Graph, rm: ResistanceMatrix, u: int, v: int) -> tuple[Fraction, Fraction]:
    lhs = g.degree(u) * rm.value(u, v)
    for z in g.neighbor_lists[u]:
        lhs += rm.value(z, u) - rm.value(z, v)
    return lhs, Fraction(2)


def check_local_sum(g: Graph, u: int, v: int) -> CheckReport:
    """d(u)*R(u,v) + sum over neighbors z of u of (R(z,u) - R(z,v)) = 2."""
    _require_connected(g)
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise GraphError("local sum check needs two distinct vertices")
    lhs, rhs = _local_sum_sides(g, resistance_matrix(g), u, v)
    if lhs != rhs:
        return _fail("local_sum", g, (u, v), lhs, rhs)
    return CheckReport("local_sum", True)


def _local_sum_witness(g: Graph, rm: ResistanceMatrix) -> CheckReport | None:
    for u, v in permutations(range(g.order), 2):
        lhs, rhs = _local_sum_sides(g, rm, u, v)
        if lhs != rhs:
            return _fail("local_sum", g, (u, v), lhs, rhs)
    return None


def _degree_bound_witness(g: Graph, rm: ResistanceMatrix) -> CheckReport | None:
    masks = g.adjacency_masks
    for u, v in combinations(range(g.order), 2):
        r = rm.value(u, v)
        bound = Fraction(1, g.degree(u) + 1) + Fraction(1, g.degree(v) + 1)
        if r < bound:
            return _fail("degree_bound", g, (u, v), r, bound)
        # equality holds iff uv is an edge and u, v have the same other neighbors
        twins = g.has_edge(u, v) and (
            masks[u] & ~(1 << v) == masks[v] & ~(1 << u)
        )
        if (r == bound) != twins:
            return _fail("degree_bound", g, (u, v), r, bound)
    return None


def check_lower_bound(g: Graph) -> CheckReport:
    """R(u,v) >= 1/(d(u)+1) + 1/(d(v)+1), with equality exactly for
    adjacent vertices sharing all other neighbors (checked both ways)."""
    _require_connected(g)
    return _degree_bound_witness(g, resistance_matrix(g)) or CheckReport("degree_bound", True)


def check_rayleigh(g: Graph, e: tuple[int, int]) -> CheckReport:
    """Deleting an edge never lowers any resistance.

    A bridge makes the comparison vacuous (resistances become infinite);
    that case passes with an explanatory note instead of a witness.
    """
    _require_connected(g)
    u, v = e
    if not g.has_edge(u, v):
        raise GraphError(f"({u},{v}) is not an edge")
    smaller = delete_edge(g, u, v)
    if not is_connected(smaller):
        return CheckReport(
            "rayleigh", True,
            note=f"edge ({u},{v}) is a bridge; deletion disconnects, comparison vacuous",
        )
    report = _rayleigh_witness(g, resistance_matrix(g), smaller)
    return report or CheckReport("rayleigh", True)


def _rayleigh_witness(g: Graph, rm: ResistanceMatrix, smaller: Graph) -> CheckReport | None:
    rm2 = resistance_matrix(smaller)
    for x, y in combinations(range(g.order), 2):
        if rm2.value(x, y) < rm.value(x, y):
            return _fail("rayleigh", g, (x, y), rm2.value(x, y), rm.value(x, y))
    return None


def _cycle_bound_witness(
    g: Graph, rm: ResistanceMatrix, block_info=None
) -> CheckReport | None:
    blocks, _ = block_info if block_info else blocks_and_cut_vertices(g)
    bridge_set = {tuple(sorted(b)) for b in blocks if len(b) == 2}
    one = Fraction(1)
    for u, v in g.edges():
        if (u, v) in bridge_set:
            continue
        if rm.value(u, v) >= one:
            return _fail("cycle_bound", g, (u, v), rm.value(u, v), one)
    return None


def check_cycle_bound(g: Graph) -> CheckReport:
    """Every edge lying on a cycle has resistance strictly below 1."""
    _require_connected(g)
    return _cycle_bound_witness(g, resistance_matrix(g)) or CheckReport("cycle_bound", True)


def _components_without(g: Graph, w: int) -> list[int]:
    """Component id per vertex after removing w (w itself gets -1)."""
    masks = g.adjacency_masks
    comp = [-1] * g.order
    cid = 0
    for s in range(g.order):
        if s == w or comp[s] >= 0:
            continue
        comp[s] = cid
        frontier = [s]
        while frontier:
            x = frontier.pop()
            m = masks[x]
            while m:
                b = m & -m
                y = b.bit_length() - 1
                m ^= b
                if y != w and comp[y] < 0:
                    comp[y] = cid
                    frontier.append(y)
        cid += 1
    return comp


def _cut_additivity_witness(
    g: Graph, rm: ResistanceMatrix, block_info=None
) -> CheckReport | None:
    _, cuts = block_info if block_info else blocks_and_cut_vertices(g)
    for w in sorted(cuts):
        comp = _components_without(g, w)
        for u, v in combinations(range(g.order), 2):
            if u == w or v == w or comp[u] == comp[v]:
                continue
            lhs = rm.value(u, v)
            rhs = rm.value(u, w) + rm.value(w, v)
            if lhs != rhs:
                return _fail("cut_additivity", g, (u, w, v), lhs, rhs)
    return None


def check_cut_additivity(g: Graph) -> CheckReport:
    """R(u,v) = R(u,w) + R(w,v) whenever the cut vertex w separates u from v."""
    _require_connected(g)
    return _cut_additivity_witness(g, resistance_matrix(g)) or CheckReport("cut_additivity", True)


# ---------------------------------------------------------------------------
# exhaustive sweep

def _check_graph_all(g: Graph) -> list[CheckReport]:
    """All lemma violations on one connected graph (expected: none)."""
    rm = resistance_matrix(g)
    block_info = blocks_and_cut_vertices(g)
    failures = []
    for fn in (_triangle_witness, _foster_witness, _local_sum_witness, _degree_bound_witness):
        report = fn(g, rm)
        if report:
            failures.append(report)
    for fn in (_cycle_bound_witness, _cut_additivity_witness):
        report = fn(g, rm, block_info)
        if report:
            failures.append(report)
    bridge_set = {tuple(sorted(b)) for b in block_info[0] if len(b) == 2}
    for u, v in g.edges():
        if (u, v) in bridge_set:
            continue
        report = _rayleigh_witness(g, rm, delete_edge(g, u, v))
        if report:
            failures.append(report)
    return failures


def _sweep_graph(g: Graph) -> list[dict]:
    """Lemma-tagged witnesses of every lemma violation on one graph."""
    return [
        {"lemma": report.lemma_id, **report.witness.to_json_dict()}
        for report in _check_graph_all(g)
    ]


def run_all_checks(n_max: int, *, threads: int = 1) -> dict:
    """Run every check over every connected graph with at most n_max vertices.

    Returns a JSON-ready summary with per-lemma pass counts; `failures`
    stays empty unless the resistance engine itself is broken.
    """
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
            for lemma in {w["lemma"] for w in witnesses}:
                fail_counts[lemma] += 1
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
