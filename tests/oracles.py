"""Brute-force oracles for the tests, independent of the integer adjugate;
group_runs, the fingerprint grouping a spectrum index stands for; and
exact_groups, the exact grouping it stands for."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from resspec.graphs import Graph, GraphError, find, parse_graph6
from resspec.resistance import DisconnectedError, spectrum_json


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


def group_runs(rows) -> dict[int, tuple[str, ...]]:
    """Fingerprint -> graph6 members, each run in row order, from (graph6,
    fingerprint) rows: the dict grouping a spectrum index's runs stand for."""
    runs: dict[int, tuple[str, ...]] = {}
    for g6, fp in rows:
        runs[fp] = runs.get(fp, ()) + (g6,)
    return runs


def exact_groups(index) -> dict[str, tuple[str, ...]]:
    """Exact spectrum key -> graph6 members of a SpectrumIndex, re-keying every class.

    Each group is split from one fingerprint run, in run order; a spectrum
    found in two runs fails, since a run must hold every class cospectral
    with any of its members.
    """
    groups: dict[str, tuple[str, ...]] = {}
    for members in index.fingerprint_runs():
        split: dict[str, list[str]] = {}
        for g6 in members:
            split.setdefault(spectrum_json(parse_graph6(g6)), []).append(g6)
        for key, group in split.items():
            assert key not in groups, f"spectrum {key} lies in two fingerprint runs"
            groups[key] = tuple(group)
    return groups
