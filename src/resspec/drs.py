"""Spectrum indexing, determinability verdicts, and collision mining.

A graph is determined by its resistance spectrum when no non-isomorphic
graph shares it. Since the spectrum has C(n,2) finite entries, any graph
sharing it is connected with the same vertex count, so the unbounded
quantifier collapses to the finite one handled here: group every connected
n-vertex class by its exact spectrum and look the target up.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .graphs import (
    Graph,
    GraphError,
    complete_bipartite,
    is_connected,
    parse_graph6,
    to_graph6,
)
from .enumeration import canonical_form, canonical_graph, connected_graphs
from .parallel import ordered_map
from .resistance import ResistanceSpectrum, resistance_spectrum

# classification tags for complete bipartite targets, by part-size shape
TAG_BALANCED = "Thm3.1"        # m == n
TAG_NEAR_BALANCED = "Thm3.2"   # |m - n| == 1
TAG_TWO_ROW = "Thm3.3"         # min(m, n) == 2
TAG_DOMINANT = "Thm3.4"        # max(m, n) > 3*min(m, n) + 1
TAG_CONJECTURE = "conjecture-only"
TAG_NOT_KMN = "not-complete-bipartite"

PROVEN_TAGS = (TAG_BALANCED, TAG_NEAR_BALANCED, TAG_TWO_ROW, TAG_DOMINANT)


def classify_kmn(m: int, n: int) -> str:
    """First matching shape tag for the complete bipartite graph K_{m,n}."""
    if m < 1 or n < 1:
        raise GraphError(f"both part sizes must be >= 1, got ({m},{n})")
    lo, hi = min(m, n), max(m, n)
    if lo == hi:
        return TAG_BALANCED
    if hi - lo == 1:
        return TAG_NEAR_BALANCED
    if lo == 2:
        return TAG_TWO_ROW
    if hi > 3 * lo + 1:
        return TAG_DOMINANT
    return TAG_CONJECTURE


def complete_bipartite_parts(g: Graph) -> tuple[int, int] | None:
    """Part sizes (small, large) when g is complete bipartite, else None."""
    if not is_connected(g):
        return None
    n = g.order
    side = [-1] * n
    side[0] = 0
    queue = [0]
    while queue:
        x = queue.pop()
        for y in g.neighbor_lists[x]:
            if side[y] < 0:
                side[y] = 1 - side[x]
                queue.append(y)
            elif side[y] == side[x]:
                return None
    part0 = [v for v in range(n) if side[v] == 0]
    part1 = [v for v in range(n) if side[v] == 1]
    if g.size != len(part0) * len(part1):
        return None
    return min(len(part0), len(part1)), max(len(part0), len(part1))


@dataclass(frozen=True)
class SpectrumIndex:
    """All connected classes of one order, grouped by exact spectrum.

    groups maps the spectrum's JSON serialization to the graph6 strings of
    the canonical representatives realizing it, in canonical-code order.
    """

    order: int
    groups: dict[str, tuple[str, ...]]

    @property
    def class_count(self) -> int:
        return sum(len(v) for v in self.groups.values())

    def group_for(self, spectrum: ResistanceSpectrum) -> tuple[str, ...]:
        return self.groups.get(spectrum.to_json(), ())

    def collision_groups(self) -> dict[str, tuple[str, ...]]:
        return {k: v for k, v in self.groups.items() if len(v) >= 2}


def spectra_cache_path(cache_dir: str, n: int) -> str:
    return os.path.join(cache_dir, f"spectra-{n}.tsv")


def _spectrum_key(g6: str) -> str:
    return resistance_spectrum(parse_graph6(g6)).to_json()


def _compute_spectra(g6s: list[str], threads: int) -> list[str]:
    return ordered_map(_spectrum_key, g6s, threads)


def _load_spectra_cache(cache_dir: str, n: int) -> list[tuple[str, str]] | None:
    path = spectra_cache_path(cache_dir, n)
    if not os.path.exists(path):
        return None
    rows = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise GraphError(f"{path}:{lineno}: expected 'graph6<TAB>spectrum-json'")
            rows.append((parts[0], parts[1]))
    return rows


def _save_spectra_cache(cache_dir: str, n: int, rows: list[tuple[str, str]]) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    path = spectra_cache_path(cache_dir, n)
    with open(path, "w", encoding="ascii") as fh:
        for g6, spec in rows:
            fh.write(f"{g6}\t{spec}\n")


def index_spectra(
    n: int,
    *,
    cache_dir: str | None = None,
    threads: int = 1,
    allow_ten: bool = False,
) -> SpectrumIndex:
    """Partition all connected n-vertex classes by exact spectrum."""
    rows = None
    if cache_dir:
        rows = _load_spectra_cache(cache_dir, n)
    if rows is None:
        g6s = [
            to_graph6(g)
            for g in connected_graphs(
                n, cache_dir=cache_dir, threads=threads, allow_ten=allow_ten
            )
        ]
        rows = list(zip(g6s, _compute_spectra(g6s, threads)))
        if cache_dir:
            _save_spectra_cache(cache_dir, n, rows)
    groups: dict[str, list[str]] = {}
    for g6, spec in rows:
        groups.setdefault(spec, []).append(g6)
    return SpectrumIndex(n, {k: tuple(v) for k, v in groups.items()})


@dataclass(frozen=True)
class DrsVerdict:
    """Outcome of one determinability check, exhaustive at the target's order."""

    target_graph6: str
    order: int
    determined: bool
    theorem_tag: str
    impostors: tuple[str, ...]
    spectrum_json: str

    def __post_init__(self):
        if self.determined != (not self.impostors):
            raise ValueError("determined must mean exactly: no impostors")

    def to_json_dict(self) -> dict:
        return {
            "target": self.target_graph6,
            "order": self.order,
            "determined": self.determined,
            "theorem_tag": self.theorem_tag,
            "impostors": list(self.impostors),
            "spectrum": json.loads(self.spectrum_json),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=True)


def verify_drs(
    g: Graph,
    *,
    index: SpectrumIndex | None = None,
    cache_dir: str | None = None,
    threads: int = 1,
    allow_ten: bool = False,
) -> DrsVerdict:
    """Check whether g is the only graph class with its spectrum.

    The search space is all connected graphs with g's vertex count: the
    spectrum's total multiplicity C(n,2) fixes the vertex count and its
    finiteness forces connectedness, so nothing else can share it.
    """
    if not is_connected(g):
        raise GraphError("determinability is defined for connected graphs")
    if index is None:
        index = index_spectra(
            g.order, cache_dir=cache_dir, threads=threads, allow_ten=allow_ten
        )
    elif index.order != g.order:
        raise GraphError(f"index is for order {index.order}, graph has {g.order}")
    spectrum = resistance_spectrum(g)
    group = index.group_for(spectrum)
    me = to_graph6(canonical_graph(g))
    if me not in group:
        raise GraphError("spectrum index is inconsistent: target missing from its group")
    impostors = tuple(x for x in group if x != me)
    parts = complete_bipartite_parts(g)
    tag = classify_kmn(*parts) if parts else TAG_NOT_KMN
    return DrsVerdict(
        target_graph6=me,
        order=g.order,
        determined=not impostors,
        theorem_tag=tag,
        impostors=impostors,
        spectrum_json=spectrum.to_json(),
    )


def check_theorems(
    n_max: int,
    *,
    cache_dir: str | None = None,
    threads: int = 1,
    allow_ten: bool = False,
) -> list[DrsVerdict]:
    """Verdicts for every complete bipartite graph with 2..n_max vertices.

    Proven-shape instances must come back determined; conjecture-only
    instances are reported however they come out.
    """
    verdicts = []
    for total in range(2, n_max + 1):
        index = index_spectra(
            total, cache_dir=cache_dir, threads=threads, allow_ten=allow_ten
        )
        for m in range(1, total // 2 + 1):
            verdicts.append(
                verify_drs(complete_bipartite(m, total - m), index=index)
            )
    return verdicts


@dataclass(frozen=True)
class CollisionReport:
    """Non-isomorphic same-order pairs sharing an exact spectrum."""

    order: int
    pairs: tuple[tuple[str, str, str], ...]  # (graph6 a, graph6 b, spectrum json)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "pair_count": len(self.pairs),
            "pairs": [
                {"a": a, "b": b, "spectrum": json.loads(spec)}
                for a, b, spec in self.pairs
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=True)


def find_collisions(
    n: int,
    *,
    cache_dir: str | None = None,
    threads: int = 1,
    allow_ten: bool = False,
) -> CollisionReport:
    """All spectrum-sharing class pairs on n vertices, each re-verified."""
    index = index_spectra(n, cache_dir=cache_dir, threads=threads, allow_ten=allow_ten)
    pairs = []
    for spec, members in sorted(index.collision_groups().items()):
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                _reverify_pair(a, b, spec)
                pairs.append((a, b, spec))
    return CollisionReport(n, tuple(pairs))


def _reverify_pair(a6: str, b6: str, spec: str) -> None:
    """Independent re-check of a reported collision; raises on any mismatch."""
    ga, gb = parse_graph6(a6), parse_graph6(b6)
    if canonical_form(ga) == canonical_form(gb):
        raise GraphError(f"collision pair {a6} / {b6} is isomorphic; index is broken")
    sa = resistance_spectrum(ga).to_json()
    sb = resistance_spectrum(gb).to_json()
    if not (sa == sb == spec):
        raise GraphError(f"collision pair {a6} / {b6} fails spectrum re-verification")
