"""Spectrum indexing, determinability verdicts, and collision mining.

A graph is determined by its resistance spectrum when no non-isomorphic
graph shares it. Since the spectrum has C(n,2) finite entries, any graph
sharing it is connected with the same vertex count, so the unbounded
quantifier collapses to the finite one handled here: group every connected
n-vertex class by its spectrum and look the target up.

The index sorts the classes by graph_fingerprint, 64 bits per class read
from its canonical bits, and forms exact keys (spectrum_json) only where a
run of equal fingerprints is read: equal spectra give equal fingerprints,
so a run holds every class cospectral with any of its members, and
splitting each run of two or more by exact key keeps any fingerprint
collision out of every verdict and report.
"""

from __future__ import annotations

import io
import json
import os
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, partial

from .graphs import (
    Graph,
    GraphError,
    bits_to_graph6,
    complete_bipartite,
    graph6_width,
    is_connected,
    parse_graph6,
    to_graph6,
)
from .enumeration import (
    are_isomorphic,
    canonical_graph,
    check_class_count,
    connected_level,
    write_atomic,
)
from .parallel import ordered_map
from .resistance import (
    ResistanceSpectrum,
    graph_fingerprint,
    resistance_matrix,
    spectrum_json,
)

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
    """Part sizes (small, large), both >= 1, when g is complete bipartite, else None.

    B is vertex 0's neighbours and A the rest, 0 included. g is K_{|A|,|B|}
    exactly when B is nonempty and every vertex is adjacent to exactly the
    other side; that also makes g connected.
    """
    b = g.adjacency_masks[0]
    a = ((1 << g.order) - 1) ^ b
    if not b or any(m != (b if (a >> v) & 1 else a) for v, m in enumerate(g.adjacency_masks)):
        return None
    sizes = a.bit_count(), b.bit_count()
    return min(sizes), max(sizes)


@dataclass(frozen=True)
class SpectrumIndex:
    """All connected classes of one order, sorted by spectrum fingerprint.

    fingerprints holds one spectrum_fingerprint per class, ascending, in one
    machine-word array; members holds the classes' graph6 strings, each
    graph6_width(order) characters, in the same order and with no separator.
    A run, the classes of one fingerprint, is a block of adjacent entries in
    canonical-code order. A run holds every class cospectral with any of its
    members, and a run of two or more is split by exact key wherever it is read.
    """

    order: int
    fingerprints: array
    members: str

    @classmethod
    def from_rows(cls, n: int, rows) -> SpectrumIndex:
        """The index of (graph6, fingerprint) rows given in canonical-code order.

        A stable sort on the fingerprint keeps each run in canonical-code order.
        Positions are first bucketed by the fingerprint's top byte, so the
        sort holds Python objects for one bucket at a time, never one per class.
        """
        unsorted, text = array("Q"), io.StringIO()
        for g6, fp in rows:
            unsorted.append(fp)
            text.write(g6)
        text, width = text.getvalue(), graph6_width(n)
        if len(text) != width * len(unsorted):
            raise GraphError(f"index rows of order {n} need graph6 strings of {width} characters")
        buckets = [array("I") for _ in range(256)]
        for i, fp in enumerate(unsorted):
            buckets[fp >> 56].append(i)
        fingerprints, members = array("Q"), []
        for bucket in buckets:
            order = sorted(bucket, key=unsorted.__getitem__)
            fingerprints.extend(map(unsorted.__getitem__, order))
            members.append("".join([text[i * width:(i + 1) * width] for i in order]))
        return cls(n, fingerprints, "".join(members))

    @property
    def class_count(self) -> int:
        return len(self.fingerprints)

    def _member(self, i: int) -> str:
        width = graph6_width(self.order)
        return self.members[i * width:(i + 1) * width]

    def _run(self, lo: int, hi: int) -> tuple[str, ...]:
        """Members lo..hi-1, one run. A run of two or more must strictly ascend
        in canonical bits, or the rows it was built from were out of order."""
        run = tuple(map(self._member, range(lo, hi)))
        if len(run) > 1:
            bits = [parse_graph6(g6).bits for g6 in run]
            if any(a >= b for a, b in zip(bits, bits[1:])):
                raise GraphError(f"spectrum index is inconsistent: run {self.fingerprints[lo]:016x}"
                                 " is not in canonical-code order")
        return run

    def run(self, fp: int) -> tuple[str, ...]:
        """graph6 of the classes with fingerprint fp, in canonical-code order."""
        lo = bisect_left(self.fingerprints, fp)
        return self._run(lo, bisect_right(self.fingerprints, fp, lo))

    def fingerprint_runs(self, min_size: int = 1) -> Iterator[tuple[str, ...]]:
        """Every run of at least min_size classes, by fingerprint, from one
        scan of adjacent fingerprints."""
        fps, lo = self.fingerprints, 0
        for hi in range(1, len(fps) + 1):
            if hi == len(fps) or fps[hi] != fps[lo]:
                if hi - lo >= min_size:
                    yield self._run(lo, hi)
                lo = hi

    @cached_property
    def groups(self) -> dict[str, tuple[str, ...]]:
        """Exact key -> members for every spectrum; re-keys every class. Only the
        benchmark tracer reads it; it goes with ROADMAP item 1's benchmark change."""
        groups = {}
        for members in self.fingerprint_runs():
            groups.update(_exact_groups(members))
        return groups

    def collision_groups(self) -> dict[str, tuple[str, ...]]:
        """Exact key -> members for each spectrum two or more classes share."""
        return {k: v for members in self.fingerprint_runs(min_size=2)
                for k, v in _exact_groups(members).items() if len(v) >= 2}


def _exact_groups(members: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    """The members of one run grouped by spectrum_json, each group in run order."""
    groups: dict[str, list[str]] = {}
    for g6 in members:
        groups.setdefault(spectrum_json(parse_graph6(g6)), []).append(g6)
    return {k: tuple(v) for k, v in groups.items()}


def _class_fingerprint(n: int, bits: int) -> int:
    return graph_fingerprint(Graph(n, bits))


def spectra_cache_path(cache_dir: str, n: int) -> str:
    return os.path.join(cache_dir, f"spectra-{n}.tsv")


def _cached_rows(path: str, n: int):
    """Yield the (graph6, fingerprint) rows of a spectra cache file as they are
    read; bad rows raise, and so does a row count other than n's class count.
    latin-1 gives each byte one character, so the row checks see non-ASCII."""
    head, width, lineno = chr(63 + n), graph6_width(n), 0
    with open(path, encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, 1):
            g6, tab, fp = line.rstrip("\n").partition("\t")
            if not tab or len(fp) != 16 or fp.strip("0123456789abcdef"):
                raise GraphError(
                    f"{path}:{lineno}: expected 'graph6<TAB>fingerprint', 16 lowercase hex digits"
                )
            if g6[:1] != head or len(g6) != width or not g6.isascii():
                raise GraphError(f"{path}:{lineno}: {g6!r} is not a graph6 string of order {n}")
            yield g6, int(fp, 16)
    check_class_count(path, n, lineno)


def _save_spectra_cache(cache_dir: str, n: int, rows) -> None:
    write_atomic(
        spectra_cache_path(cache_dir, n), (f"{g6}\t{fp:016x}\n" for g6, fp in rows)
    )


def _spectrum_rows(n: int, cache_dir: str | None, threads: int):
    """Yield (graph6, fingerprint) for every class of order n in canonical-code
    order, from the level's canonical bits with no Graph per class. Workers
    are sent canonical bits and return fingerprints."""
    level = connected_level(n, cache_dir=cache_dir, threads=threads)
    fingerprints = ordered_map(partial(_class_fingerprint, n), level, threads)
    for fp, bits in zip(fingerprints, level):  # fingerprints first: its pool ends with it
        yield bits_to_graph6(n, bits), fp


def index_spectra(
    n: int,
    *,
    cache_dir: str | None = None,
    threads: int = 1,
) -> SpectrumIndex:
    """Sort all connected n-vertex classes by spectrum fingerprint.

    With a cache directory, a missing spectra-<n>.tsv is first written row by
    row as the fingerprints come in, and the index is read from the file.
    """
    if not cache_dir:
        return SpectrumIndex.from_rows(n, _spectrum_rows(n, None, threads))
    path = spectra_cache_path(cache_dir, n)
    if not os.path.exists(path):
        _save_spectra_cache(cache_dir, n, _spectrum_rows(n, cache_dir, threads))
    return SpectrumIndex.from_rows(n, _cached_rows(path, n))


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
) -> DrsVerdict:
    """Check whether g is the only graph class with its spectrum.

    The search space is all connected graphs with g's vertex count: the
    spectrum's total multiplicity C(n,2) fixes the vertex count and its
    finiteness forces connectedness, so nothing else can share it. Every
    class sharing it is in g's fingerprint run; the impostors are the
    members whose exact key equals g's.
    """
    if not is_connected(g):
        raise GraphError("determinability is defined for connected graphs")
    if index is None:
        index = index_spectra(g.order, cache_dir=cache_dir, threads=threads)
    elif index.order != g.order:
        raise GraphError(f"index is for order {index.order}, graph has {g.order}")
    key = spectrum_json(g)
    run = index.run(graph_fingerprint(g))
    me = to_graph6(canonical_graph(g))
    if me not in run:
        raise GraphError("spectrum index is inconsistent: target missing from its run")
    impostors = tuple(x for x in run if x != me and spectrum_json(parse_graph6(x)) == key)
    for x in impostors:
        _reverify_pair(me, x, key)
    parts = complete_bipartite_parts(g)
    tag = classify_kmn(*parts) if parts else TAG_NOT_KMN
    return DrsVerdict(
        target_graph6=me,
        order=g.order,
        determined=not impostors,
        theorem_tag=tag,
        impostors=impostors,
        spectrum_json=key,
    )


def verify_targets(
    graphs: list[Graph],
    *,
    cache_dir: str | None = None,
    threads: int = 1,
) -> list[DrsVerdict]:
    """verify_drs for each target in turn, building each order's index once.

    Indexes are built in first-seen order, and never for a disconnected
    target, which gets verify_drs's error.
    """
    indexes: dict[int, SpectrumIndex] = {}
    verdicts = []
    for g in graphs:
        if g.order not in indexes and is_connected(g):
            indexes[g.order] = index_spectra(g.order, cache_dir=cache_dir, threads=threads)
        verdicts.append(verify_drs(g, index=indexes.get(g.order)))
    return verdicts


def theorem_targets(n_max: int) -> list[Graph]:
    """Every K_{m,n} with m <= n and 2..n_max vertices, by order, then by m."""
    return [complete_bipartite(m, total - m)
            for total in range(2, n_max + 1) for m in range(1, total // 2 + 1)]


def check_theorems(
    n_max: int,
    *,
    cache_dir: str | None = None,
    threads: int = 1,
) -> list[DrsVerdict]:
    """Verdicts for every complete bipartite graph with 2..n_max vertices.

    Proven-shape instances must come back determined; conjecture-only
    instances are reported however they come out.
    """
    return verify_targets(theorem_targets(n_max), cache_dir=cache_dir, threads=threads)


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
) -> CollisionReport:
    """All spectrum-sharing class pairs on n vertices, each re-verified."""
    index = index_spectra(n, cache_dir=cache_dir, threads=threads)
    pairs = []
    for spec, members in sorted(index.collision_groups().items()):
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                _reverify_pair(a, b, spec)
                pairs.append((a, b, spec))
    return CollisionReport(n, tuple(pairs))


def _reverify_pair(a6: str, b6: str, spec: str) -> None:
    """Independent re-check of a collision or an impostor; raises on any mismatch.

    Both spectra are counted from Fraction pairs by from_values, never read
    from the integer runs behind the key, so a fault there cannot confirm itself.
    """
    ga, gb = parse_graph6(a6), parse_graph6(b6)
    if are_isomorphic(ga, gb):
        raise GraphError(f"pair {a6} / {b6} is isomorphic; index is broken")
    sa, sb = (ResistanceSpectrum.from_values(r for *_, r in resistance_matrix(x).pairs())
              for x in (ga, gb))
    if not (sa.to_json() == sb.to_json() == spec):
        raise GraphError(f"pair {a6} / {b6} fails spectrum re-verification")
