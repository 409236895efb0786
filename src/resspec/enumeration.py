"""Canonical forms and isomorphism-free enumeration of connected graphs.

The canonical code of a graph is the lexicographically smallest packed
upper-triangle bitstring over all vertex orderings compatible with an
equitable color refinement (cells in invariant order), found by a pruned
backtracking search. Discovered automorphisms prune same-orbit branches,
which keeps highly symmetric graphs (complete, complete multipartite)
tractable.

Connected graphs are generated one isomorphism class at a time by canonical
augmentation: every connected graph on k vertices is some connected graph
on k-1 vertices plus one new vertex attached to a nonempty neighbor subset,
and a child is kept only when the added vertex lands in the designated
orbit (minimal refinement color, then minimal vertex-marked canonical code,
among non-cut vertices). Isomorphic children of one parent (neighbor
subsets in the same automorphism orbit) are deduplicated by canonical code;
across parents the designated-orbit rule already guarantees uniqueness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

from .graphs import Graph, GraphError, find, parse_graph6, sha256_hex, to_graph6
from .parallel import ordered_map

MAX_CANONICAL_ORDER = 16
ENUMERATION_GUARD = 9
ENUMERATION_HARD_LIMIT = 10

_INF = 1 << 40


@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Permutation-invariant graph encoding; equal codes iff isomorphic."""

    order: int
    bits: int

    def graph(self) -> Graph:
        return Graph(self.order, self.bits)


def _degree_colors(n: int, masks: list[int]) -> list[int]:
    degs = [m.bit_count() for m in masks]
    rank = {d: i for i, d in enumerate(sorted(set(degs)))}
    return [rank[d] for d in degs]


def _refine_colors(n: int, masks: list[int], colors: list[int]) -> list[int]:
    """Equitable refinement; new color ids stay sorted by invariant signature."""
    ncolors = len(set(colors))
    nbrs = [[w for w in range(n) if (m >> w) & 1] for m in masks]
    while ncolors < n:
        sigs = []
        for v in range(n):
            sigs.append((colors[v], tuple(sorted(colors[w] for w in nbrs[v]))))
        palette = sorted(set(sigs))
        if len(palette) == ncolors:
            break
        remap = {s: i for i, s in enumerate(palette)}
        colors = [remap[s] for s in sigs]
        ncolors = len(palette)
    return colors


def _bits_from_chunks(chunks: list[int]) -> int:
    # level k holds k bits; bit (i, k) of the triangle is chunk bit k-1-i
    bits = 0
    idx = 0
    for k, c in enumerate(chunks):
        for i in range(k):
            bits |= ((c >> (k - 1 - i)) & 1) << (idx + i)
        idx += k
    return bits


class _CodeSearch:
    """Backtracking minimizer for the color-constrained adjacency bitstring."""

    def __init__(self, n: int, masks: list[int], colors: list[int]):
        self.n = n
        self.masks = masks
        self.colors = colors
        self.slot_color = sorted(colors)
        self.placed: list[int] = []
        self.unplaced = set(range(n))
        self.autos: list[tuple[int, ...]] = []
        self._auto_set: set[tuple[int, ...]] = set()
        self.best: list[int] = [_INF] * n
        self.best_placed: list[int] | None = None
        self.complete = False

    def run(self, bound: list[int] | None = None) -> None:
        if bound is not None:
            self.best = list(bound)
            self.complete = True
        self._node(0)

    def improved_on_bound(self) -> bool:
        return self.best_placed is not None

    def _node(self, level: int) -> None:
        n = self.n
        if level == n:
            if not self.complete:
                self.best_placed = self.placed.copy()
                self.complete = True
            elif self.best_placed is not None and self.placed != self.best_placed:
                phi = [0] * n
                for pos, v in enumerate(self.placed):
                    phi[self.best_placed[pos]] = v
                t = tuple(phi)
                if t not in self._auto_set:
                    self._auto_set.add(t)
                    self.autos.append(t)
            return
        want = self.slot_color[level]
        placed = self.placed
        cands = []
        for u in self.unplaced:
            if self.colors[u] != want:
                continue
            mu = self.masks[u]
            c = 0
            for p in placed:
                c = (c << 1) | ((mu >> p) & 1)
            cands.append((c, u))
        cands.sort()
        tried: list[int] = []
        uf: list[int] | None = None
        uf_autos = -1
        for c, u in cands:
            if c > self.best[level]:
                break
            if tried and self.autos:
                # orbit pruning under automorphisms fixing the placed prefix
                if uf_autos != len(self.autos):
                    uf = list(range(n))
                    for a in self.autos:
                        if all(a[p] == p for p in placed):
                            for x in range(n):
                                ra, rx = find(uf, a[x]), find(uf, x)
                                if ra != rx:
                                    uf[ra] = rx
                    uf_autos = len(self.autos)
                ru = find(uf, u)
                if any(find(uf, t) == ru for t in tried):
                    continue
            if c < self.best[level]:
                self.best[level] = c
                for j in range(level + 1, n):
                    self.best[j] = _INF
                self.complete = False
            tried.append(u)
            placed.append(u)
            self.unplaced.discard(u)
            self._node(level + 1)
            placed.pop()
            self.unplaced.add(u)


def _forced_chunks(n: int, masks: list[int], colors: list[int]) -> tuple[list[int], list[int]]:
    placed = sorted(range(n), key=colors.__getitem__)
    chunks = []
    for k, u in enumerate(placed):
        mu = masks[u]
        c = 0
        for p in placed[:k]:
            c = (c << 1) | ((mu >> p) & 1)
        chunks.append(c)
    return chunks, placed


def _min_labeling(n: int, masks: list[int], colors: list[int]) -> tuple[list[int], list[int]]:
    """Minimal chunks and the achieving position->vertex order."""
    if len(set(colors)) == n:
        return _forced_chunks(n, masks, colors)  # discrete partition, no search
    search = _CodeSearch(n, masks, colors)
    search.run()
    assert search.best_placed is not None
    return search.best, search.best_placed


def _marked_colors(n: int, masks: list[int], base_colors: list[int], mark: int) -> list[int]:
    start = [0 if v == mark else base_colors[v] + 1 for v in range(n)]
    return _refine_colors(n, masks, start)


def _marked_chunks(n: int, masks: list[int], base_colors: list[int], mark: int) -> list[int]:
    colors = _marked_colors(n, masks, base_colors, mark)
    chunks, _ = _min_labeling(n, masks, colors)
    return chunks


def _marked_beats_bound(
    n: int, masks: list[int], base_colors: list[int], mark: int, bound: list[int]
) -> bool:
    """True when the marked code of `mark` is strictly below `bound`."""
    colors = _marked_colors(n, masks, base_colors, mark)
    if len(set(colors)) == n:
        chunks, _ = _forced_chunks(n, masks, colors)
        return chunks < bound
    search = _CodeSearch(n, masks, colors)
    search.run(bound=bound)
    return search.improved_on_bound()


def _canonical_raw(n: int, masks: list[int]) -> tuple[int, list[int]]:
    """Canonical bits plus the position->vertex order achieving them."""
    colors = _refine_colors(n, masks, _degree_colors(n, masks))
    chunks, placed = _min_labeling(n, masks, colors)
    return _bits_from_chunks(chunks), placed


def canonical_labeling(g: Graph) -> tuple[CanonicalCode, tuple[int, ...]]:
    """Canonical code and the map vertex -> canonical position."""
    if g.order > MAX_CANONICAL_ORDER:
        raise GraphError(
            f"canonical form supports order <= {MAX_CANONICAL_ORDER}, got {g.order}"
        )
    bits, placed = _canonical_raw(g.order, list(g.adjacency_masks))
    perm = [0] * g.order
    for pos, v in enumerate(placed):
        perm[v] = pos
    return CanonicalCode(g.order, bits), tuple(perm)


def canonical_form(g: Graph) -> CanonicalCode:
    return canonical_labeling(g)[0]


def canonical_graph(g: Graph) -> Graph:
    return canonical_form(g).graph()


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.order != h.order or g.size != h.size:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_form(g) == canonical_form(h)


# ---------------------------------------------------------------------------
# canonical augmentation

def _is_cut_masks(n: int, masks: list[int], w: int) -> bool:
    excl = ~(1 << w)
    full = ((1 << n) - 1) & excl
    start = full & -full
    reached = start
    frontier = start
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            nxt |= masks[b.bit_length() - 1]
            m ^= b
        frontier = nxt & excl & ~reached
        reached |= frontier
    return reached != full


def _expand_parent(n: int, pbits: int) -> list[int]:
    """Accepted children (canonical bits) of one (n-1)-vertex parent."""
    v = n - 1
    out: list[int] = []
    pmasks = Graph(n - 1, pbits).adjacency_masks
    seen: set[int] = set()
    for subset in range(1, 1 << (n - 1)):
        masks = [
            pmasks[u] | (((subset >> u) & 1) << v) for u in range(n - 1)
        ]
        masks.append(subset)
        dv = subset.bit_count()
        # the added vertex is never a cut vertex (child - v = parent).
        # it can only be the designated vertex if no non-cut vertex has
        # strictly smaller degree ...
        rejected = False
        same_deg = []
        for w in range(n - 1):
            dw = masks[w].bit_count()
            if dw > dv:
                continue
            if dw == dv:
                same_deg.append(w)
            elif not _is_cut_masks(n, masks, w):
                rejected = True
                break
        if rejected:
            continue
        # ... and among equal-degree non-cut vertices it must carry the
        # minimal refined color and survive the marked-code comparison
        rivals = [w for w in same_deg if not _is_cut_masks(n, masks, w)]
        if rivals:
            base_colors = _refine_colors(n, masks, _degree_colors(n, masks))
            cv = base_colors[v]
            if any(base_colors[w] < cv for w in rivals):
                continue
            rivals = [w for w in rivals if base_colors[w] == cv]
            if rivals:
                bound = _marked_chunks(n, masks, base_colors, v)
                if any(
                    _marked_beats_bound(n, masks, base_colors, w, bound)
                    for w in rivals
                ):
                    continue
        cbits, _ = _canonical_raw(n, masks)
        if cbits not in seen:
            seen.add(cbits)
            out.append(cbits)
    return out


_LEVEL_CACHE: dict[int, list[int]] = {1: [0]}


def _connected_level_bits(n: int, threads: int) -> list[int]:
    if n in _LEVEL_CACHE:
        return _LEVEL_CACHE[n]
    parents = _connected_level_bits(n - 1, threads)
    per_parent = ordered_map(partial(_expand_parent, n), parents, threads)
    children = sorted(b for part in per_parent for b in part)
    _LEVEL_CACHE[n] = children
    return children


def enumerate_connected(n: int, *, threads: int = 1, allow_ten: bool = False):
    """Yield one canonical representative per connected isomorphism class.

    Graphs come out in ascending canonical-code order. The default guard
    stops at 9 vertices; n=10 needs allow_ten=True and patience.
    """
    limit = ENUMERATION_HARD_LIMIT if allow_ten else ENUMERATION_GUARD
    if not 1 <= n <= limit:
        raise GraphError(
            f"enumeration supports 1 <= n <= {limit}"
            + ("" if allow_ten else " (pass allow_ten=True for n=10)")
            + f", got {n}"
        )
    for bits in _connected_level_bits(n, threads):
        yield Graph(n, bits)


def count_connected(n: int, *, threads: int = 1, allow_ten: bool = False) -> int:
    return sum(1 for _ in enumerate_connected(n, threads=threads, allow_ten=allow_ten))


# ---------------------------------------------------------------------------
# graph6 cache files with a checksum trailer

def connected_cache_path(cache_dir: str, n: int) -> str:
    return os.path.join(cache_dir, f"connected-{n}.g6")


def save_connected_cache(cache_dir: str, n: int, graphs: list[Graph]) -> str:
    os.makedirs(cache_dir, exist_ok=True)
    payload = "".join(to_graph6(g) + "\n" for g in graphs)
    path = connected_cache_path(cache_dir, n)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(payload)
        fh.write(f"#sha256:{sha256_hex(payload.encode('ascii'))}\n")
    return path


def load_connected_cache(cache_dir: str, n: int) -> list[Graph] | None:
    """Cached class list, or None when absent. Tampered files are rejected."""
    path = connected_cache_path(cache_dir, n)
    if not os.path.exists(path):
        return None
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[-1].startswith("#sha256:"):
        raise GraphError(f"{path}: missing checksum trailer")
    payload = "".join(ln + "\n" for ln in lines[:-1])
    want = lines[-1][len("#sha256:"):]
    got = sha256_hex(payload.encode("ascii"))
    if want != got:
        raise GraphError(f"{path}: checksum mismatch ({got} != {want})")
    graphs = [parse_graph6(ln) for ln in lines[:-1]]
    for g in graphs:
        if g.order != n:
            raise GraphError(f"{path}: contains a graph of order {g.order}, expected {n}")
    return graphs


def connected_graphs(
    n: int, *, cache_dir: str | None = None, threads: int = 1, allow_ten: bool = False
) -> list[Graph]:
    """Connected classes on n vertices, via the cache directory when given."""
    if cache_dir:
        cached = load_connected_cache(cache_dir, n)
        if cached is not None:
            return cached
    graphs = list(enumerate_connected(n, threads=threads, allow_ten=allow_ten))
    if cache_dir:
        save_connected_cache(cache_dir, n, graphs)
    return graphs
