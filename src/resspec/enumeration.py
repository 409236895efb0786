"""Canonical forms and isomorphism-free enumeration of connected graphs.

The canonical code of a graph is the lexicographically smallest packed
upper-triangle bitstring over all vertex orderings compatible with an
equitable color refinement (cells in invariant order), found by a pruned
backtracking search. Known automorphisms prune same-orbit branches
(McKay & Piperno, Practical graph isomorphism II, 2014). Transpositions of
same-colored twins, vertices with the same neighbors apart from each other,
are known before the search. When every cell is a twin class, as in
complete and complete bipartite graphs with unequal parts, they generate
every permutation within the cells. Every color-compatible order then
gives one code, and the search is skipped (proof at _min_labeling).

Connected graphs are generated one isomorphism class at a time by canonical
augmentation: every connected graph on k vertices is some connected graph
on k-1 vertices plus one new vertex attached to a nonempty neighbor subset,
and a child is kept only when the added vertex lands in the designated
orbit (minimal refinement color, then minimal vertex-marked canonical code,
among non-cut vertices). Isomorphic children of one parent come from
neighbor subsets in one orbit of the parent's automorphism group, so only
the first subset of each orbit is tried; a dict keyed by canonical code
stays as the backstop. Across parents the designated-orbit rule already
guarantees uniqueness.
"""

from __future__ import annotations

import hashlib
import os
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial
from itertools import islice

from .graphs import Graph, GraphError, _components, find, parse_graph6, to_graph6
from .parallel import ordered_map

MAX_CANONICAL_ORDER = 16
ENUMERATION_GUARD = 9

# OEIS A001349, connected graphs on n unlabelled vertices: the supported orders
CONNECTED_CLASS_COUNTS = {
    1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080,
    10: 11716571,
}

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


def _refine_colors(
    n: int, masks: list[int], colors: list[int], splitters: list[int] | None = None
) -> list[int]:
    """Equitable refinement; new color ids stay sorted by invariant signature.

    One bitmask per cell. A vertex's signature is its color followed by
    minus its neighbor count in each cell. Precondition: vertices of one
    color have one degree, which holds for _degree_colors and every
    refinement of it. Then the signature sorts exactly like (color, sorted
    neighbor colors), so the ids, and the codes built on them, are the ones
    that ranking gives. Color ids may have gaps (a marked coloring can skip
    one), so the cell list is sized by the largest id; a coloring no round
    splits comes back unchanged, gaps included.

    A column that, within each color, is a function of the columns before
    it never decides between two signatures, so dropping it leaves the
    sorted ids as they were. After a round, counts into each old cell are
    constant on every new cell. So a round counts only against the pieces
    of the cells the previous round split, each but its last: an unsplit
    cell's counts are constant, and the last piece's are the old cell's
    minus those of the pieces before it. The first round counts against
    `splitters`, cell bitmasks in color order, and the caller vouches that
    the other columns can be dropped. By default they are every cell but
    the last, whose counts are the degree minus the others'.
    """
    ncolors = len(set(colors))
    if splitters is None:
        cells = [0] * (max(colors) + 1)
        for v, c in enumerate(colors):
            cells[c] |= 1 << v
        splitters = cells[:-1]
    while ncolors < n:
        counts = [[-(m & cell).bit_count() for m in masks] for cell in splitters]
        sigs = list(zip(colors, *counts))
        palette = sorted(set(sigs))
        if len(palette) == ncolors:
            break
        remap = {s: i for i, s in enumerate(palette)}
        colors = [remap[s] for s in sigs]
        ncolors = len(palette)
        cells = [0] * ncolors
        for v, c in enumerate(colors):
            cells[c] |= 1 << v
        splitters = [cells[i] for i in range(ncolors - 1) if palette[i][0] == palette[i + 1][0]]
    return colors


def _bits_from_chunks(chunks: list[int]) -> int:
    # level k holds k bits; bit (i, k) of the triangle is chunk bit k-1-i,
    # so the chunks' k-digit binary strings, joined, list the triangle's
    # bits in index order
    digits = "".join([bin(c | (1 << k))[3:] for k, c in enumerate(chunks)])
    return int(digits[::-1], 2) if digits else 0


class _CodeSearch:
    """Backtracking minimizer for the color-constrained adjacency bitstring."""

    def __init__(self, n: int, masks: list[int], colors: list[int],
                 autos: list[tuple[int, ...]] = ()):
        self.n = n
        self.masks = masks
        self.colors = colors
        self.slot_color = sorted(colors)
        self.placed: list[int] = []
        self.unplaced = set(range(n))
        self.autos: list[tuple[int, ...]] = list(autos)  # genuine, known in advance
        self._auto_set: set[tuple[int, ...]] = set(autos)
        self.best: list[int] = [_INF] * n
        self.best_placed: list[int] = []
        self.complete = False

    def _node(self, level: int) -> None:
        n = self.n
        if level == n:
            if not self.complete:
                self.best_placed = self.placed.copy()
                self.complete = True
            elif self.placed != self.best_placed:
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


def _twin_autos(n: int, masks: list[int], colors: list[int]) -> list[tuple[int, ...]]:
    """Transpositions of same-colored twins: vertices u, v with
    masks[u] & ~(1 << v) == masks[v] & ~(1 << u).

    Twins form an equivalence relation (an adjacent twin pair and a
    non-adjacent one cannot share a vertex), so it suffices to swap each
    member of a twin class with the member before it. The chain generates
    every permutation of the class. Unplaced members of a class tie as
    candidates, so the search places a class in ascending order, and the
    links among its unplaced members always fix the placed prefix.
    """
    autos = []
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cell = cells.setdefault(colors[v], [])
        for u in reversed(cell):
            if masks[u] & ~(1 << v) == masks[v] & ~(1 << u):
                perm = list(range(n))
                perm[u], perm[v] = v, u
                autos.append(tuple(perm))
                break
        cell.append(v)
    return autos


def _min_labeling(
    n: int, masks: list[int], colors: list[int]
) -> tuple[list[int], list[int], list[tuple[int, ...]]]:
    """Minimal chunks, the achieving position->vertex order, and the
    automorphisms known on the way.

    Each returned automorphism is genuine: a twin transposition
    (_twin_autos), or the map between two color-compatible orders with the
    same code. They need not generate the whole group.

    When every cell is a set of twins (a discrete partition is the trivial
    case), the twin transpositions generate every permutation within the
    cells, and each is an automorphism. Every color-compatible order is the
    forced order moved by one of them, so all orders give one code. The
    candidates therefore also tie at every level, and the search, which
    takes the smallest vertex first, reaches the forced order as its first
    leaf. So no search is needed: the chunks and the order are the
    search's, and the transpositions generate the whole group.

    Otherwise the transpositions seed the search's orbit pruning. A pruned
    branch is the image of an earlier sibling under an automorphism fixing
    the placed prefix, so the first minimal leaf in candidate order is never
    pruned, and the result does not depend on which automorphisms are known.
    """
    ncells = len(set(colors))
    twins = _twin_autos(n, masks, colors) if ncells < n else []
    if len(twins) == n - ncells:
        chunks, placed = _forced_chunks(n, masks, colors)  # every cell a twin class, no search
        return chunks, placed, twins
    search = _CodeSearch(n, masks, colors, twins)
    search._node(0)
    return search.best, search.best_placed, search.autos


def _marked_colors(n: int, masks: list[int], base_colors: list[int], mark: int) -> list[int]:
    """Refinement of the equitable base_colors with `mark` in a cell of its
    own. Counts into each base cell are constant on every cell of the
    start, and the rest of the mark's cell comes after the mark, so only
    the mark splits in the first round."""
    start = [0 if v == mark else base_colors[v] + 1 for v in range(n)]
    return _refine_colors(n, masks, start, [1 << mark])


def canonical_labeling(g: Graph) -> tuple[CanonicalCode, tuple[int, ...]]:
    """Canonical code and the map vertex -> canonical position."""
    if g.order > MAX_CANONICAL_ORDER:
        raise GraphError(
            f"canonical form supports order <= {MAX_CANONICAL_ORDER}, got {g.order}"
        )
    n, masks = g.order, list(g.adjacency_masks)
    chunks, placed, _ = _min_labeling(n, masks, _refine_colors(n, masks, _degree_colors(n, masks)))
    perm = [0] * n
    for pos, v in enumerate(placed):
        perm[v] = pos
    return CanonicalCode(n, _bits_from_chunks(chunks)), tuple(perm)


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

def _subset_reps(m: int, masks: list[int]) -> list[int]:
    """For each vertex subset s of an m-vertex graph, the smallest subset of
    s's orbit under the automorphisms _min_labeling returns for the graph."""
    autos = _min_labeling(m, masks, _refine_colors(m, masks, _degree_colors(m, masks)))[2]
    images = []  # per automorphism, the image of every subset
    for a in autos:
        image = [0]
        for x in range(m):
            bit = 1 << a[x]
            image += [t | bit for t in image]
        images.append(image)
    reps = list(range(1 << m))
    for s in range(1, 1 << m):
        if reps[s] != s:
            continue
        stack = [s]  # s is the first of its orbit the scan reaches: label the rest
        while stack:
            t = stack.pop()
            for image in images:
                i = image[t]
                if reps[i] == i and i != s:
                    reps[i] = s
                    stack.append(i)
    return reps


def _neighbour_degrees(mask: int, degs: list[int]) -> list[int]:
    """The degrees of the vertices in mask, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(degs[b.bit_length() - 1])
        mask ^= b
    out.sort()
    return out


def _expand_parent(n: int, pbits: int) -> list[int]:
    """Accepted children (canonical bits) of one (n-1)-vertex parent.

    Only the first subset of each orbit under the parent's recorded
    automorphisms is tried. That is safe because each recorded automorphism
    is genuine: it maps a skipped subset onto its representative, so the
    two children are isomorphic by a map that fixes the new vertex. They
    get the same verdict and the same canonical code, whether or not the
    automorphisms generate the whole group. The dedup dict stays as the
    backstop for isomorphic children the recorded automorphisms miss.

    A child is rejected before it is refined when some same-degree non-cut
    rival w of the new vertex v has a lexicographically smaller ascending
    list of neighbour degrees. Between two vertices of one degree that is
    exactly the first refinement round's signature order: the signature
    lists minus the neighbour count in each degree cell, smallest degree
    first, and two equal-length sorted lists first differ at the smallest
    degree of which one has more neighbours. Every later round keeps the old
    color as its leading key, so w also ends with a smaller refined color
    than v, and the full refinement rejects the same child.
    """
    v = n - 1
    out: dict[int, None] = {}  # canonical bits of the accepted children, deduplicated
    pmasks = Graph(n - 1, pbits).adjacency_masks
    reps = _subset_reps(n - 1, pmasks)
    pdegs = [m.bit_count() for m in pmasks]
    # child - w is (parent - w) plus v, so it is connected exactly when the
    # subset meets every component of parent - w (none when that is empty)
    pieces = [_components(pmasks, ((1 << (n - 1)) - 1) ^ (1 << w)) for w in range(n - 1)]

    def non_cut(subset: int, w: int) -> bool:
        return all(c & subset for c in pieces[w])

    for subset in range(1, 1 << (n - 1)):
        if reps[subset] != subset:
            continue
        dv = subset.bit_count()
        # the added vertex is never a cut vertex (child - v = parent).
        # it can only be the designated vertex if no non-cut vertex has
        # strictly smaller degree ...
        rejected = False
        same_deg = []
        for w in range(n - 1):
            dw = pdegs[w] + ((subset >> w) & 1)
            if dw > dv:
                continue
            if dw == dv:
                same_deg.append(w)
            elif non_cut(subset, w):
                rejected = True
                break
        if rejected:
            continue
        masks = [pmasks[u] | (((subset >> u) & 1) << v) for u in range(n - 1)]
        masks.append(subset)
        # ... and among equal-degree non-cut vertices it must carry the
        # minimal refined color, decided at the first round where it can be,
        # and survive the marked-code comparison
        if same_deg:
            degs = [m.bit_count() for m in masks]
            mine = _neighbour_degrees(subset, degs)
            if any(_neighbour_degrees(masks[w], degs) < mine and non_cut(subset, w)
                   for w in same_deg):
                continue
        base_colors = _refine_colors(n, masks, _degree_colors(n, masks))
        cv = base_colors[v]
        rivals = [w for w in same_deg if base_colors[w] <= cv and non_cut(subset, w)]
        if any(base_colors[w] < cv for w in rivals):
            continue
        if rivals:
            least = _min_labeling(n, masks, _marked_colors(n, masks, base_colors, v))[0]
            if any(
                _min_labeling(n, masks, _marked_colors(n, masks, base_colors, w))[0] < least
                for w in rivals
            ):
                continue
        chunks = _min_labeling(n, masks, base_colors)[0]
        out[_bits_from_chunks(chunks)] = None
    return list(out)


_LEVEL_CACHE: dict[int, array] = {1: array("Q", [0])}


def connected_level(n: int, *, cache_dir: str | None = None, threads: int = 1) -> array:
    """The canonical bits of every connected class on n vertices, ascending,
    one machine word per class.

    With a cache directory the level is read from connected-<n>.g6, or on a
    miss built through enumerate_connected and written there. Without one it
    is the level cache's own array, built from level n-1 once per process;
    that array is shared, and callers must not change it.
    """
    if cache_dir:
        level = load_connected_cache(cache_dir, n)
        if level is None:
            level = array("Q", (g.bits for g in enumerate_connected(n, threads=threads)))
            save_connected_cache(cache_dir, n, level)
        return level
    if n in _LEVEL_CACHE:
        return _LEVEL_CACHE[n]
    if n not in CONNECTED_CLASS_COUNTS:
        raise GraphError(f"enumeration supports 1 <= n <= {max(CONNECTED_CLASS_COUNTS)}, got {n}")
    parents = connected_level(n - 1, threads=threads)
    children = array("Q")
    for part in ordered_map(partial(_expand_parent, n), parents, threads):
        children.extend(part)
    children = array("Q", sorted(children))
    check_class_count(f"level {n}", n, len(children))
    _LEVEL_CACHE[n] = children
    return children


def enumerate_connected(n: int, *, threads: int = 1):
    """Yield one canonical representative per connected isomorphism class, in
    ascending canonical-code order: a Graph view of connected_level(n)."""
    for bits in connected_level(n, threads=threads):
        yield Graph(n, bits)


# ---------------------------------------------------------------------------
# graph6 cache files with a checksum trailer

def connected_cache_path(cache_dir: str, n: int) -> str:
    return os.path.join(cache_dir, f"connected-{n}.g6")


def write_atomic(path: str, chunks) -> None:
    """Replace path with the text chunks, making its directory if needed;
    readers see the old file or the whole new one."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def check_class_count(source: str, n: int, count: int) -> None:
    """Reject a level or cache whose order has no known class count or whose size is not it."""
    want = CONNECTED_CLASS_COUNTS.get(n)
    if want is None:
        raise GraphError(f"{source}: no class count is known for n={n}")
    if count != want:
        raise GraphError(f"{source}: {count} classes, expected {want} for n={n}")


def save_connected_cache(cache_dir: str, n: int, level) -> str:
    """Write the canonical bits `level` as graph6 rows, then their sha256 trailer."""
    digest = hashlib.sha256()

    def rows():
        for bits in level:
            row = to_graph6(Graph(n, bits)) + "\n"
            digest.update(row.encode("ascii"))
            yield row
        yield f"#sha256:{digest.hexdigest()}\n"

    path = connected_cache_path(cache_dir, n)
    write_atomic(path, rows())
    return path


def load_connected_cache(cache_dir: str, n: int) -> array | None:
    """Cached level as canonical bits, or None when absent. The bytes before
    the trailer are hashed first, so a changed file is reported as changed
    whatever its rows say; only then are rows parsed, and the first bad or
    out-of-order one is named by file and line. Each row's canonicity is not
    checked: a canonical_form per row costs tens of seconds at n=9."""
    path = connected_cache_path(cache_dir, n)
    if not os.path.exists(path):
        return None
    digest, rows, last = hashlib.sha256(), 0, b""
    with open(path, "rb") as fh:
        for rows, line in enumerate(fh):  # rows ends as the count of lines before the last
            digest.update(last)
            last = line
    if not last.startswith(b"#sha256:"):
        raise GraphError(f"{path}: missing checksum trailer")
    want, got = last[len(b"#sha256:"):].rstrip(b"\n").decode("latin-1"), digest.hexdigest()
    if want != got:
        raise GraphError(f"{path}: checksum mismatch ({got} != {want})")
    level = array("Q")
    # split at "\n" alone, as hashed; latin-1 passes non-ASCII bytes on to parse_graph6
    with open(path, encoding="latin-1", newline="\n") as fh:
        for lineno, line in enumerate(islice(fh, rows), 1):
            try:
                g = parse_graph6(line.rstrip("\n"))
            except GraphError as exc:
                raise GraphError(f"{path}:{lineno}: {exc}") from None
            if g.order != n:
                raise GraphError(
                    f"{path}:{lineno}: contains a graph of order {g.order}, expected {n}")
            if level and g.bits <= level[-1]:
                raise GraphError(
                    f"{path}:{lineno}: rows not strictly ascending in canonical-code order")
            level.append(g.bits)
    check_class_count(path, n, len(level))
    return level


def connected_graphs(
    n: int, *, cache_dir: str | None = None, threads: int = 1
) -> Iterator[Graph]:
    """Connected classes on n vertices in canonical-code order, one Graph at a
    time: enumerate_connected, or built from connected_level's cached array."""
    if not cache_dir:
        return enumerate_connected(n, threads=threads)
    return (Graph(n, bits) for bits in connected_level(n, cache_dir=cache_dir, threads=threads))
