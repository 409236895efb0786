"""Simple undirected graphs as immutable bit-packed values.

Vertices are dense integers 0..n-1. Adjacency is stored as one arbitrary
precision integer holding the upper triangle of the adjacency matrix in
column-major order (the graph6 bit order): the bit for the pair (i, j)
with i < j sits at index j*(j-1)//2 + i. Graphs compare and hash by value,
so they can be shared freely between workers and used as dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

MAX_GRAPH6_ORDER = 62  # single-byte graph6 size header


class GraphError(ValueError):
    """Malformed graph construction, query, or serialization."""


class EdgeExistsError(GraphError):
    """add_edge was asked to add an edge that is already present."""


class Graph6Error(GraphError):
    """Malformed graph6 text; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def pair_index(i: int, j: int) -> int:
    """Bit index of the unordered pair {i, j} in the packed upper triangle."""
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..order-1."""

    order: int
    bits: int

    def __post_init__(self):
        if self.order < 1:
            raise GraphError(f"graph order must be >= 1, got {self.order}")
        if self.bits < 0 or self.bits >> (self.order * (self.order - 1) // 2):
            raise GraphError("adjacency bits out of range for order")

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks (bit v of masks[u] set iff u~v)."""
        n, bits = self.order, self.bits
        masks = [0] * n
        for j in range(1, n):
            # column j of the packed triangle: j's neighbours below j
            low = (bits >> (j * (j - 1) // 2)) & ((1 << j) - 1)
            masks[j] = low
            while low:
                b = low & -low
                masks[b.bit_length() - 1] |= 1 << j
                low ^= b
        return tuple(masks)

    @cached_property
    def neighbor_lists(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(v for v in range(self.order) if (m >> v) & 1)
            for m in self.adjacency_masks
        )

    @property
    def size(self) -> int:
        """Number of edges."""
        return self.bits.bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        return (self.bits >> pair_index(u, v)) & 1 == 1

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adjacency_masks[v].bit_count()

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(self.neighbor_lists[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in packed bit order."""
        out = []
        for j, m in enumerate(self.adjacency_masks):
            low = m & ((1 << j) - 1)
            while low:
                b = low & -low
                out.append((b.bit_length() - 1, j))
                low ^= b
        return out

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self.degree(v) for v in range(self.order)))

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.order:
            raise GraphError(f"vertex {v} out of range for order {self.order}")

    def __repr__(self) -> str:
        if self.order <= MAX_GRAPH6_ORDER:
            return f"Graph(order={self.order}, graph6={to_graph6(self)!r})"
        return f"Graph(order={self.order}, size={self.size})"


def new_graph(n: int, edges) -> Graph:
    """Build a graph on n vertices from unordered endpoint pairs.

    Duplicate pairs collapse to a single edge. Self-loops and endpoints
    outside 0..n-1 are rejected.
    """
    if n < 1:
        raise GraphError(f"graph order must be >= 1, got {n}")
    bits = 0
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop ({u},{v}) is not allowed")
        bits |= 1 << pair_index(u, v)
    return Graph(n, bits)


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n} with parts {0..m-1} and {m..m+n-1}."""
    if m < 1 or n < 1:
        raise GraphError(f"both part sizes must be >= 1, got ({m},{n})")
    return new_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def complete_graph(n: int) -> Graph:
    return new_graph(n, [(i, j) for j in range(n) for i in range(j)])


def path_graph(n: int) -> Graph:
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs >= 3 vertices, got {n}")
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def is_connected(g: Graph) -> bool:
    return _masks_reach(g.adjacency_masks, (1 << g.order) - 1).bit_count() == g.order


def _masks_reach(masks, within: int) -> int:
    """Vertices of the bitmask `within` reachable from its lowest vertex inside it."""
    # bitmask BFS: grow the reached set until it stops growing or fills `within`
    reached = frontier = within & -within
    while frontier and reached != within:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            nxt |= masks[b.bit_length() - 1]
            m ^= b
        frontier = nxt & within & ~reached
        reached |= frontier
    return reached


def find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _components(masks, within: int) -> list[int]:
    """Connected components of the bitmask `within`, as bitmasks, lowest vertex first."""
    out = []
    while within:
        out.append(_masks_reach(masks, within))
        within ^= out[-1]
    return out


def blocks_and_cut_vertices(g: Graph) -> tuple[list[frozenset[int]], frozenset[int]]:
    """Block decomposition of a connected graph.

    Returns (blocks, cuts) where each block is the vertex set of a
    maximal subgraph without a cut vertex; every edge belongs to exactly one
    block, and a vertex is a cut vertex iff it lies in at least two blocks.
    An isolated vertex (order 1) forms the single block {0}.

    A worklist of connected pieces, each a union of blocks: a piece splits at
    its first vertex w whose removal disconnects it, into C + w for each
    component C of piece - w, and a piece no vertex splits is a block. A
    vertex that does not split a piece lies in one of its blocks, and so
    does w in each child, so children are scanned only past w.
    """
    if not is_connected(g):
        raise GraphError("block decomposition requires a connected graph")
    masks = g.adjacency_masks
    blocks: list[frozenset[int]] = []
    cuts: set[int] = set()
    pieces = [((1 << g.order) - 1, 0)]
    while pieces:
        piece, start = pieces.pop()
        for w in range(start, g.order):
            rest = piece ^ (1 << w)
            if rest < piece and _masks_reach(masks, rest) != rest:  # w splits the piece
                cuts.add(w)
                pieces.extend((c | (1 << w), w + 1) for c in _components(masks, rest))
                break
        else:
            blocks.append(frozenset(v for v in range(g.order) if (piece >> v) & 1))
    return blocks, frozenset(cuts)


def bridges(g: Graph) -> list[tuple[int, int]]:
    """Edges whose removal disconnects the graph (= two-vertex blocks)."""
    blocks, _ = blocks_and_cut_vertices(g)
    return sorted(tuple(sorted(blk)) for blk in blocks if len(blk) == 2)


def add_edge(g: Graph, u: int, v: int) -> Graph:
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise GraphError(f"self-loop ({u},{v}) is not allowed")
    if g.has_edge(u, v):
        raise EdgeExistsError(f"edge ({u},{v}) already present")
    return Graph(g.order, g.bits | (1 << pair_index(u, v)))


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) not present")
    return Graph(g.order, g.bits & ~(1 << pair_index(u, v)))


def delete_vertices(g: Graph, vs) -> tuple[Graph, dict[int, int]]:
    """Remove the given vertices; survivors are relabeled densely.

    Returns the new graph and the map old id -> new id for surviving
    vertices (survivors keep their relative order).
    """
    doomed = set(vs)
    for v in doomed:
        g._check_vertex(v)
    survivors = [v for v in range(g.order) if v not in doomed]
    if not survivors:
        raise GraphError("cannot delete every vertex")
    relabel = {old: new for new, old in enumerate(survivors)}
    edges = [
        (relabel[u], relabel[v])
        for u, v in g.edges()
        if u in relabel and v in relabel
    ]
    return new_graph(len(survivors), edges), relabel


# ---------------------------------------------------------------------------
# graph6 interchange (single-byte header; orders 1..62)
#
# A graph6 body byte is 63 plus six triangle bits, the lowest index in its
# top bit. Both tables translate one six-bit group (bits >> 6k) & 63 of the
# packed triangle at a time: that group read backwards is the byte's value.

def _reverse6(x: int) -> int:
    return int(f"{x:06b}"[::-1], 2)


_G6_CHAR = [chr(63 + _reverse6(x)) for x in range(64)]
# ASCII body byte -> six-bit group, -1 if invalid (reversal is its own inverse)
_G6_GROUP = [-1] * 63 + [_reverse6(b - 63) for b in range(63, 127)] + [-1]


def graph6_width(n: int) -> int:
    """Length of every graph6 string of order n: a size byte and C(n,2) bits in sixes."""
    return 1 + (n * (n - 1) // 2 + 5) // 6


def to_graph6(g: Graph) -> str:
    return bits_to_graph6(g.order, g.bits)


def bits_to_graph6(n: int, bits: int) -> str:
    """graph6 of the graph on n vertices whose packed triangle is bits, with no Graph built."""
    if n > MAX_GRAPH6_ORDER:
        raise GraphError(f"graph6 output supports order <= {MAX_GRAPH6_ORDER}, got {n}")
    # bits above the triangle are zero, so the last group comes zero padded
    groups = range(0, n * (n - 1) // 2, 6)
    return chr(63 + n) + "".join([_G6_CHAR[(bits >> s) & 63] for s in groups])


def parse_graph6(text: str) -> Graph:
    """Strict graph6 parser: exact length, printable bytes, zero padding."""
    if text == "":
        raise Graph6Error("empty graph6 string", 0)
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII byte", exc.start) from None
    first = data[0]
    if first == 126:
        raise Graph6Error(
            f"multi-byte size header (order > {MAX_GRAPH6_ORDER}) not supported", 0
        )
    if not 63 <= first <= 125:
        raise Graph6Error(f"invalid size byte {first}", 0)
    n = first - 63
    if n == 0:
        raise Graph6Error("graph order must be >= 1", 0)
    nbits = n * (n - 1) // 2
    body_len = (nbits + 5) // 6
    if len(data) - 1 < body_len:
        raise Graph6Error(
            f"truncated body: need {body_len} bytes, have {len(data) - 1}", len(data)
        )
    if len(data) - 1 > body_len:
        raise Graph6Error("trailing garbage after graph6 body", 1 + body_len)
    bits = 0
    for pos in range(1, body_len + 1):
        group = _G6_GROUP[data[pos]]
        if group < 0:
            raise Graph6Error(f"invalid body byte {data[pos]}", pos)
        bits |= group << (6 * pos - 6)
    if bits >> nbits:
        raise Graph6Error("nonzero padding bits", body_len)
    return Graph(n, bits)
