"""Simple undirected graphs as immutable bit-packed values.

Vertices are dense integers 0..n-1. Adjacency is stored as one arbitrary
precision integer holding the upper triangle of the adjacency matrix in
column-major order (the graph6 bit order): the bit for the pair (i, j)
with i < j sits at index j*(j-1)//2 + i. Graphs compare and hash by value,
so they can be shared freely between workers and used as dict keys.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

VertexId = int

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
        n = self.order
        masks = [0] * n
        bits = self.bits
        idx = 0
        for j in range(1, n):
            for i in range(j):
                if (bits >> idx) & 1:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
                idx += 1
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
        return bin(self.bits).count("1")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        return (self.bits >> pair_index(u, v)) & 1 == 1

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return bin(self.adjacency_masks[v]).count("1")

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(self.neighbor_lists[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in packed bit order."""
        out = []
        bits = self.bits
        idx = 0
        for j in range(1, self.order):
            for i in range(j):
                if (bits >> idx) & 1:
                    out.append((i, j))
                idx += 1
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
    return _masks_connected(g.order, g.adjacency_masks)


def _masks_connected(n: int, masks) -> bool:
    # bitmask BFS: expand the reached set until it stops growing
    reached = 1
    frontier = 1
    full = (1 << n) - 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            nxt |= masks[b.bit_length() - 1]
            m ^= b
        frontier = nxt & ~reached
        reached |= frontier
        if reached == full:
            return True
    return reached == full


def find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def degree(g: Graph, v: int) -> int:
    return g.degree(v)


def neighbors(g: Graph, v: int) -> frozenset[int]:
    return g.neighbors(v)


def blocks_and_cut_vertices(g: Graph) -> tuple[list[frozenset[int]], frozenset[int]]:
    """Block decomposition of a connected graph.

    Returns (blocks, cuts) where each block is the vertex set of a
    maximal subgraph without a cut vertex; every edge belongs to exactly one
    block, and a vertex is a cut vertex iff it lies in at least two blocks.
    An isolated vertex (order 1) forms the single block {0}.
    """
    if not is_connected(g):
        raise GraphError("block decomposition requires a connected graph")
    n = g.order
    if n == 1:
        return [frozenset({0})], frozenset()

    adj = g.neighbor_lists
    disc = [0] * n          # 0 means unvisited; discovery times start at 1
    low = [0] * n
    blocks: list[frozenset[int]] = []
    cuts: set[int] = set()
    edge_stack: list[tuple[int, int]] = []
    timer = 1

    # iterative Hopcroft-Tarjan; stack entries are (v, parent, neighbor index)
    disc[0] = low[0] = timer
    timer += 1
    stack = [(0, -1, 0)]
    root_children = 0
    while stack:
        v, parent, i = stack.pop()
        advanced = False
        while i < len(adj[v]):
            w = adj[v][i]
            i += 1
            if w == parent:
                continue
            if disc[w] == 0:
                if v == 0:
                    root_children += 1
                edge_stack.append((v, w))
                disc[w] = low[w] = timer
                timer += 1
                stack.append((v, parent, i))
                stack.append((w, v, 0))
                advanced = True
                break
            if disc[w] < disc[v]:
                edge_stack.append((v, w))
                low[v] = min(low[v], disc[w])
        if advanced:
            continue
        if parent != -1:
            # v is fully explored; fold into parent
            if low[v] >= disc[parent]:
                members: set[int] = set()
                while True:
                    a, b = edge_stack.pop()
                    members.add(a)
                    members.add(b)
                    if (a, b) == (parent, v):
                        break
                blocks.append(frozenset(members))
                if parent != 0:
                    cuts.add(parent)
            low[parent] = min(low[parent], low[v])
    if root_children >= 2:
        cuts.add(0)
    return blocks, frozenset(cuts)


def bridges(g: Graph) -> list[tuple[int, int]]:
    """Edges whose removal disconnects the graph (= two-vertex blocks)."""
    blocks, _ = blocks_and_cut_vertices(g)
    out = []
    for blk in blocks:
        if len(blk) == 2:
            u, v = sorted(blk)
            if g.has_edge(u, v):
                out.append((u, v))
    return sorted(out)


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

def to_graph6(g: Graph) -> str:
    if g.order > MAX_GRAPH6_ORDER:
        raise GraphError(
            f"graph6 output supports order <= {MAX_GRAPH6_ORDER}, got {g.order}"
        )
    n = g.order
    nbits = n * (n - 1) // 2
    chars = [chr(63 + n)]
    # upper triangle, column-major, packed into 6-bit groups, zero padded
    for start in range(0, nbits, 6):
        group = 0
        for k in range(6):
            idx = start + k
            bit = (g.bits >> idx) & 1 if idx < nbits else 0
            group = (group << 1) | bit
        chars.append(chr(63 + group))
    return "".join(chars)


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
    for pos in range(body_len):
        byte = data[1 + pos]
        if not 63 <= byte <= 126:
            raise Graph6Error(f"invalid body byte {byte}", 1 + pos)
        group = byte - 63
        for k in range(6):
            idx = pos * 6 + k
            bit = (group >> (5 - k)) & 1
            if idx < nbits:
                bits |= bit << idx
            elif bit:
                raise Graph6Error("nonzero padding bits", 1 + pos)
    return Graph(n, bits)


def sha256_hex(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()
