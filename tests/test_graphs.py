import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resspec.graphs import (
    EdgeExistsError,
    Graph,
    Graph6Error,
    GraphError,
    _masks_reach,
    add_edge,
    blocks_and_cut_vertices,
    bridges,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    delete_edge,
    delete_vertices,
    is_connected,
    new_graph,
    pair_index,
    parse_graph6,
    path_graph,
    to_graph6,
)


def graphs_strategy(max_n=7):
    def build(n, picks):
        pairs = list(itertools.combinations(range(n), 2))
        return new_graph(n, [p for p, keep in zip(pairs, picks) if keep])
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                                 max_size=n * (n - 1) // 2)
        )
    ).map(lambda t: build(*t))


class TestConstruction:
    def test_single_edge(self):
        g = new_graph(2, [(0, 1)])
        assert g.order == 2 and g.size == 1 and g.has_edge(0, 1)

    def test_path(self):
        g = new_graph(3, [(0, 1), (1, 2)])
        assert g.size == 2 and not g.has_edge(0, 2)

    def test_duplicate_edges_collapse(self):
        g = new_graph(4, [(0, 1), (0, 1)])
        assert g.order == 4 and g.size == 1

    def test_reversed_pair_is_same_edge(self):
        assert new_graph(3, [(2, 0)]) == new_graph(3, [(0, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="outside"):
            new_graph(3, [(0, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            new_graph(3, [(1, 1)])

    def test_rejects_empty_order(self):
        with pytest.raises(GraphError):
            new_graph(0, [])


class TestCompleteBipartite:
    def test_k11_is_single_edge(self):
        assert complete_bipartite(1, 1) == new_graph(2, [(0, 1)])

    def test_k23_shape(self):
        g = complete_bipartite(2, 3)
        assert g.order == 5 and g.size == 6
        assert sorted(g.degree(v) for v in range(5)) == [2, 2, 2, 3, 3]
        # no intra-part edges
        assert not g.has_edge(0, 1)
        assert not any(g.has_edge(u, v) for u, v in itertools.combinations((2, 3, 4), 2))

    def test_k33_regular(self):
        g = complete_bipartite(3, 3)
        assert g.size == 9 and all(g.degree(v) == 3 for v in range(6))

    def test_connected(self):
        assert is_connected(complete_bipartite(4, 2))

    def test_zero_part_rejected(self):
        with pytest.raises(GraphError):
            complete_bipartite(0, 3)


class TestQueries:
    def test_connectivity(self):
        assert is_connected(new_graph(2, [(0, 1)]))
        assert not is_connected(new_graph(2, []))
        assert is_connected(complete_bipartite(2, 3))

    def test_degrees_and_neighbors(self):
        p3 = path_graph(3)
        assert p3.degree(1) == 2 and p3.neighbors(1) == frozenset({0, 2})
        assert p3.degree(0) == 1
        k2 = new_graph(2, [(0, 1)])
        assert k2.degree(0) == k2.degree(1) == 1

    def test_invalid_vertex(self):
        with pytest.raises(GraphError):
            path_graph(3).degree(3)

    @given(graphs_strategy())
    def test_degree_sum_is_twice_edges(self, g):
        assert sum(g.degree(v) for v in range(g.order)) == 2 * g.size

    @given(graphs_strategy(max_n=12))
    def test_masks_and_edges_agree_with_the_packed_bits(self, g):
        n = g.order
        for u in range(n):
            assert g.adjacency_masks[u] == sum(1 << v for v in range(n) if g.has_edge(u, v))
        packed = [(i, j) for i, j in itertools.combinations(range(n), 2) if g.has_edge(i, j)]
        assert g.edges() == sorted(packed, key=lambda e: pair_index(*e))


def _blocks_by_definition(g):
    """Maximal vertex sets S, |S| >= 2 (or K_1's one vertex), such that G[S] is
    connected and no vertex of S disconnects it, by brute force over subsets."""
    masks = g.adjacency_masks

    def connected(s):
        return _masks_reach(masks, s) == s

    good = [
        s for s in range(1, 1 << g.order)
        if (s & (s - 1) or g.order == 1) and connected(s)
        and all(connected(s ^ (1 << v)) for v in range(g.order) if (s >> v) & 1)
    ]
    maximal = []
    for s in sorted(good, key=int.bit_count, reverse=True):
        if not any(s & t == s for t in maximal):
            maximal.append(s)
    return sorted(sorted(v for v in range(g.order) if (s >> v) & 1) for s in maximal)


class TestBlocks:
    def test_path(self):
        blocks, cuts = blocks_and_cut_vertices(path_graph(3))
        assert sorted(map(sorted, blocks)) == [[0, 1], [1, 2]]
        assert cuts == {1}

    def test_cycle(self):
        blocks, cuts = blocks_and_cut_vertices(cycle_graph(4))
        assert [sorted(b) for b in blocks] == [[0, 1, 2, 3]] and not cuts

    def test_triangle_with_pendant(self):
        g = new_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        blocks, cuts = blocks_and_cut_vertices(g)
        assert sorted(map(sorted, blocks)) == [[0, 1, 2], [0, 3]]
        assert cuts == {0}

    def test_single_vertex(self):
        blocks, cuts = blocks_and_cut_vertices(new_graph(1, []))
        assert blocks == [frozenset({0})] and not cuts

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            blocks_and_cut_vertices(new_graph(3, [(0, 1)]))

    def test_bridges(self):
        g = new_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        assert bridges(g) == [(0, 3)]
        assert bridges(cycle_graph(5)) == []

    def test_block_properties_exhaustive_small(self):
        # edges partition into blocks; cut vertices disconnect, others do not
        from resspec.enumeration import enumerate_connected

        for n in range(2, 6):
            for g in enumerate_connected(n):
                blocks, cuts = blocks_and_cut_vertices(g)
                edge_cover = sorted(
                    (u, v)
                    for blk in blocks
                    for u, v in itertools.combinations(sorted(blk), 2)
                    if g.has_edge(u, v)
                )
                assert edge_cover == sorted(g.edges())
                block_count = {v: sum(v in b for b in blocks) for v in range(n)}
                for v in range(n):
                    survives, _ = delete_vertices(g, [v])
                    assert is_connected(survives) == (v not in cuts)
                    assert (block_count[v] >= 2) == (v in cuts)

    def test_blocks_are_the_maximal_sets_without_a_cut_vertex(self):
        from resspec.enumeration import enumerate_connected

        for n in range(1, 8):
            for g in enumerate_connected(n):
                blocks, cuts = blocks_and_cut_vertices(g)
                expected = _blocks_by_definition(g)
                assert sorted(map(sorted, blocks)) == expected
                assert cuts == {v for v in range(n) if sum(v in b for b in expected) >= 2}

    def test_long_path_splits_into_its_edges(self):
        blocks, cuts = blocks_and_cut_vertices(path_graph(1000))
        assert sorted(map(sorted, blocks)) == [[i, i + 1] for i in range(999)]
        assert cuts == set(range(1, 999))

    def test_masks_reach_misses_part_of_the_rest_exactly_at_cut_vertices(self):
        from resspec.enumeration import enumerate_connected

        for n in range(1, 8):
            full = (1 << n) - 1
            for g in enumerate_connected(n):
                _, cuts = blocks_and_cut_vertices(g)
                split = {
                    w for w in range(n)
                    if _masks_reach(g.adjacency_masks, full ^ (1 << w)) != full ^ (1 << w)
                }
                assert split == cuts


class TestMutators:
    def test_add_edge_makes_triangle(self):
        g = add_edge(path_graph(3), 0, 2)
        assert g.size == 3

    def test_add_existing_edge_distinguishable(self):
        with pytest.raises(EdgeExistsError):
            add_edge(path_graph(3), 0, 1)
        # the signal is distinguishable from generic failures
        assert issubclass(EdgeExistsError, GraphError)

    def test_delete_edge(self):
        g = delete_edge(cycle_graph(4), 0, 1)
        assert g.size == 3 and is_connected(g)

    def test_delete_missing_edge(self):
        with pytest.raises(GraphError):
            delete_edge(path_graph(3), 0, 2)

    def test_delete_vertices_relabels(self):
        g, relabel = delete_vertices(complete_bipartite(2, 3), [0, 1])
        assert g.order == 3 and g.size == 0
        assert relabel == {2: 0, 3: 1, 4: 2}

    def test_delete_all_rejected(self):
        with pytest.raises(GraphError):
            delete_vertices(path_graph(2), [0, 1])

    def test_originals_untouched(self):
        g = path_graph(3)
        add_edge(g, 0, 2)
        delete_edge(g, 0, 1)
        assert g == path_graph(3)


class TestGraph6:
    def test_k2_is_A_underscore(self):
        assert to_graph6(new_graph(2, [(0, 1)])) == "A_"
        assert parse_graph6("A_") == new_graph(2, [(0, 1)])

    def test_single_vertex(self):
        assert to_graph6(new_graph(1, [])) == "@"
        assert parse_graph6("@") == new_graph(1, [])

    def test_empty_string(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")

    def test_trailing_garbage_offset(self):
        good = to_graph6(cycle_graph(4))
        with pytest.raises(Graph6Error, match="trailing garbage"):
            parse_graph6(good + "x")

    def test_truncated(self):
        with pytest.raises(Graph6Error, match="truncated"):
            parse_graph6("D")

    def test_bad_byte(self):
        with pytest.raises(Graph6Error, match="invalid"):
            parse_graph6("B\x07")

    def test_non_ascii_rejected_not_coerced(self):
        with pytest.raises(Graph6Error, match="non-ASCII"):
            parse_graph6("Aé")

    def test_large_order_header_rejected(self):
        with pytest.raises(Graph6Error, match="not supported"):
            parse_graph6("~??")

    def test_order_63_rejected_on_encode(self):
        with pytest.raises(GraphError):
            to_graph6(Graph(63, 0))

    def test_nonzero_padding_rejected(self):
        # order 2 uses 1 data bit; set a padding bit in the body byte
        with pytest.raises(Graph6Error, match="padding"):
            parse_graph6("A" + chr(63 + 0b010000))

    @given(graphs_strategy())
    @settings(max_examples=200)
    def test_roundtrip(self, g):
        assert parse_graph6(to_graph6(g)) == g

    def test_string_roundtrip_on_canonical_forms(self):
        from resspec.enumeration import enumerate_connected

        for n in range(1, 6):
            for g in enumerate_connected(n):
                s = to_graph6(g)
                assert to_graph6(parse_graph6(s)) == s

    def test_order_62_roundtrip(self):
        g = new_graph(62, [(0, 61), (30, 31)])
        assert parse_graph6(to_graph6(g)) == g

    @given(st.integers(1, 62).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1))))
    @settings(max_examples=300)
    def test_table_codec_matches_the_bit_loop(self, order_bits):
        n, bits = order_bits
        nbits = n * (n - 1) // 2
        # reference encoder: the triangle one bit at a time, six to a byte
        chars = [chr(63 + n)]
        for start in range(0, nbits, 6):
            group = 0
            for idx in range(start, start + 6):
                group = (group << 1) | ((bits >> idx) & 1 if idx < nbits else 0)
            chars.append(chr(63 + group))
        text = "".join(chars)
        assert to_graph6(Graph(n, bits)) == text
        assert parse_graph6(text) == Graph(n, bits)


def test_repr_mentions_graph6():
    assert "graph6" in repr(complete_graph(3))
