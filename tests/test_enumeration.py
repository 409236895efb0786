import hashlib
import itertools
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resspec.graphs import (
    Graph,
    GraphError,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    delete_vertices,
    is_connected,
    new_graph,
    path_graph,
    to_graph6,
)
from resspec import enumeration
from resspec.enumeration import (
    CONNECTED_CLASS_COUNTS,
    CanonicalCode,
    _CodeSearch,
    _degree_colors,
    _marked_colors,
    _min_labeling,
    _neighbour_degrees,
    _refine_colors,
    _subset_reps,
    _twin_autos,
    are_isomorphic,
    canonical_form,
    canonical_graph,
    canonical_labeling,
    connected_graphs,
    enumerate_connected,
    load_connected_cache,
    save_connected_cache,
)

# connected graph classes by vertex count (published sequence)
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080}


def relabeled(g, perm):
    return new_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges()])


def signature_refinement(n, masks, colors):
    """Reference refinement: ids rank the (color, sorted neighbor colors)
    signatures, and _refine_colors must give the same ids."""
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


def brute_force_class_codes(n):
    """Canonical codes of all connected labeled graphs on n vertices."""
    codes = set()
    for bits in range(1 << (n * (n - 1) // 2)):
        g = Graph(n, bits)
        if is_connected(g):
            codes.add(canonical_form(g))
    return codes


class TestCanonicalForm:
    def test_relabelings_agree(self):
        a = new_graph(3, [(0, 1), (1, 2)])
        b = new_graph(3, [(1, 0), (0, 2)])
        assert canonical_form(a) == canonical_form(b)

    def test_c4_equals_k22(self):
        assert canonical_form(cycle_graph(4)) == canonical_form(complete_bipartite(2, 2))

    def test_p4_differs_from_star(self):
        assert canonical_form(path_graph(4)) != canonical_form(new_graph(4, [(0, 1), (0, 2), (0, 3)]))

    def test_idempotent(self):
        for g in (path_graph(5), complete_bipartite(2, 3), cycle_graph(6)):
            cg = canonical_graph(g)
            assert canonical_graph(cg) == cg
            assert canonical_form(cg) == canonical_form(g)

    def test_labeling_is_consistent(self):
        g = complete_bipartite(2, 3)
        code, perm = canonical_labeling(g)
        assert sorted(perm) == list(range(5))
        assert relabeled(g, perm) == code.graph()

    def test_guard(self):
        with pytest.raises(GraphError, match="order <= 16"):
            canonical_form(Graph(17, 0))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_permutation(self, data):
        n = data.draw(st.integers(1, 7))
        pairs = list(itertools.combinations(range(n), 2))
        picks = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = new_graph(n, [p for p, keep in zip(pairs, picks) if keep])
        perm = data.draw(st.permutations(range(n)))
        assert canonical_form(g) == canonical_form(relabeled(g, list(perm)))

    def test_symmetric_graphs(self):
        # would blow up without orbit pruning
        assert canonical_form(complete_graph(9)).bits == (1 << 36) - 1
        canonical_form(complete_bipartite(4, 5))
        canonical_form(complete_bipartite(3, 6))
        canonical_form(cycle_graph(9))


class TestRefinement:
    def test_matches_the_signature_oracle_on_every_class_up_to_8(self):
        gapped = 0  # non-discrete marked colorings whose ids skip a value
        for n in range(1, 9):
            for g in enumerate_connected(n):
                masks = list(g.adjacency_masks)
                degrees = _degree_colors(n, masks)
                base = _refine_colors(n, masks, degrees)
                assert base == signature_refinement(n, masks, degrees)
                for mark in range(n):
                    start = [0 if v == mark else base[v] + 1 for v in range(n)]
                    got = _marked_colors(n, masks, base, mark)
                    assert got == signature_refinement(n, masks, start)
                    gapped += max(start) >= len(set(start)) and len(set(start)) < n
        assert gapped

    def test_matches_the_signature_oracle_on_random_graphs_up_to_16(self):
        rng = random.Random(16)
        for _ in range(400):
            n = rng.randint(1, 16)
            p = rng.choice((0.15, 0.3, 0.5, 0.8))
            g = new_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            masks = list(g.adjacency_masks)
            degrees = _degree_colors(n, masks)
            assert _refine_colors(n, masks, degrees) == signature_refinement(n, masks, degrees)


class TestOrbitPruning:
    def test_skipped_subsets_give_their_representatives_child(self):
        # a skipped subset's child must be isomorphic to the child of the
        # subset _expand_parent tries in its place
        skipped = 0
        for m in range(1, 8):
            for parent in enumerate_connected(m):
                reps = _subset_reps(m, list(parent.adjacency_masks))
                edges = list(parent.edges())

                def child(s):
                    return new_graph(m + 1, edges + [(x, m) for x in range(m) if (s >> x) & 1])

                for s in range(1, 1 << m):
                    r = reps[s]
                    assert r <= s and reps[r] == r
                    if r != s:
                        skipped += 1
                        assert canonical_form(child(s)) == canonical_form(child(r))
        assert skipped


class TestFirstRoundCut:
    def test_cut_is_sound_and_fires(self):
        # every child _expand_parent refines at orders <= 7, rebuilt here with
        # its degree rule: wherever a same-degree non-cut rival beats v on the
        # sorted neighbour degrees, the full refinement gives it a smaller color
        fired = beaten = 0
        for n in range(2, 8):
            v = n - 1
            for parent in enumerate_connected(n - 1):
                pmasks = list(parent.adjacency_masks)
                reps = _subset_reps(n - 1, pmasks)
                for subset in range(1, 1 << (n - 1)):
                    if reps[subset] != subset:
                        continue
                    masks = [m | (((subset >> u) & 1) << v) for u, m in enumerate(pmasks)]
                    masks.append(subset)
                    child = Graph(n, parent.bits | (subset << (v * (v - 1) // 2)))
                    degs = [m.bit_count() for m in masks]

                    def non_cut(w):
                        return is_connected(delete_vertices(child, [w])[0])

                    if any(degs[w] < degs[v] and non_cut(w) for w in range(v)):
                        continue  # the degree rule, before any refinement
                    rivals = [w for w in range(v) if degs[w] == degs[v] and non_cut(w)]
                    colors = _refine_colors(n, masks, _degree_colors(n, masks))
                    lost = any(colors[w] < colors[v] for w in rivals)
                    mine = _neighbour_degrees(masks[v], degs)
                    cut = any(_neighbour_degrees(masks[w], degs) < mine for w in rivals)
                    assert lost or not cut, (n, parent, subset)
                    if n == 7:
                        fired += cut
                        beaten += lost
        assert (fired, beaten) == (307, 338)


def plain_search(n, masks, colors):
    """Reference minimizer: a _CodeSearch that starts knowing no automorphism."""
    search = _CodeSearch(n, masks, colors)
    search._node(0)
    return search.best, search.best_placed


def assert_matches_plain_search(n, masks, colors):
    got = _min_labeling(n, masks, colors)
    assert (got[0], got[1]) == plain_search(n, masks, colors)
    for a in got[2]:
        assert sorted(a) == list(range(n))
        for x in range(n):
            assert colors[a[x]] == colors[x]
            assert masks[a[x]] == sum(1 << a[y] for y in range(n) if (masks[x] >> y) & 1)


class TestTwinShortcut:
    def test_matches_the_plain_search_on_every_class_up_to_8(self):
        shortcut = searched = 0
        for n in range(1, 9):
            for g in enumerate_connected(n):
                masks = list(g.adjacency_masks)
                base = _refine_colors(n, masks, _degree_colors(n, masks))
                assert_matches_plain_search(n, masks, base)
                marked = [_marked_colors(n, masks, base, mark) for mark in range(n)]
                for colors in marked:
                    assert_matches_plain_search(n, masks, colors)
                    if len(_twin_autos(n, masks, colors)) == n - len(set(colors)):
                        shortcut += len(set(colors)) < n
                    else:
                        searched += 1
        assert shortcut and searched  # both paths are exercised

    def test_matches_the_plain_search_on_random_graphs_up_to_16(self):
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randint(1, 16)
            p = rng.choice((0.15, 0.3, 0.5, 0.8))
            g = new_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            masks = list(g.adjacency_masks)
            base = _refine_colors(n, masks, _degree_colors(n, masks))
            assert_matches_plain_search(n, masks, base)
            mark = rng.randrange(n)
            assert_matches_plain_search(n, masks, _marked_colors(n, masks, base, mark))

    @staticmethod
    def forbid_search(monkeypatch):
        def no_search(*args):
            raise AssertionError("searched a coloring whose cells are twin classes")

        monkeypatch.setattr(enumeration, "_CodeSearch", no_search)

    def test_twin_classes_need_no_search(self, monkeypatch):
        # K_{n,n} is left out: its one cell holds two twin classes
        graphs = [
            complete_bipartite(m, k) for m in range(1, 16) for k in range(1, 17 - m) if m != k
        ]
        graphs += [complete_graph(k) for k in range(1, 17)]
        want = []
        for g in graphs:
            n, masks = g.order, list(g.adjacency_masks)
            _, placed = plain_search(n, masks, _refine_colors(n, masks, _degree_colors(n, masks)))
            want.append(tuple(placed.index(v) for v in range(n)))
        self.forbid_search(monkeypatch)
        for g, perm in zip(graphs, want):
            code, got = canonical_labeling(g)
            assert got == perm
            assert relabeled(g, perm) == code.graph()

    def test_star_subsets_are_grouped_by_their_number_of_leaves(self, monkeypatch):
        self.forbid_search(monkeypatch)  # the twin transpositions alone give the orbits
        for leaves in range(2, 9):  # K_{1,1} = K_2 has no center
            star = complete_bipartite(1, leaves)  # center 0
            reps = _subset_reps(leaves + 1, list(star.adjacency_masks))
            for s in range(1 << (leaves + 1)):
                k = (s >> 1).bit_count()
                assert reps[s] == (s & 1) | (((1 << k) - 1) << 1)


class TestIsomorphism:
    def test_c4_vs_k22(self):
        assert are_isomorphic(cycle_graph(4), complete_bipartite(2, 2))

    def test_p4_vs_star(self):
        assert not are_isomorphic(path_graph(4), new_graph(4, [(0, 1), (0, 2), (0, 3)]))

    def test_random_relabelings(self):
        rng = random.Random(1)
        for _ in range(40):
            n = rng.randint(1, 7)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            g = new_graph(n, edges)
            perm = list(range(n))
            rng.shuffle(perm)
            assert are_isomorphic(g, relabeled(g, perm))

    def test_agreement_with_permutation_search(self):
        def brute_iso(g, h):
            return g.order == h.order and any(
                relabeled(g, list(p)) == h
                for p in itertools.permutations(range(g.order))
            )

        rng = random.Random(8)
        graphs = [Graph(4, rng.randrange(1 << 6)) for _ in range(25)]
        for g, h in itertools.combinations(graphs, 2):
            assert are_isomorphic(g, h) == brute_iso(g, h)


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts(self, n):
        assert sum(1 for _ in enumerate_connected(n)) == CONNECTED_COUNTS[n]

    def test_library_table_is_the_published_sequence(self):
        assert CONNECTED_CLASS_COUNTS == {**CONNECTED_COUNTS, 10: 11716571}

    def test_matches_brute_force_grouping(self):
        for n in range(1, 6):
            enumerated = {canonical_form(g) for g in enumerate_connected(n)}
            assert enumerated == brute_force_class_codes(n)

    def test_emitted_graphs_are_canonical_sorted_unique_connected(self):
        for n in (5, 6):
            graphs = list(enumerate_connected(n))
            codes = [canonical_form(g) for g in graphs]
            assert codes == sorted(codes)
            assert len(set(codes)) == len(codes)
            for g in graphs:
                assert is_connected(g)
                assert canonical_graph(g) == g  # representatives are canonical

    def test_single_vertex(self):
        assert list(enumerate_connected(1)) == [new_graph(1, [])]

    def test_guard(self):
        for n in (0, 11):
            with pytest.raises(GraphError, match=f"1 <= n <= 10, got {n}"):
                list(enumerate_connected(n))

    def test_threaded_output_identical(self):
        serial = [to_graph6(g) for g in enumerate_connected(6)]
        # force a genuine re-run in worker processes
        from resspec import enumeration as mod

        saved = dict(mod._LEVEL_CACHE)
        try:
            mod._LEVEL_CACHE.clear()
            mod._LEVEL_CACHE[1] = array("Q", [0])
            threaded = [to_graph6(g) for g in enumerate_connected(6, threads=2)]
        finally:
            mod._LEVEL_CACHE.clear()
            mod._LEVEL_CACHE.update(saved)
        assert threaded == serial

    def test_generated_level_with_a_missing_class_rejected(self, monkeypatch):
        # one child dropped per parent: level 5 would hold 15 classes, not 21
        from resspec import enumeration as mod

        expand = mod._expand_parent
        monkeypatch.setattr(mod, "_expand_parent", lambda n, pbits: expand(n, pbits)[n == 5:])
        saved = dict(mod._LEVEL_CACHE)
        try:
            mod._LEVEL_CACHE.clear()
            mod._LEVEL_CACHE[1] = array("Q", [0])
            with pytest.raises(GraphError, match="^level 5: 15 classes, expected 21 for n=5$"):
                list(enumerate_connected(5))
        finally:
            mod._LEVEL_CACHE.clear()
            mod._LEVEL_CACHE.update(saved)


class TestCanonicalCode:
    def test_ordering(self):
        assert CanonicalCode(3, 1) < CanonicalCode(3, 5) < CanonicalCode(4, 0)

    def test_graph_roundtrip(self):
        code = canonical_form(complete_bipartite(2, 3))
        assert canonical_form(code.graph()) == code


def _level(n):
    return array("Q", (g.bits for g in enumerate_connected(n)))


class TestCache:
    def test_roundtrip(self, tmp_path):
        level = _level(5)
        save_connected_cache(str(tmp_path), 5, level)
        loaded = load_connected_cache(str(tmp_path), 5)
        assert isinstance(loaded, array) and loaded.typecode == "Q"
        assert loaded == level

    def test_missing_returns_none(self, tmp_path):
        assert load_connected_cache(str(tmp_path), 4) is None

    def test_tampering_detected(self, tmp_path):
        path = save_connected_cache(str(tmp_path), 4, _level(4))
        lines = open(path).read().splitlines()
        lines[0] = to_graph6(path_graph(4))  # swap in a different graph
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(GraphError, match="checksum"):
            load_connected_cache(str(tmp_path), 4)

    @pytest.mark.parametrize("row", ["C", "Bw", "C~"], ids=["truncated", "order-3", "repeated"])
    def test_tampered_bad_row_reported_as_checksum_mismatch(self, tmp_path, row):
        # no row is parsed before the whole file passes its checksum; a file
        # that fails it is reported as changed, whatever its rows say
        path = save_connected_cache(str(tmp_path), 4, _level(4))
        lines = open(path).read().splitlines()
        lines[1] = row
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(GraphError, match="checksum mismatch"):
            load_connected_cache(str(tmp_path), 4)

    def test_trailer_not_last_detected(self, tmp_path):
        path = save_connected_cache(str(tmp_path), 4, _level(4))
        with open(path, "a") as fh:
            fh.write("C~\n")
        with pytest.raises(GraphError, match="missing checksum trailer"):
            load_connected_cache(str(tmp_path), 4)

    def test_missing_trailer_detected(self, tmp_path):
        path = tmp_path / "connected-2.g6"
        path.write_text("A_\n")
        with pytest.raises(GraphError, match="trailer"):
            load_connected_cache(str(tmp_path), 2)

    def test_wrong_count_with_valid_checksum_detected(self, tmp_path):
        path = save_connected_cache(str(tmp_path), 5, _level(5)[:-1])
        payload = "".join(ln + "\n" for ln in open(path).read().splitlines()[:-1])
        assert f"#sha256:{hashlib.sha256(payload.encode('ascii')).hexdigest()}" in open(path).read()
        with pytest.raises(GraphError, match="20 classes, expected 21"):
            load_connected_cache(str(tmp_path), 5)

    def test_graph_of_another_order_with_valid_checksum_detected(self, tmp_path):
        payload = "".join(to_graph6(g) + "\n" for g in enumerate_connected(3))
        digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
        (tmp_path / "connected-4.g6").write_text(f"{payload}#sha256:{digest}\n")
        with pytest.raises(GraphError, match=r"connected-4\.g6:1: contains a graph of order 3, expected 4"):
            load_connected_cache(str(tmp_path), 4)

    @pytest.mark.parametrize("order,line", [
        ([5, 4, 3, 2, 1, 0], 2),
        ([0, 2, 2, 3, 4, 5], 3),  # row 2 replaced by a copy of row 3
    ], ids=["reversed", "repeated"])
    def test_rows_out_of_canonical_order_with_valid_checksum_detected(self, tmp_path, order, line):
        rows = [to_graph6(g) + "\n" for g in enumerate_connected(4)]
        payload = "".join(rows[i] for i in order)
        digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
        (tmp_path / "connected-4.g6").write_text(f"{payload}#sha256:{digest}\n")
        with pytest.raises(GraphError, match=f"connected-4.g6:{line}: rows not strictly ascending"):
            load_connected_cache(str(tmp_path), 4)

    def test_bad_row_named_by_file_and_line(self, tmp_path):
        rows = [to_graph6(g) for g in enumerate_connected(4)]
        rows[1] = rows[1][:-1]  # row 2 truncated
        payload = "".join(row + "\n" for row in rows)
        digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
        (tmp_path / "connected-4.g6").write_text(f"{payload}#sha256:{digest}\n")
        with pytest.raises(GraphError, match=r"connected-4\.g6:2: truncated body"):
            load_connected_cache(str(tmp_path), 4)

    def test_non_ascii_byte_reported_as_checksum_mismatch(self, tmp_path):
        # the checksum is taken over the bytes, before any row is decoded
        path = save_connected_cache(str(tmp_path), 4, _level(4))
        data = bytearray(open(path, "rb").read())
        data[1] = 0xFF
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(GraphError, match=r"connected-4\.g6: checksum mismatch"):
            load_connected_cache(str(tmp_path), 4)

    def test_non_ascii_row_with_valid_checksum_named_by_file_and_line(self, tmp_path):
        rows = [to_graph6(g).encode("ascii") + b"\n" for g in enumerate_connected(4)]
        rows[2] = b"C\xe9\n"
        payload = b"".join(rows)
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        (tmp_path / "connected-4.g6").write_bytes(payload + b"#sha256:" + digest + b"\n")
        with pytest.raises(GraphError, match=r"connected-4\.g6:3: non-ASCII byte"):
            load_connected_cache(str(tmp_path), 4)

    def test_connected_graphs_uses_cache(self, tmp_path):
        first = list(connected_graphs(4, cache_dir=str(tmp_path)))
        assert (tmp_path / "connected-4.g6").exists()
        assert list(connected_graphs(4, cache_dir=str(tmp_path))) == first
        again = connected_graphs(4, cache_dir=str(tmp_path))
        assert iter(again) is again  # an iterator, as without a cache

    def test_connected_graphs_streams_without_a_cache(self):
        # `enumerate 9` would otherwise hold all 261,080 Graph objects at once
        graphs = connected_graphs(4)
        assert not isinstance(graphs, list)
        assert list(graphs) == list(enumerate_connected(4))
