import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resspec.enumeration import enumerate_connected
from resspec.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    new_graph,
    path_graph,
    is_connected,
)
from resspec.resistance import (
    DisconnectedError,
    ResistanceSpectrum,
    format_rational,
    kmn_spectrum_closed_form,
    laplacian,
    parse_rational,
    reduced_adjugate,
    resistance,
    resistance_diameter,
    resistance_matrix,
    resistance_rows,
    resistance_spectrum,
    spanning_tree_count,
    spectrum_json,
)

from oracles import resistance_by_forest_enumeration, spanning_tree_count_by_enumeration


def cofactor_determinant(m):
    """Naive Laplace expansion along the first row (test oracle)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_determinant(minor)
    return total


def cofactor_adjugate(m):
    """adj[i][j] = (-1)^(i+j) * det(m without row j and column i) (test oracle)."""
    n = len(m)
    return [
        [
            (-1) ** (i + j) * cofactor_determinant(
                [row[:i] + row[i + 1:] for k, row in enumerate(m) if k != j]
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


def gauss_jordan_adjugate(m):
    """(det * inverse, det) by Fraction Gauss-Jordan elimination with row swaps (test oracle)."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    det = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    assert det.denominator == 1
    return [[det * x for x in row[n:]] for row in a], int(det)


def random_graph(rng, n, p=0.5):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return new_graph(n, edges)


def random_connected_graph(rng, n, p=0.35):
    while True:
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g


def random_weighted_laplacian(rng, n, top=6):
    """Integer Laplacian of a connected multigraph with conductances 1..top."""
    L = [[0] * n for _ in range(n)]
    edges = [(rng.randrange(v), v) for v in range(1, n)]  # a spanning tree
    edges += [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
    for u, v in edges:
        w = rng.randint(1, top)
        L[u][v] -= w
        L[v][u] -= w
        L[u][u] += w
        L[v][v] += w
    return L


class TestLaplacian:
    def test_k2(self):
        assert laplacian(new_graph(2, [(0, 1)])) == [[1, -1], [-1, 1]]

    def test_triangle(self):
        L = laplacian(complete_graph(3))
        assert all(L[i][i] == 2 for i in range(3))
        assert all(L[i][j] == -1 for i in range(3) for j in range(3) if i != j)

    def test_rows_sum_to_zero_and_symmetric(self):
        L = laplacian(complete_bipartite(2, 3))
        assert all(sum(row) == 0 for row in L)
        assert all(L[i][j] == L[j][i] for i in range(5) for j in range(5))

    @staticmethod
    def laplacian_from_edges(g):
        L = [[0] * g.order for _ in range(g.order)]
        for u, v in g.edges():
            L[u][v] = L[v][u] = -1
            L[u][u] += 1
            L[v][v] += 1
        return L

    def test_packed_triangle_read_matches_the_edge_list(self):
        # every class of order <= 6, then random graphs, edgeless ones included
        graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
        rng = random.Random(20)
        for n in range(1, 17):
            graphs.append(new_graph(n, []))
            graphs += [random_graph(rng, n, p) for p in (0.2, 0.5, 0.8)]
        for g in graphs:
            assert laplacian(g) == self.laplacian_from_edges(g), g


class TestSpanningTreeCount:
    def test_trees_have_one(self):
        assert spanning_tree_count(path_graph(4)) == 1
        assert spanning_tree_count(new_graph(4, [(0, 1), (0, 2), (0, 3)])) == 1

    def test_c4(self):
        assert spanning_tree_count(cycle_graph(4)) == 4
        assert spanning_tree_count_by_enumeration(cycle_graph(4)) == 4

    def test_k23(self):
        assert spanning_tree_count(complete_bipartite(2, 3)) == 12
        assert spanning_tree_count_by_enumeration(complete_bipartite(2, 3)) == 12

    def test_disconnected_is_zero(self):
        assert spanning_tree_count(new_graph(3, [(0, 1)])) == 0

    def test_single_vertex(self):
        assert spanning_tree_count(new_graph(1, [])) == 1

    def test_matches_enumeration_oracle_randomized(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 6))
            assert spanning_tree_count(g) == spanning_tree_count_by_enumeration(g)


class TestAdjugateVsCofactor:
    def test_all_connected_graphs_up_to_6(self):
        for n in range(1, 7):
            for g in enumerate_connected(n):
                L = laplacian(g)
                reduced = [row[1:] for row in L[1:]]
                assert spanning_tree_count(g) == cofactor_determinant(reduced)

    @staticmethod
    def assert_adjugate_matches_cofactors(L):
        minor = [row[:-1] for row in L[:-1]]
        assert reduced_adjugate(L) == (cofactor_adjugate(minor), cofactor_determinant(minor))

    def test_adjugate_on_all_connected_graphs_up_to_6(self):
        for n in range(1, 7):
            for g in enumerate_connected(n):
                self.assert_adjugate_matches_cofactors(laplacian(g))

    def test_adjugate_on_random_weighted_laplacians(self):
        rng = random.Random(29)
        for n in range(2, 10):
            for _ in range(6):
                self.assert_adjugate_matches_cofactors(random_weighted_laplacian(rng, n))

    def test_adjugate_of_disconnected_laplacian_raises(self):
        with pytest.raises(DisconnectedError):
            reduced_adjugate(laplacian(new_graph(4, [(0, 1), (2, 3)])))

    def test_adjugate_raises_exactly_on_disconnected_labelled_graphs_up_to_5(self):
        # the engine is the only connectivity gate of resistance(), the matrix,
        # the spectrum key and spanning_tree_count, so it must refuse every
        # disconnected graph, and the tree count is 0 exactly there
        checked = 0
        for n in range(1, 6):
            for bits in range(1 << (n * (n - 1) // 2)):
                g = Graph(n, bits)
                try:
                    reduced_adjugate(laplacian(g))
                    raised = False
                except DisconnectedError:
                    raised = True
                assert raised == (not is_connected(g)), g
                assert (spanning_tree_count(g) == 0) == (not is_connected(g)), g
                checked += 1
        assert checked == 1 + 2 + 8 + 64 + 1024

    def test_adjugate_beyond_the_cofactor_range(self):
        # orders 10-15 with conductances up to 10**20: multi-limb integers,
        # where every exact division of the bordering has to come out whole
        rng = random.Random(31)
        for n in range(10, 16):
            for _ in range(2):
                L = random_weighted_laplacian(rng, n, top=10**20)
                assert reduced_adjugate(L) == gauss_jordan_adjugate([row[:-1] for row in L[:-1]])

    @staticmethod
    def with_isolated_vertex(L, v):
        """L with a new vertex v, on no edge, inserted before vertex v."""
        L = [row[:v] + [0] + row[v:] for row in L]
        return L[:v] + [[0] * len(L[0])] + L[v:]

    def test_gate_fires_at_the_first_block(self):
        # vertex 0 alone: the 1 x 1 leading block is already singular
        L = random_weighted_laplacian(random.Random(37), 9, top=10**20)
        with pytest.raises(DisconnectedError):
            reduced_adjugate(self.with_isolated_vertex(L, 0))

    def test_gate_fires_at_the_last_block(self):
        # only vertex n-2 alone, the last row of the minor: every smaller
        # leading block is the minor of the connected rest, which passes
        rng = random.Random(41)
        for n in range(3, 12):
            rest = random_weighted_laplacian(rng, n - 1, top=10**20)
            reduced_adjugate(rest)
            with pytest.raises(DisconnectedError):
                reduced_adjugate(self.with_isolated_vertex(rest, n - 2))


class TestResistance:
    def test_k23_cross_pair(self):
        assert resistance(complete_bipartite(2, 3), 0, 2) == Fraction(2, 3)

    def test_k2(self):
        assert resistance(new_graph(2, [(0, 1)]), 0, 1) == 1

    def test_p3_endpoints(self):
        assert resistance(path_graph(3), 0, 2) == 2

    def test_same_vertex_rejected(self):
        with pytest.raises(Exception, match="distinct"):
            resistance(path_graph(3), 1, 1)

    def test_disconnected(self):
        with pytest.raises(DisconnectedError, match="infinite resistance"):
            resistance(new_graph(3, [(0, 1)]), 0, 2)

    def test_symmetry_and_positivity_exhaustive(self):
        for n in range(2, 6):
            for g in enumerate_connected(n):
                for u, v in itertools.combinations(range(n), 2):
                    r = resistance(g, u, v)
                    assert r == resistance(g, v, u) > 0

    def test_denominator_independent_of_deleted_vertex(self):
        # the engine deletes the last vertex; swapping u into that slot
        # deletes u instead, and the count must not change
        for g in enumerate_connected(5):
            counts = set()
            for u in range(5):
                swap = {u: 4, 4: u}
                relabeled = new_graph(
                    5, [(swap.get(a, a), swap.get(b, b)) for a, b in g.edges()]
                )
                counts.add(spanning_tree_count(relabeled))
            assert len(counts) == 1

    def test_forest_oracle_agreement_randomized(self):
        rng = random.Random(23)
        checked = 0
        while checked < 30:
            g = random_graph(rng, rng.randint(2, 6))
            if not is_connected(g):
                continue
            u, v = rng.sample(range(g.order), 2)
            assert resistance(g, u, v) == resistance_by_forest_enumeration(g, u, v)
            checked += 1


class TestResistanceMatrix:
    def test_c4_values(self):
        rm = resistance_matrix(cycle_graph(4))
        assert rm.value(0, 1) == Fraction(3, 4)
        assert rm.value(0, 2) == Fraction(1)
        assert rm.value(1, 3) == Fraction(1)

    def test_k2(self):
        rm = resistance_matrix(new_graph(2, [(0, 1)]))
        assert rm.rows == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))

    def test_tree_entries_are_path_lengths(self):
        rm = resistance_matrix(path_graph(5))
        for u, v in itertools.combinations(range(5), 2):
            assert rm.value(u, v) == abs(u - v)

    def test_matches_pairwise_resistance_exhaustive(self):
        for n in range(2, 6):
            for g in enumerate_connected(n):
                rm = resistance_matrix(g)
                for u, v in itertools.combinations(range(n), 2):
                    assert rm.value(u, v) == resistance_by_forest_enumeration(g, u, v)

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            resistance_matrix(new_graph(2, []))

    def test_rows_are_the_resistance_rows_exhaustive_up_to_seven(self):
        for n in range(1, 8):
            for g in enumerate_connected(n):
                rm = resistance_matrix(g)
                assert rm.rows == tuple(map(tuple, resistance_rows(laplacian(g))))
                assert rm.det == spanning_tree_count(g)

    def test_numerators_share_the_spanning_tree_count(self):
        rm = resistance_matrix(cycle_graph(4))
        assert rm.det == 4 and rm.nums[0][1] == 3 and rm.nums[0][2] == 4
        assert [r for _, _, r in rm.pairs()] == [rm.value(u, v) for u, v in
                                                 itertools.combinations(range(4), 2)]


class TestSpectrum:
    def test_k23(self):
        assert resistance_spectrum(complete_bipartite(2, 3)).entries == (
            (Fraction(2, 3), 7),
            (Fraction(1), 3),
        )

    def test_k2(self):
        assert resistance_spectrum(new_graph(2, [(0, 1)])).entries == ((Fraction(1), 1),)

    def test_p3(self):
        assert resistance_spectrum(path_graph(3)).entries == (
            (Fraction(1), 2),
            (Fraction(2), 1),
        )

    def test_total_multiplicity_exhaustive(self):
        for n in range(1, 6):
            for g in enumerate_connected(n):
                assert resistance_spectrum(g).total_multiplicity == n * (n - 1) // 2

    def test_entries_strictly_increasing_validated(self):
        with pytest.raises(ValueError):
            ResistanceSpectrum(((Fraction(2), 1), (Fraction(1), 1)))
        with pytest.raises(ValueError):
            ResistanceSpectrum(((Fraction(1), 0),))

    def test_json_roundtrip(self):
        s = resistance_spectrum(complete_bipartite(2, 3))
        assert s.to_json() == '[["2/3",7],["1",3]]'
        assert ResistanceSpectrum.from_json(s.to_json()) == s


class TestIntegerSpectrum:
    def test_matches_forest_oracle_up_to_5(self):
        for n in range(2, 6):
            for g in enumerate_connected(n):
                oracle = ResistanceSpectrum.from_values(
                    resistance_by_forest_enumeration(g, u, v)
                    for u, v in itertools.combinations(range(n), 2)
                )
                assert resistance_spectrum(g) == oracle
                assert spectrum_json(g) == oracle.to_json()

    def test_matches_resistance_spectrum_on_every_class_up_to_7(self):
        # both read the integer runs, so each is held against the Fraction pairs
        for n in range(1, 8):
            for g in enumerate_connected(n):
                pairs = (r for _, _, r in resistance_matrix(g).pairs())
                oracle = ResistanceSpectrum.from_values(pairs)
                assert resistance_spectrum(g) == oracle
                assert spectrum_json(g) == oracle.to_json()

    def test_matches_matrix_pairs_on_random_graphs_9_to_12(self):
        rng = random.Random(53)
        for n in range(9, 13):
            for _ in range(8):
                g = random_connected_graph(rng, n)
                pairs = (r for _, _, r in resistance_matrix(g).pairs())
                oracle = ResistanceSpectrum.from_values(pairs)
                assert resistance_spectrum(g) == oracle
                assert spectrum_json(g) == oracle.to_json()

    def test_single_vertex_is_empty(self):
        assert spectrum_json(new_graph(1, [])) == "[]"

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            spectrum_json(new_graph(3, [(0, 1)]))


class TestDiameter:
    def test_k23(self):
        assert resistance_diameter(complete_bipartite(2, 3)) == 1

    def test_p4(self):
        assert resistance_diameter(path_graph(4)) == 3

    def test_k4(self):
        assert resistance_diameter(complete_graph(4)) == Fraction(1, 2)


class TestClosedForm:
    def test_k23(self):
        assert kmn_spectrum_closed_form(2, 3).entries == (
            (Fraction(2, 3), 7),
            (Fraction(1), 3),
        )

    def test_balanced_three(self):
        assert kmn_spectrum_closed_form(3, 3).entries == (
            (Fraction(5, 9), 9),
            (Fraction(2, 3), 6),
        )

    def test_k11(self):
        assert kmn_spectrum_closed_form(1, 1).entries == ((Fraction(1), 1),)

    def test_star_drops_zero_multiplicity(self):
        # one part of size 1 contributes no same-part pairs
        spec = kmn_spectrum_closed_form(1, 4)
        assert spec.total_multiplicity == 10
        assert all(m > 0 for _, m in spec.entries)

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 6) for n in range(m, 6)])
    def test_matches_direct_computation(self, m, n):
        assert resistance_spectrum(complete_bipartite(m, n)) == kmn_spectrum_closed_form(m, n)


class TestRationalFormat:
    def test_integer_prints_bare(self):
        assert format_rational(Fraction(4, 4)) == "1"
        assert format_rational(Fraction(-3, 1)) == "-3"

    def test_fraction(self):
        assert format_rational(Fraction(2, 3)) == "2/3"

    def test_to_json_is_compact_json_of_formatted_values(self):
        s = ResistanceSpectrum(
            ((Fraction(-3), 1), (Fraction(1, 7), 2), (Fraction(1), 3), (Fraction(22, 3), 4))
        )
        want = json.dumps([[format_rational(v), m] for v, m in s.entries], separators=(",", ":"))
        assert s.to_json() == want == '[["-3",1],["1/7",2],["1",3],["22/3",4]]'

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    @settings(max_examples=100)
    def test_roundtrip(self, a, b):
        q = Fraction(a, b)
        assert parse_rational(format_rational(q)) == q

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_rational("2/3/4")
        with pytest.raises(ValueError):
            parse_rational("1/0")
