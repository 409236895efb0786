import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resspec.enumeration import enumerate_connected
from resspec.graphs import (
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
    resistance,
    resistance_by_forest_enumeration,
    resistance_diameter,
    resistance_matrix,
    resistance_spectrum,
    spanning_tree_count,
    spanning_tree_count_by_enumeration,
)


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


def random_graph(rng, n, p=0.5):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return new_graph(n, edges)


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


class TestBareissVsCofactor:
    def test_all_connected_graphs_up_to_6(self):
        for n in range(1, 7):
            for g in enumerate_connected(n):
                L = laplacian(g)
                reduced = [row[1:] for row in L[1:]]
                assert spanning_tree_count(g) == cofactor_determinant(reduced)


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
