import operator
from fractions import Fraction

import pytest

from resspec.graphs import (
    GraphError,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    new_graph,
    path_graph,
)
from resspec.lemmas import (
    LEMMA_IDS,
    CheckReport,
    Witness,
    check_cut_additivity,
    check_cycle_bound,
    check_foster,
    check_local_sum,
    check_lower_bound,
    check_rayleigh,
    check_triangle,
    run_all_checks,
    summary_to_json,
)
from resspec.resistance import resistance


class TestTriangle:
    def test_p3_equality_case(self):
        assert check_triangle(path_graph(3)).passed
        # the series case is tight: 1 + 1 = 2
        g = path_graph(3)
        assert resistance(g, 0, 1) + resistance(g, 1, 2) == resistance(g, 0, 2)

    def test_k23_all_triples(self):
        assert check_triangle(complete_bipartite(2, 3)).passed

    def test_disconnected_rejected(self):
        with pytest.raises(Exception, match="connected"):
            check_triangle(new_graph(3, [(0, 1)]))


class TestFoster:
    def test_tree(self):
        assert check_foster(path_graph(5)).passed  # 4 unit edges, n-1 = 4

    def test_k23(self):
        # 6 edges at 2/3 each sum to 4 = 5 - 1
        assert check_foster(complete_bipartite(2, 3)).passed

    def test_c4(self):
        # 4 edges at 3/4 each sum to 3
        assert check_foster(cycle_graph(4)).passed


class TestLocalSum:
    def test_star_center_to_leaf(self):
        star = new_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert check_local_sum(star, 0, 1).passed

    def test_k2(self):
        assert check_local_sum(new_graph(2, [(0, 1)]), 0, 1).passed

    def test_same_vertex_rejected(self):
        with pytest.raises(Exception, match="distinct"):
            check_local_sum(path_graph(3), 1, 1)

    @pytest.mark.parametrize("g", [path_graph(3), new_graph(4, [(0, 1)])],
                             ids=["connected", "disconnected"])
    def test_bad_vertex_rejected_before_any_matrix(self, monkeypatch, g):
        # a disconnected graph would otherwise report a disconnection instead
        from resspec import lemmas

        calls = []
        monkeypatch.setattr(lemmas, "resistance_matrix", lambda h: calls.append(h))
        with pytest.raises(GraphError, match="vertex 7 out of range"):
            check_local_sum(g, 0, 7)
        assert calls == []


class TestLowerBound:
    def test_k4_edge_equality(self):
        # R = 1/2 = 1/4 + 1/4 with shared neighborhoods
        g = complete_graph(4)
        assert resistance(g, 0, 1) == Fraction(1, 2)
        assert check_lower_bound(g).passed

    def test_p3_strict(self):
        assert resistance(path_graph(3), 0, 2) == 2 > Fraction(1, 2) + Fraction(1, 2)
        assert check_lower_bound(path_graph(3)).passed

    def test_k23_cross_strict(self):
        g = complete_bipartite(2, 3)
        assert resistance(g, 0, 2) == Fraction(2, 3) > Fraction(1, 4) + Fraction(1, 3)
        assert check_lower_bound(g).passed


class TestRayleigh:
    def test_c4_minus_edge(self):
        assert check_rayleigh(cycle_graph(4), (0, 1)).passed

    def test_k4_minus_edge(self):
        report = check_rayleigh(complete_graph(4), (0, 1))
        assert report.passed
        smaller = new_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert resistance(smaller, 0, 1) > Fraction(1, 2)

    def test_bridge_reported_vacuous(self):
        report = check_rayleigh(path_graph(3), (0, 1))
        assert report.passed and "bridge" in report.note

    def test_non_edge_rejected(self):
        with pytest.raises(Exception, match="not an edge"):
            check_rayleigh(path_graph(3), (0, 2))

    def test_disconnected_rejected_before_the_edge_test(self):
        with pytest.raises(Exception, match="connected"):
            check_rayleigh(new_graph(4, [(0, 1)]), (2, 3))

    def test_edited_laplacian_is_that_of_g_minus_e(self):
        from resspec.enumeration import enumerate_connected
        from resspec.graphs import delete_edge
        from resspec.lemmas import _without_edge
        from resspec.resistance import laplacian

        for n in range(2, 7):
            for g in enumerate_connected(n):
                L = laplacian(g)
                for e in g.edges():
                    assert _without_edge(L, *e) == laplacian(delete_edge(g, *e))
                assert L == laplacian(g)

    def test_bridge_passes_without_a_resistance_matrix(self, monkeypatch):
        from resspec import lemmas

        def no_matrix(g):
            raise AssertionError("resistance matrix built for a bridge")

        monkeypatch.setattr(lemmas, "resistance_matrix", no_matrix)
        report = check_rayleigh(path_graph(4), (0, 1))
        assert report.passed and "bridge" in report.note
        with pytest.raises(AssertionError):
            check_rayleigh(cycle_graph(4), (0, 1))  # not a bridge: the matrix is needed


class TestCycleBound:
    def test_c4(self):
        assert check_cycle_bound(cycle_graph(4)).passed

    def test_tree_vacuous(self):
        assert check_cycle_bound(path_graph(4)).passed

    def test_triangle_with_pendant(self):
        g = new_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        # pendant edge has R = 1 but sits on no cycle; triangle edges are 2/3
        assert check_cycle_bound(g).passed


class TestCutAdditivity:
    def test_p3(self):
        assert check_cut_additivity(path_graph(3)).passed

    def test_bowtie(self):
        g = new_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert resistance(g, 0, 3) == Fraction(2, 3) + Fraction(2, 3)
        assert check_cut_additivity(g).passed

    def test_two_connected_vacuous(self):
        assert check_cut_additivity(cycle_graph(5)).passed

    def test_exhaustive_up_to_seven(self):
        # every separated pair adds exactly, over all classes with cut vertices
        from resspec.enumeration import enumerate_connected
        from resspec.graphs import blocks_and_cut_vertices

        seen_cut_graphs = 0
        for n in range(2, 8):
            for g in enumerate_connected(n):
                if blocks_and_cut_vertices(g)[1]:
                    assert check_cut_additivity(g).passed
                    seen_cut_graphs += 1
        assert seen_cut_graphs > 400  # plenty of non-vacuous instances


class TestReportShape:
    def test_witness_iff_failed(self):
        with pytest.raises(ValueError):
            CheckReport("triangle", True, Witness(path_graph(3), (0, 1), Fraction(1), Fraction(2)))
        with pytest.raises(ValueError):
            CheckReport("triangle", False, None)

    def test_witness_json(self):
        w = Witness(path_graph(3), (0, 2), Fraction(1, 2), Fraction(3, 4))
        doc = w.to_json_dict()
        assert doc == {"graph6": "Bg", "vertices": [0, 2], "lhs": "1/2", "rhs": "3/4"}


def _with_entry(rm, u, v, value):
    """rm with R(u, v) = R(v, u) = value, over the denominator lcm(det, value's)."""
    from math import lcm

    from resspec.resistance import ResistanceMatrix

    det = lcm(rm.det, value.denominator)
    nums = [[x * (det // rm.det) for x in row] for row in rm.nums]
    nums[u][v] = nums[v][u] = value.numerator * (det // value.denominator)
    return ResistanceMatrix(rm.order, tuple(map(tuple, nums)), det)


def _corrupt_first_pair(real):
    """resistance_matrix with R(0, 1) raised by one on every graph of order >= 2."""
    def corrupted(g):
        rm = real(g)
        return rm if rm.order < 2 else _with_entry(rm, 0, 1, rm.value(0, 1) + 1)
    return corrupted


def _corrupt_engine(monkeypatch):
    """Every matrix the lemma checks read, of G or of G - e, gets the corruption above."""
    from resspec import lemmas

    for name in ("resistance_matrix", "laplacian_resistance_matrix"):
        monkeypatch.setattr(lemmas, name, _corrupt_first_pair(getattr(lemmas, name)))


# a triangle 0,1,2 with the pendant vertex 3 at 0: bridge (0,3), cut vertex 0
PAW = new_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])

# lemma id -> (pair, wrong resistance, relation the witness's lhs and rhs show)
CORRUPTIONS = {
    "triangle": ((1, 3), Fraction(9), operator.lt),        # R(1,0) + R(0,3) < R(1,3)
    "foster": ((0, 1), Fraction(9), operator.ne),
    "local_sum": ((0, 1), Fraction(9), operator.ne),
    "degree_bound": ((1, 2), Fraction(1, 9), operator.lt),  # below 1/3 + 1/3
    "rayleigh": ((1, 2), Fraction(9), operator.lt),         # deleting (0,1) lowers R(1,2)
    "cycle_bound": ((1, 2), Fraction(1), operator.ge),
    "cut_additivity": ((1, 3), Fraction(9), operator.ne),  # != R(1,0) + R(0,3)
}


class TestWitnessMachinery:
    def test_corrupted_engine_yields_actionable_witness(self):
        # feed the foster check a matrix with one wrong entry and confirm
        # the witness reproduces the violation against the independent
        # forest-count oracle
        from resspec.lemmas import _foster
        from oracles import resistance_by_forest_enumeration
        from resspec.resistance import resistance_matrix

        g = cycle_graph(4)
        report = _foster(g, _with_entry(resistance_matrix(g), 0, 1, Fraction(9)),
                         frozenset(), frozenset())
        assert report is not None and not report.passed
        w = report.witness
        assert w.lhs != w.rhs
        # the genuine value disagrees with the corrupted one
        assert resistance_by_forest_enumeration(g, 0, 1) == Fraction(3, 4) != Fraction(9)

    def test_table_covers_every_lemma(self):
        assert set(CORRUPTIONS) == set(LEMMA_IDS) and len(LEMMA_IDS) == 7

    @pytest.mark.parametrize("lemma", sorted(CORRUPTIONS))
    def test_each_witness_catches_a_corrupted_matrix(self, lemma):
        from resspec.lemmas import _WITNESSES, _context

        rm, bridges, cuts = _context(PAW)
        assert (bridges, cuts) == ({(0, 3)}, {0})
        witness = _WITNESSES[lemma]
        assert witness(PAW, rm, bridges, cuts) is None
        (u, v), wrong, holds = CORRUPTIONS[lemma]
        report = witness(PAW, _with_entry(rm, u, v, wrong), bridges, cuts)
        assert report is not None and report.lemma_id == lemma and not report.passed
        assert holds(report.witness.lhs, report.witness.rhs), report.witness

    def test_sweep_counts_failures_per_lemma(self, monkeypatch):
        from collections import Counter

        _corrupt_engine(monkeypatch)
        summary = run_all_checks(4)
        assert summary["failures_total"] == len(summary["failures"]) > 0
        tagged = Counter(w["lemma"] for w in summary["failures"])
        assert tagged == {lemma: c["failed"] for lemma, c in summary["checks"].items()
                          if c["failed"]}
        # every graph of order >= 2 breaks the local sum rule at (0, 1)
        assert summary["checks"]["local_sum"] == {"passed": 1, "failed": 9}
        for counts in summary["checks"].values():
            assert counts["passed"] + counts["failed"] == summary["graphs_checked"]

    def test_witnesses_match_the_fraction_comparisons(self, monkeypatch):
        # these bytes came from comparing Fractions; the integer comparisons
        # must report the same vertex tuples, lhs and rhs on every failure
        import hashlib

        _corrupt_engine(monkeypatch)
        text = summary_to_json(run_all_checks(6))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a700fdefb7370be51c6a167bbb725a7f9153a4e66269bd50d2a086d0fb54e74e"
        )

    def test_check_lemmas_exits_two_on_a_counterexample(self, monkeypatch, capsys):
        from resspec.cli import main

        _corrupt_engine(monkeypatch)
        code = main(["check-lemmas", "--max-n", "4"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert not lines[0].startswith("0 failures")
        assert lines[1:] and all(ln.startswith("  counterexample: ") for ln in lines[1:])


class TestBlockDecomposition:
    """Only the checks that read bridges or cut vertices decompose the graph."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from resspec import lemmas

        made = []
        real = lemmas.blocks_and_cut_vertices

        def counting(g):
            made.append(g)
            return real(g)

        monkeypatch.setattr(lemmas, "blocks_and_cut_vertices", counting)
        return made

    FOUR = {
        "triangle": check_triangle,
        "foster": check_foster,
        "local_sum": lambda g: check_local_sum(g, 0, 1),
        "degree_bound": check_lower_bound,
    }

    @pytest.mark.parametrize("lemma", sorted(FOUR))
    def test_four_checks_never_decompose(self, calls, lemma):
        assert self.FOUR[lemma](PAW).passed
        assert calls == []
        # the engine is their connectivity gate
        with pytest.raises(GraphError, match="connected"):
            self.FOUR[lemma](new_graph(3, [(0, 1)]))
        assert calls == []

    @pytest.mark.parametrize("check", [check_cycle_bound, check_cut_additivity])
    def test_block_readers_decompose_once(self, calls, check):
        assert check(PAW).passed
        assert calls == [PAW]


class TestSweep:
    def test_passing_checks_build_no_fraction(self, monkeypatch):
        from resspec import lemmas
        from resspec.enumeration import enumerate_connected
        from resspec.resistance import ResistanceMatrix

        def boom(*args, **kwargs):
            raise AssertionError("a Fraction was built on a passing check")

        monkeypatch.setattr(ResistanceMatrix, "rows", property(boom))
        monkeypatch.setattr(ResistanceMatrix, "value", boom)
        monkeypatch.setattr(ResistanceMatrix, "pairs", boom)
        monkeypatch.setattr(lemmas, "Fraction", boom)
        for n in range(1, 7):
            for g in enumerate_connected(n):
                assert lemmas._sweep_graph(g) == []

    @pytest.mark.parametrize("n_max", [0, 10])
    def test_n_max_out_of_range_names_the_parameter(self, n_max):
        with pytest.raises(GraphError, match=rf"^n_max must be in 1\.\.9, got {n_max}$"):
            run_all_checks(n_max)

    def test_vacuous_single_vertex(self):
        summary = run_all_checks(1)
        assert summary["failures_total"] == 0 and summary["graphs_checked"] == 1

    def test_up_to_five(self):
        summary = run_all_checks(5)
        assert summary["failures_total"] == 0
        assert summary["graphs_checked"] == 1 + 1 + 2 + 6 + 21
        assert summary["classes_per_order"] == {"1": 1, "2": 1, "3": 2, "4": 6, "5": 21}
        assert summary["failures"] == []
        # per-lemma pass counts cover every graph
        for lemma, counts in summary["checks"].items():
            assert counts == {"passed": 31, "failed": 0}, lemma

    def test_json_serializable(self):
        text = summary_to_json(run_all_checks(3))
        assert '"failures_total":0' in text

    def test_threaded_matches_serial(self):
        assert summary_to_json(run_all_checks(5, threads=2)) == summary_to_json(run_all_checks(5))
