import itertools
import random
import re
from fractions import Fraction
from math import lcm

import pytest

from resspec.graphs import (
    add_edge,
    complete_bipartite,
    cycle_graph,
    is_connected,
    new_graph,
    path_graph,
)
from resspec.reduction import (
    ReductionError,
    SEquivalenceError,
    _integer_laplacian,
    eliminate_block,
    network_to_text,
    new_network,
    parallel_reduce,
    parse_network,
    series_reduce,
    substitute,
    unit_network,
    weighted_resistance,
    weighted_resistance_matrix,
)
from resspec.resistance import DisconnectedError, resistance, resistance_matrix


def F(a, b=1):
    return Fraction(a, b)


class TestWeightedResistance:
    def test_single_edge(self):
        net = new_network(2, [(0, 1, 5)])
        assert weighted_resistance(net, 0, 1) == 5

    def test_series_path(self):
        net = new_network(3, [(0, 1, 1), (1, 2, 2)])
        assert weighted_resistance(net, 0, 2) == 3

    def test_two_parallel_unit_edges(self):
        net = new_network(2, [(0, 1, 1), (0, 1, 1)])
        assert weighted_resistance(net, 0, 1) == F(1, 2)

    def test_matches_unit_graph(self):
        rng = random.Random(3)
        checked = 0
        while checked < 20:
            n = rng.randint(2, 6)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
            try:
                rm = resistance_matrix(new_graph(n, edges))
            except DisconnectedError:
                continue
            net = unit_network(new_graph(n, edges))
            wm = weighted_resistance_matrix(net)
            for u, v in itertools.combinations(range(n), 2):
                assert wm[u][v] == rm.value(u, v)
            checked += 1

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            weighted_resistance(new_network(3, [(0, 1, 1)]), 0, 2)

    def test_validation(self):
        with pytest.raises(ReductionError, match="positive"):
            new_network(2, [(0, 1, 0)])
        with pytest.raises(ReductionError, match="self-loop"):
            new_network(2, [(1, 1, 1)])
        with pytest.raises(ReductionError, match="outside"):
            new_network(2, [(0, 2, 1)])


def _random_connected_multinetwork(rng, n):
    """Connected network with parallel edges and non-unit rational resistances."""
    while True:
        edges = [
            (u, v, F(rng.randint(1, 12), rng.randint(1, 12)))
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.5
        ]
        for _ in range(rng.randint(1, 3)):
            if edges:
                u, v, _ = rng.choice(edges)
                edges.append((u, v, F(rng.randint(1, 12), rng.randint(2, 12))))
        net = new_network(n, edges)
        if is_connected(new_graph(n, [e[:2] for e in net.edges])):
            return net


class TestIntegerLaplacian:
    def test_matches_the_conductance_computation(self):
        # oracle: conductances 1/r, scaled by the LCM of their denominators
        rng = random.Random(47)
        for _ in range(80):
            net = _random_connected_multinetwork(rng, rng.randint(2, 9))
            conductances = [1 / r for _, _, r in net.edges]
            s = lcm(*(c.denominator for c in conductances))
            L = [[0] * net.order for _ in range(net.order)]
            for (u, v, _), c in zip(net.edges, conductances):
                w = c * s
                assert w.denominator == 1
                L[u][u] += w
                L[v][v] += w
                L[u][v] -= w
                L[v][u] -= w
            assert _integer_laplacian(net) == (L, s)

    def test_edgeless_network_has_scale_one(self):
        assert _integer_laplacian(new_network(2, [])) == ([[0, 0], [0, 0]], 1)


class TestWeightedEngineIdentities:
    """Identities that hold for any correct solver, checked without its formula."""

    def test_weighted_foster(self):
        # sum over edges of R(e)/r_e is n - 1, each parallel edge counted
        rng = random.Random(41)
        for _ in range(60):
            net = _random_connected_multinetwork(rng, rng.randint(2, 8))
            wm = weighted_resistance_matrix(net)
            assert sum(wm[u][v] / r for u, v, r in net.edges) == net.order - 1

    def test_scaling_every_resistance_scales_every_resistance(self):
        rng = random.Random(43)
        for _ in range(40):
            net = _random_connected_multinetwork(rng, rng.randint(2, 8))
            wm = weighted_resistance_matrix(net)
            k = rng.choice((F(7), F(3, 2), F(5, 11)))
            scaled = new_network(net.order, [(u, v, k * r) for u, v, r in net.edges])
            sm = weighted_resistance_matrix(scaled)
            for u, v in itertools.combinations(range(net.order), 2):
                assert sm[u][v] == k * wm[u][v]
                assert weighted_resistance(scaled, u, v) == k * weighted_resistance(net, u, v)


class TestSeriesReduce:
    def test_unit_path_midpoint(self):
        net = new_network(3, [(0, 1, 1), (1, 2, 1)])
        red = series_reduce(net, 1)
        assert red.order == 2 and red.edges == ((0, 1, F(2)),)

    def test_fractional_chain(self):
        net = new_network(3, [(0, 1, F(1, 2)), (1, 2, F(1, 3))])
        assert series_reduce(net, 1).edges[0][2] == F(5, 6)

    def test_c4_reduction_preserves_surviving_pairs(self):
        net = unit_network(cycle_graph(4))
        red = series_reduce(net, 1)
        # survivors: 0, 2->1, 3->2
        relabel = {0: 0, 2: 1, 3: 2}
        for u, v in itertools.combinations(relabel, 2):
            assert weighted_resistance(net, u, v) == weighted_resistance(
                red, relabel[u], relabel[v]
            )

    def test_degree_must_be_two(self):
        with pytest.raises(ReductionError, match="exactly 2"):
            series_reduce(unit_network(path_graph(4)), 0)
        with pytest.raises(ReductionError, match="exactly 2"):
            series_reduce(unit_network(complete_bipartite(2, 3)), 0)

    def test_parallel_pair_through_vertex_rejected(self):
        net = new_network(2, [(0, 1, 1), (0, 1, 2)])
        with pytest.raises(ReductionError, match="parallel step"):
            series_reduce(net, 1)


class TestParallelReduce:
    def test_two_unit_edges(self):
        net = new_network(2, [(0, 1, 1), (0, 1, 1)])
        assert parallel_reduce(net, 0, 1).edges == ((0, 1, F(1, 2)),)

    def test_two_twos(self):
        net = new_network(2, [(0, 1, 2), (0, 1, 2)])
        assert parallel_reduce(net, 0, 1).edges == ((0, 1, F(1)),)

    def test_reciprocal_sum(self):
        net = new_network(2, [(0, 1, F(1, 2)), (0, 1, F(1, 3)), (0, 1, F(1, 6))])
        assert parallel_reduce(net, 0, 1).edges == ((0, 1, F(1, 11)),)

    def test_needs_multiedge(self):
        with pytest.raises(ReductionError, match=">= 2"):
            parallel_reduce(new_network(2, [(0, 1, 1)]), 0, 1)

    def test_other_edges_untouched(self):
        net = new_network(3, [(0, 1, 1), (0, 1, 1), (1, 2, 7)])
        red = parallel_reduce(net, 0, 1)
        assert (1, 2, F(7)) in red.edges and len(red.edges) == 2


class TestEliminateBlock:
    def test_pendant_edge_off_triangle(self):
        g = new_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        reduced = eliminate_block(g, {0, 3}, 0)
        assert reduced.order == 3 and reduced.size == 3
        before = resistance_matrix(g)
        after = resistance_matrix(reduced)
        for u, v in itertools.combinations(range(3), 2):
            assert before.value(u, v) == after.value(u, v)

    def test_path_end_block(self):
        reduced = eliminate_block(path_graph(4), {2, 3}, 2)
        assert reduced.order == 3
        assert resistance(reduced, 0, 2) == resistance(path_graph(4), 0, 2) == 2

    def test_k23_with_pendant_path(self):
        base = complete_bipartite(2, 3)
        g = new_graph(7, base.edges() + [(4, 5), (5, 6)])
        reduced = eliminate_block(g, {5, 6}, 5)
        reduced = eliminate_block(reduced, {4, 5}, 4)
        assert resistance_matrix(reduced).rows == resistance_matrix(base).rows

    def test_not_a_block(self):
        with pytest.raises(ReductionError, match="not a block"):
            eliminate_block(path_graph(4), {0, 1, 2}, 2)

    def test_wrong_cut_vertex(self):
        g = path_graph(4)  # blocks {01},{12},{23}
        with pytest.raises(ReductionError, match="exactly one cut vertex"):
            eliminate_block(g, {1, 2}, 1)  # block {1,2} has two cut vertices


class TestSubstitute:
    def test_identity_substitution(self):
        host = unit_network(cycle_graph(4))
        region = [0, 1]
        replacement = new_network(2, [(0, 1, 1)])
        assert substitute(host, region, replacement) == host

    def test_parallel_pair_replaced_by_half(self):
        host = new_network(3, [(0, 1, 1), (0, 1, 1), (1, 2, 3)])
        replacement = new_network(2, [(0, 1, F(1, 2))])
        out = substitute(host, [0, 1], replacement)
        assert out == new_network(3, [(0, 1, F(1, 2)), (1, 2, 3)])

    def test_path_segment_replaced_by_edge(self):
        # unit C4 plus a two-edge path 0-4-2 bridging opposite corners
        g = new_graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 4)])
        host = unit_network(g)
        replacement = new_network(2, [(0, 1, 2)])
        out = substitute(host, [0, 2, 4], replacement)
        # vertex 4 is dropped; survivors 0..3 keep their ids
        before = weighted_resistance_matrix(host)
        after = weighted_resistance_matrix(out)
        for u, v in itertools.combinations(range(4), 2):
            assert before[u][v] == after[u][v]

    def test_extra_internal_vertices(self):
        # replace a unit edge by an equivalent two-resistor path
        host = unit_network(cycle_graph(3))
        replacement = new_network(3, [(0, 2, F(1, 2)), (2, 1, F(1, 2))])
        out = substitute(host, [0, 1], replacement)
        assert out.order == 4
        before = weighted_resistance_matrix(host)
        after = weighted_resistance_matrix(out)
        for u, v in itertools.combinations(range(3), 2):
            assert before[u][v] == after[u][v]

    def test_mismatch_reports_first_pair(self):
        host = unit_network(cycle_graph(4))
        with pytest.raises(SEquivalenceError) as err:
            substitute(host, [0, 1], new_network(2, [(0, 1, 7)]))
        assert err.value.pair == (0, 1)
        assert err.value.got == 7 and err.value.expected == 1

    def test_dropped_vertex_must_be_internal(self):
        # region {0,1,2} of a path 0-1-2-3: boundary is {2} only, so a
        # 2-vertex replacement has more vertices than terminals and grafts
        host = unit_network(path_graph(4))
        out = substitute(host, [0, 1, 2], new_network(2, [(0, 1, 2)]))
        # survivors 2,3 keep resistance; grafted internal replaces 0,1
        assert weighted_resistance(host, 2, 3) == weighted_resistance(out, 0, 1)

    def test_disconnected_networks_refused_induced_first(self):
        # path 0-1-2-3: {0, 2} induces no edge, and {0, 1, 3} leaves 3 isolated
        host = unit_network(path_graph(4))
        induced = "^induced sub-network is disconnected; resistances undefined$"
        replacement = "^replacement network is disconnected; resistances undefined$"
        split2 = new_network(2, [])
        split3 = new_network(3, [(1, 2, 1)])  # vertex 0 isolated
        for region, repl, message in [
            ([0, 2], new_network(2, [(0, 1, 1)]), induced),
            ([0, 1, 3], new_network(3, [(0, 1, 1), (1, 2, 1)]), induced),
            ([0, 1], split2, replacement),
            ([0, 1, 2], split3, replacement),
            ([0, 2], split2, induced),  # both disconnected: the induced one is named
            ([0, 1, 3], split3, induced),
        ]:
            with pytest.raises(ReductionError, match=message):
                substitute(host, region, repl)


class TestEdgeAdditionIdentity:
    def test_formula_on_random_graphs(self):
        rng = random.Random(17)
        checked = 0
        while checked < 25:
            n = rng.randint(3, 7)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            g = new_graph(n, edges)
            non_adjacent = [
                (u, v) for u, v in itertools.combinations(range(n), 2) if not g.has_edge(u, v)
            ]
            if not non_adjacent:
                continue
            try:
                rm = resistance_matrix(g)
            except DisconnectedError:
                continue
            u, v = rng.choice(non_adjacent)
            r = rm.value(u, v)
            bigger = add_edge(g, u, v)
            assert resistance(bigger, u, v) == r / (r + 1)
            checked += 1

    def test_balanced_bipartite_instance(self):
        # same-part pair at distance 2/n becomes 2/(n+2) after adding the edge
        for n in (2, 3, 4):
            g = complete_bipartite(n, n)
            r = resistance(g, 0, 1)
            assert r == Fraction(2, n)
            assert resistance(add_edge(g, 0, 1), 0, 1) == Fraction(2, n + 2)


class TestRandomizedSoundness:
    def test_hundred_random_reductions(self):
        rng = random.Random(99)
        performed = 0
        while performed < 100:
            n = rng.randint(3, 6)
            edges = []
            for u, v in itertools.combinations(range(n), 2):
                if rng.random() < 0.55:
                    edges.append((u, v, Fraction(rng.randint(1, 6), rng.randint(1, 6))))
            if rng.random() < 0.4 and edges:
                u, v, _ = edges[rng.randrange(len(edges))]
                edges.append((u, v, Fraction(rng.randint(1, 6), rng.randint(1, 6))))
            net = new_network(n, edges)
            try:
                before = weighted_resistance_matrix(net)
            except DisconnectedError:
                continue
            # try a random applicable transform
            multi = [
                (u, v) for (u, v) in {(e[0], e[1]) for e in net.edges}
                if len(net.edges_between(u, v)) >= 2
            ]
            deg2 = [
                w for w in range(n)
                if len(net.incident(w)) == 2
                and len({e[:2] for e in net.incident(w)}) == 2
            ]
            if multi and rng.random() < 0.5:
                u, v = rng.choice(multi)
                after_net = parallel_reduce(net, u, v)
                relabel = {w: w for w in range(n)}
            elif deg2:
                w = rng.choice(deg2)
                after_net = series_reduce(net, w)
                relabel = {x: x - (x > w) for x in range(n) if x != w}
            else:
                continue
            after = weighted_resistance_matrix(after_net)
            for u, v in itertools.combinations(sorted(relabel), 2):
                assert before[u][v] == after[relabel[u]][relabel[v]]
            performed += 1


class TestNetworkText:
    def test_roundtrip(self):
        net = new_network(3, [(0, 1, F(1, 2)), (1, 2, 3), (0, 1, 1)])
        assert parse_network(network_to_text(net)) == net

    def test_format(self):
        net = new_network(2, [(0, 1, F(2, 3))])
        assert network_to_text(net) == "2 1\n0 1 2/3\n"

    def test_bad_header(self):
        with pytest.raises(ReductionError, match="header"):
            parse_network("nope\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ReductionError, match="promises"):
            parse_network("2 2\n0 1 1\n")

    def test_bad_edge_line(self):
        with pytest.raises(ReductionError, match="edge line"):
            parse_network("2 1\n0 1\n")

    @pytest.mark.parametrize("line", ["z 2 1", "0 1.5 1", "0 1 x/2", "0 1 1/0"])
    def test_bad_vertex_or_resistance_names_the_line(self, line):
        with pytest.raises(ReductionError, match=f"^bad edge line '{re.escape(line)}': "):
            parse_network(f"3 1\n{line}\n")
