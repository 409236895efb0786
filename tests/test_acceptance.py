"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The heavy artifacts (connected graph lists, spectrum
tables) are cached in a session-scoped directory so later criteria reuse
what earlier ones computed.
"""

import hashlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import combinations

from resspec.drs import (
    PROVEN_TAGS,
    TAG_CONJECTURE,
    check_theorems,
    find_collisions,
    verify_drs,
)
from resspec.enumeration import (
    canonical_form,
    canonical_graph,
    connected_cache_path,
    connected_graphs,
)
from resspec.graphs import (
    Graph,
    add_edge,
    blocks_and_cut_vertices,
    complete_bipartite,
    delete_vertices,
    is_connected,
    new_graph,
    to_graph6,
)
from resspec.lemmas import run_all_checks
from resspec.parallel import ordered_map
from resspec.reduction import (
    eliminate_block,
    new_network,
    parallel_reduce,
    series_reduce,
    substitute,
    unit_network,
    weighted_resistance_matrix,
)
from resspec.resistance import (
    kmn_spectrum_closed_form,
    resistance,
    resistance_matrix,
    resistance_spectrum,
)

THREADS = min(2, os.cpu_count() or 1)

# connected graph classes per order, published sequence
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080}

# sha256 of the `enumerate 9` stdout, which is also the payload connected-9.g6 hashes
ENUMERATE_9_SHA256 = "3cdc62d49844b4cf749f00e74b7eab43825985e586939969b702ba416cb7fdd0"

# collected by conftest's terminal-summary hook so the lines survive capture
ACCEPTANCE_LINES: list[str] = []


def _report(num: int, name: str, elapsed: float, detail: str = "") -> None:
    extra = f"; {detail}" if detail else ""
    line = f"[ACCEPTANCE {num}] {name}: PASS ({elapsed:.2f}s{extra})"
    ACCEPTANCE_LINES.append(line)
    print("\n" + line)


def test_criterion_1_closed_form_conformance():
    t0 = time.perf_counter()
    for m in range(1, 8):
        for n in range(m, 8):
            direct = resistance_spectrum(complete_bipartite(m, n))
            closed = kmn_spectrum_closed_form(m, n)
            assert direct == closed, (m, n, direct.to_json(), closed.to_json())
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"budget 1s exceeded: {elapsed:.2f}s"
    _report(1, "closed-form spectrum conformance, 1 <= m <= n <= 7", elapsed)


def test_criterion_2_foster_sum_up_to_7():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 8):
        for g in connected_graphs(n, threads=THREADS):
            rm = resistance_matrix(g)
            total = sum((rm.value(u, v) for u, v in g.edges()), Fraction(0))
            assert total == n - 1, (to_graph6(g), total)
            checked += 1
    assert checked == sum(CONNECTED_COUNTS[n] for n in range(1, 8)) == 996
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"budget 1min exceeded: {elapsed:.2f}s"
    _report(2, "edge-resistance sum equals n-1 on all 996 classes, n <= 7", elapsed)


def test_criterion_3_lemma_suite_up_to_6():
    t0 = time.perf_counter()
    summary = run_all_checks(6, threads=THREADS)
    assert summary["failures_total"] == 0, summary["failures"][:3]
    assert summary["graphs_checked"] == 143
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"budget 2min exceeded: {elapsed:.2f}s"
    _report(3, "lemma suite, zero counterexamples on all 143 classes, n <= 6", elapsed)


def _random_weighted_network(rng, n):
    edges = []
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.5:
            edges.append((u, v, Fraction(rng.randint(1, 9), rng.randint(1, 9))))
    if edges and rng.random() < 0.5:
        u, v, _ = edges[rng.randrange(len(edges))]
        edges.append((u, v, Fraction(rng.randint(1, 9), rng.randint(1, 9))))
    return new_network(n, edges)


def _random_connected_graph(rng, n):
    while True:
        g = new_graph(
            n, [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        )
        if is_connected(g):
            return g


def _apply_random_reduction(rng, counts):
    """One random series/parallel/eliminate/substitute application, verified."""
    op = rng.choice(("series", "parallel", "eliminate", "substitute"))
    if op == "eliminate":
        g = _random_connected_graph(rng, rng.randint(3, 8))
        blocks, cuts = blocks_and_cut_vertices(g)
        leaf_blocks = [
            (blk, next(iter(blk & cuts)))
            for blk in blocks
            if len(blk & cuts) == 1 and len(blocks) >= 2
        ]
        if not leaf_blocks:
            return False
        blk, w = leaf_blocks[rng.randrange(len(leaf_blocks))]
        reduced = eliminate_block(g, blk, w)
        survivors = sorted(set(range(g.order)) - (blk - {w}))
        relabel = {old: i for i, old in enumerate(survivors)}
        before = resistance_matrix(g)
        after = resistance_matrix(reduced)
        for u, v in combinations(survivors, 2):
            assert before.value(u, v) == after.value(relabel[u], relabel[v])
        counts[op] += 1
        return True

    net = _random_weighted_network(rng, rng.randint(3, 8))
    if not is_connected(new_graph(net.order, [e[:2] for e in net.edges])):
        return False
    n = net.order
    before = weighted_resistance_matrix(net)
    if op == "series":
        cands = [
            w for w in range(n)
            if len(net.incident(w)) == 2
            and len({e[:2] for e in net.incident(w)}) == 2
        ]
        if not cands:
            return False
        w = rng.choice(cands)
        after_net = series_reduce(net, w)
        relabel = {x: x - (x > w) for x in range(n) if x != w}
    elif op == "parallel":
        multi = sorted({
            (e[0], e[1]) for e in net.edges
            if len(net.edges_between(e[0], e[1])) >= 2
        })
        if not multi:
            return False
        u, v = multi[rng.randrange(len(multi))]
        after_net = parallel_reduce(net, u, v)
        relabel = {x: x for x in range(n)}
    else:  # substitute
        kind = rng.choice(("identity", "parallel", "series"))
        if kind == "identity":
            size = rng.randint(2, min(4, n))
            region = sorted(rng.sample(range(n), size))
            sub_edges = [
                (region.index(a), region.index(b), r)
                for a, b, r in net.edges
                if a in region and b in region
            ]
            replacement = new_network(size, sub_edges)
            if not is_connected(new_graph(size, [e[:2] for e in sub_edges])):
                return False
            after_net = substitute(net, region, replacement)
            relabel = {x: x for x in range(n)}
        elif kind == "parallel":
            multi = sorted({
                (e[0], e[1]) for e in net.edges
                if len(net.edges_between(e[0], e[1])) >= 2
            })
            if not multi:
                return False
            u, v = multi[rng.randrange(len(multi))]
            bundle = net.edges_between(u, v)
            combined = 1 / sum(1 / r for _, _, r in bundle)
            after_net = substitute(net, [u, v], new_network(2, [(0, 1, combined)]))
            relabel = {x: x for x in range(n)}
        else:  # series segment with an internal midpoint
            cands = []
            for w in range(n):
                inc = net.incident(w)
                if len(inc) != 2:
                    continue
                ends = sorted({e[0] if e[1] == w else e[1] for e in inc})
                if len(ends) != 2 or net.edges_between(*ends):
                    continue
                a, b = ends
                if len(net.incident(a)) <= 2 or len(net.incident(b)) <= 2:
                    continue  # both endpoints must attach to the rest
                cands.append((w, a, b, inc[0][2] + inc[1][2]))
            if not cands:
                return False
            w, a, b, total = cands[rng.randrange(len(cands))]
            after_net = substitute(net, [a, w, b], new_network(2, [(0, 1, total)]))
            survivors = [x for x in range(n) if x != w]
            relabel = {old: i for i, old in enumerate(survivors)}
    after = weighted_resistance_matrix(after_net)
    for u, v in combinations(sorted(relabel), 2):
        assert before[u][v] == after[relabel[u]][relabel[v]], (op, u, v)
    counts[op] += 1
    return True


def test_criterion_4_reduction_soundness():
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    counts = {"series": 0, "parallel": 0, "eliminate": 0, "substitute": 0}
    performed = 0
    while performed < 1000:
        if _apply_random_reduction(rng, counts):
            performed += 1
    assert all(counts[op] > 0 for op in counts), counts

    # adding a unit edge across resistance r yields r/(r+1), recomputed directly
    checked = 0
    while checked < 100:
        g = _random_connected_graph(rng, rng.randint(3, 8))
        non_adjacent = [
            (u, v) for u, v in combinations(range(g.order), 2) if not g.has_edge(u, v)
        ]
        if not non_adjacent:
            continue
        u, v = non_adjacent[rng.randrange(len(non_adjacent))]
        r = resistance(g, u, v)
        assert resistance(add_edge(g, u, v), u, v) == r / (r + 1)
        checked += 1
    # the balanced-bipartite instance: 2/n drops to 2/(n+2)
    for n in (2, 3, 4):
        g = complete_bipartite(n, n)
        assert resistance(g, 0, 1) == Fraction(2, n)
        assert resistance(add_edge(g, 0, 1), 0, 1) == Fraction(2, n + 2)
    elapsed = time.perf_counter() - t0
    _report(
        4, "reduction soundness, 1000 applications + 100 edge additions",
        elapsed, f"mix={counts}",
    )


def _connected_codes(n, labelled):
    """Canonical codes of the connected graphs among the labelled bits `labelled`."""
    codes = set()
    for bits in labelled:
        g = Graph(n, bits)
        if is_connected(g):
            codes.add(canonical_form(g))
    return codes


def _labeled_brute_force_codes(n):
    """Canonical codes of every connected labeled graph on n vertices.

    Every labelled graph is checked: the bit range is cut into consecutive
    blocks, mapped over THREADS workers, and their code sets are united.
    """
    total = 1 << (n * (n - 1) // 2)
    blocks = [range(lo, min(lo + 4096, total)) for lo in range(0, total, 4096)]
    codes = set()
    for part in ordered_map(partial(_connected_codes, n), blocks, THREADS):
        codes |= part
    return codes


def test_criterion_5_enumeration_counts(cache_dir):
    t0 = time.perf_counter()
    for n in range(1, 8):
        generated = list(connected_graphs(n, cache_dir=cache_dir, threads=THREADS))
        brute = _labeled_brute_force_codes(n)
        assert len(generated) == CONNECTED_COUNTS[n]
        assert {canonical_form(g) for g in generated} == brute
    for n in (8, 9):
        generated = list(connected_graphs(n, cache_dir=cache_dir, threads=THREADS))
        assert len(generated) == CONNECTED_COUNTS[n]  # published-sequence cross-check
    with open(connected_cache_path(cache_dir, 9), encoding="ascii") as fh:
        trailer = fh.read().splitlines()[-1]
    assert trailer == f"#sha256:{ENUMERATE_9_SHA256}"  # the n=9 classes, byte for byte
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"budget 10min exceeded: {elapsed:.2f}s"
    _report(
        5, "enumeration: brute-force oracle to n=7, published counts to n=9", elapsed
    )


def test_criterion_6_theorem_verification(cache_dir, capsys):
    t0 = time.perf_counter()
    verdicts = check_theorems(9, cache_dir=cache_dir, threads=THREADS)
    proven = [v for v in verdicts if v.theorem_tag in PROVEN_TAGS]
    for v in proven:
        assert v.determined, f"proven-shape violation: {v.to_json()}"
    # the named instances must all be present among the proven-shape targets
    named = [
        (2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5), (4, 4), (2, 6),
        (4, 5), (2, 7), (1, 5), (1, 6), (1, 7), (1, 8),
    ]
    targets = {v.target_graph6 for v in proven}
    for m, n in named:
        g6 = to_graph6(canonical_graph(complete_bipartite(m, n)))
        assert g6 in targets, f"K_{{{m},{n}}} missing from proven sweep"

    # end-to-end exit-code contract through the CLI, reusing the caches
    from resspec.cli import main

    rc = main([
        "verify-drs", "--all", "--max-n", "9",
        "--cache-dir", cache_dir, "--threads", str(THREADS), "--output", "json",
    ])
    capsys.readouterr()
    assert rc == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0, f"budget 30min exceeded: {elapsed:.2f}s"
    _report(
        6, "all proven-shape complete bipartite graphs determined, n <= 9",
        elapsed, f"{len(proven)} proven instances, exit code 0",
    )


def test_criterion_7_conjecture_probe(cache_dir):
    t0 = time.perf_counter()
    outcomes = {}
    for m, n in [(3, 5), (3, 6)]:
        verdict = verify_drs(
            complete_bipartite(m, n), cache_dir=cache_dir, threads=THREADS
        )
        assert verdict.theorem_tag == TAG_CONJECTURE
        outcomes[f"K_{{{m},{n}}}"] = (
            "determined" if verdict.determined else f"impostors={list(verdict.impostors)}"
        )
    elapsed = time.perf_counter() - t0
    _report(7, "conjecture-only cases produce verdicts (outcome reported)", elapsed,
            ", ".join(f"{k}: {v}" for k, v in outcomes.items()))


def test_criterion_8_collision_mining(cache_dir):
    from resspec.enumeration import are_isomorphic
    from resspec.graphs import parse_graph6

    t0 = time.perf_counter()
    outcome = {}
    for n in range(1, 10):
        report = find_collisions(n, cache_dir=cache_dir, threads=THREADS)
        for a, b, spec in report.pairs:
            ga, gb = parse_graph6(a), parse_graph6(b)
            assert not are_isomorphic(ga, gb)
            assert resistance_spectrum(ga).to_json() == spec
            assert resistance_spectrum(gb).to_json() == spec
        outcome[n] = len(report.pairs)
    assert outcome == {**{n: 0 for n in range(1, 9)}, 9: 9}
    elapsed = time.perf_counter() - t0
    _report(8, "collision mining completes for n <= 9, pairs re-verified", elapsed,
            f"pairs per order: {outcome}")


# sha256 of the stdout of criterion 9's cases, keyed by command
PINNED = {
    "verify-drs": "1f7c6887ce790860f18f991b7715c4ed6704187c6922d986c0477c262b28f643",
    "collisions": "ff2069013aebd88e4b1e50c7d5c8329987a784b70e68530c3f1ddd9ced8bd3a8",
    "check-lemmas": "6f86235f5aab27b80ac0cebfdc73588226f8da03db09da855b086f233b0f3692",
}


def test_criterion_9_worker_count_determinism(tmp_path):
    t0 = time.perf_counter()
    cases = [
        ["enumerate", "7"],
        ["verify-drs", "--all", "--max-n", "7", "--output", "json"],
        ["collisions", "7", "--output", "json"],
        ["check-lemmas", "--max-n", "7", "--output", "json"],
    ]
    env = dict(os.environ)
    env.pop("RESIST_CACHE_DIR", None)
    for case in cases:
        runs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "resspec.cli", *case, "--threads", threads],
                capture_output=True, env=env, check=True,
            )
            runs.append(proc.stdout)
        assert runs[0] == runs[1], f"output differs across worker counts: {case}"
        if case[0] in PINNED:  # these reports' bytes are pinned, not just stable
            assert hashlib.sha256(runs[0]).hexdigest() == PINNED[case[0]], case
    elapsed = time.perf_counter() - t0
    _report(9, "byte-identical reports with 1 and 2 workers", elapsed)
