import hashlib
import importlib
import tracemalloc
from array import array
from fractions import Fraction

import pytest

from resspec import drs
from resspec.drs import (
    CollisionReport,
    DrsVerdict,
    PROVEN_TAGS,
    SpectrumIndex,
    TAG_BALANCED,
    TAG_CONJECTURE,
    TAG_DOMINANT,
    TAG_NEAR_BALANCED,
    TAG_NOT_KMN,
    TAG_TWO_ROW,
    check_theorems,
    classify_kmn,
    complete_bipartite_parts,
    find_collisions,
    index_spectra,
    spectra_cache_path,
    verify_drs,
)
from resspec.graphs import (
    GraphError,
    bits_to_graph6,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    new_graph,
    path_graph,
)
from resspec import enumeration
from resspec.enumeration import (
    are_isomorphic,
    canonical_graph,
    connected_graphs,
    enumerate_connected,
)
from resspec.graphs import parse_graph6, to_graph6
from resspec.resistance import (
    ResistanceMatrix,
    resistance_matrix,
    resistance_spectrum,
    spectrum_fingerprint,
    spectrum_json,
)
from oracles import exact_groups, group_runs


# a resistance-cospectral pair of non-isomorphic classes on nine vertices
COSPECTRAL_PAIR_9 = ("HQG?GKZ", "HCS_OKF")


def _index(n, rows):
    """SpectrumIndex.from_level of (graph6, fingerprint) rows, in the order given."""
    return SpectrumIndex.from_level(n, array("Q", [parse_graph6(g6).bits for g6, _ in rows]),
                                    array("Q", [fp for _, fp in rows]))


class TestClassify:
    @pytest.mark.parametrize(
        "m,n,tag",
        [
            (3, 3, TAG_BALANCED),
            (1, 1, TAG_BALANCED),
            (2, 3, TAG_NEAR_BALANCED),
            (4, 5, TAG_NEAR_BALANCED),
            (1, 2, TAG_NEAR_BALANCED),
            (2, 7, TAG_TWO_ROW),   # 7 > 3*2+1 is false, so the two-row tag wins
            (2, 4, TAG_TWO_ROW),
            (1, 5, TAG_DOMINANT),
            (1, 8, TAG_DOMINANT),
            (3, 11, TAG_DOMINANT),
            (3, 5, TAG_CONJECTURE),
            (1, 3, TAG_CONJECTURE),
            (1, 4, TAG_CONJECTURE),
            (3, 10, TAG_CONJECTURE),  # 10 = 3*3+1 exactly, not strictly above
        ],
    )
    def test_tags(self, m, n, tag):
        assert classify_kmn(m, n) == tag
        assert classify_kmn(n, m) == tag

    def test_invalid(self):
        with pytest.raises(GraphError):
            classify_kmn(0, 3)


class TestCompleteBipartiteDetection:
    def test_positive_cases(self):
        assert complete_bipartite_parts(complete_bipartite(2, 3)) == (2, 3)
        assert complete_bipartite_parts(cycle_graph(4)) == (2, 2)
        assert complete_bipartite_parts(new_graph(4, [(0, 1), (0, 2), (0, 3)])) == (1, 3)
        assert complete_bipartite_parts(new_graph(2, [(0, 1)])) == (1, 1)

    def test_negative_cases(self):
        assert complete_bipartite_parts(path_graph(4)) is None  # bipartite, not complete
        assert complete_bipartite_parts(complete_graph(3)) is None  # odd cycle
        assert complete_bipartite_parts(new_graph(3, [(0, 1)])) is None  # disconnected
        assert complete_bipartite_parts(new_graph(1, [])) is None  # K_1: one part empty

    def test_every_class_up_to_eight(self, cache_dir):
        # enumerated classes are canonical, so the Graphs compare directly
        kmn = {
            canonical_graph(complete_bipartite(a, n - a)): (a, n - a)
            for n in range(2, 9) for a in range(1, n // 2 + 1)
        }
        assert len(kmn) == 16
        found = 0
        for n in range(1, 9):
            for g in connected_graphs(n, cache_dir=cache_dir):
                assert complete_bipartite_parts(g) == kmn.get(g)
                found += g in kmn
        assert found == 16


class TestIndex:
    def test_n2(self):
        idx = index_spectra(2)
        assert exact_groups(idx) == {'[["1",1]]': ("A_",)}

    def test_n4_no_collisions(self):
        idx = index_spectra(4)
        assert idx.class_count == 6
        assert len(exact_groups(idx)) == 6
        assert not idx.collision_groups()

    def test_n5_complete_partition(self):
        idx = index_spectra(5)
        assert idx.class_count == 21
        total = sum(len(v) for v in exact_groups(idx).values())
        assert total == 21

    def test_cache_files(self, tmp_path):
        tmp_path = tmp_path / "made" / "on-write"  # the writers make the directory
        idx = index_spectra(4, cache_dir=str(tmp_path))
        assert (tmp_path / "connected-4.g6").exists()
        assert (tmp_path / "spectra-4.tsv").exists()
        again = index_spectra(4, cache_dir=str(tmp_path))
        assert exact_groups(again) == exact_groups(idx)
        # cache rows are graph6 TAB the fingerprint as 16 lowercase hex digits
        lines = (tmp_path / "spectra-4.tsv").read_text().splitlines()
        assert len(lines) == 6
        for line in lines:
            g6, fp = line.split("\t")
            assert fp == f"{spectrum_fingerprint(resistance_matrix(parse_graph6(g6))):016x}"

    def test_corrupt_cache_rejected(self, tmp_path):
        path = spectra_cache_path(str(tmp_path), 3)
        with open(path, "w") as fh:
            fh.write("one-column-only\n")
        with pytest.raises(GraphError, match="graph6<TAB>"):
            index_spectra(3, cache_dir=str(tmp_path))
        # a blank row is malformed too, wherever it stands
        index_spectra(6, cache_dir=str(tmp_path))
        path = spectra_cache_path(str(tmp_path), 6)
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:40] + ["\n"] + lines[40:])
        with pytest.raises(GraphError, match="spectra-6.tsv:41: expected 'graph6<TAB>fingerprint'"):
            index_spectra(6, cache_dir=str(tmp_path))

    @pytest.mark.parametrize("keep", [40, 111])
    def test_truncated_cache_rejected(self, tmp_path, keep):
        index_spectra(6, cache_dir=str(tmp_path))
        path = spectra_cache_path(str(tmp_path), 6)
        with open(path) as fh:
            lines = fh.readlines()
        assert len(lines) == 112
        with open(path, "w") as fh:
            fh.writelines(lines[:keep])
        with pytest.raises(GraphError, match=f"spectra-6.tsv: {keep} classes, expected 112"):
            index_spectra(6, cache_dir=str(tmp_path))

    def test_cache_of_an_order_with_no_known_count_rejected(self, tmp_path):
        # without the cache, order 11 is refused before any work
        k56 = canonical_graph(complete_bipartite(5, 6))
        with open(spectra_cache_path(str(tmp_path), 11), "w") as fh:
            fh.write(f"{to_graph6(k56)}\t{spectrum_fingerprint(resistance_matrix(k56)):016x}\n")
        with pytest.raises(GraphError, match="spectra-11.tsv: no class count is known for n=11"):
            verify_drs(complete_bipartite(5, 6), cache_dir=str(tmp_path))

    def test_build_holds_few_bytes_per_class(self, tmp_path):
        # a Graph, a row tuple and a dict slot per class came to over 500 B;
        # two fingerprint arrays, one graph6 text and the sort's 4-byte
        # positions come to about 105 B at n=7, fixed costs included
        list(enumerate_connected(7))  # the level itself is not counted
        tracemalloc.start()
        try:
            index = index_spectra(7, cache_dir=str(tmp_path), threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index.class_count == 853
        assert peak / index.class_count < 200

    def test_level_build_holds_few_bytes_per_class(self, cache_dir):
        # hashed fingerprints fill every top-byte bucket, 59 classes at most;
        # the sort's positions, the sorted fingerprints and one graph6 text
        # come to about 28 B per class at n=8
        level = enumeration.connected_level(8, cache_dir=cache_dir)
        fingerprints = array("Q", [(b * 0x9E3779B97F4A7C15) & (2**64 - 1) for b in level])
        tracemalloc.start()
        try:
            index = SpectrumIndex.from_level(8, level, fingerprints)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index.class_count == 11117
        assert peak / index.class_count < 40

    def test_cache_written_atomically(self, tmp_path, monkeypatch):
        idx = index_spectra(4, cache_dir=str(tmp_path))
        path = spectra_cache_path(str(tmp_path), 4)
        before = open(path).read()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", fail)
        with pytest.raises(OSError, match="disk full"):
            drs.write_atomic(path, ["C~\t0000000000000000\n"])
        # the old file is intact and no temp file is left behind
        assert open(path).read() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["connected-4.g6", "spectra-4.tsv"]
        monkeypatch.undo()
        assert exact_groups(index_spectra(4, cache_dir=str(tmp_path))) == exact_groups(idx)


def _fingerprint_text(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


class TestFingerprint:
    @pytest.mark.parametrize("g,text", [
        (new_graph(1, []), "1:"),
        (path_graph(3), "1:1,1,2"),
        (cycle_graph(4), "4:3,3,3,3,4,4"),
        (complete_graph(4), "2:1,1,1,1,1,1"),  # det 16, every numerator 8
    ])
    def test_canonical_integer_form(self, g, text):
        assert spectrum_fingerprint(resistance_matrix(g)) == _fingerprint_text(text)

    def test_class_fingerprint_from_bits_matches_the_matrix_path(self):
        # the pair numerators read straight from the adjugate must be the ones
        # laplacian_resistance_matrix reads, in the same digest text
        for n in range(1, 8):
            for g in enumerate_connected(n):
                want = spectrum_fingerprint(resistance_matrix(g))
                assert drs._class_fingerprint(n, g.bits) == want, to_graph6(g)

    def test_spectra_file_pinned(self, tmp_path):
        # a changed digest would orphan every cache built before it
        index_spectra(7, cache_dir=str(tmp_path))
        data = (tmp_path / "spectra-7.tsv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "8ce2faa2f32eb46f4f72ad893d7647c248ea8a1a92a2da633cc1fae23d67a89d")
        # the same rows in canonical-code order are the bytes pinned before the
        # file held the index's order, so no fingerprint moved
        rows = sorted(data.splitlines(keepends=True),
                      key=lambda row: parse_graph6(row.split(b"\t")[0].decode()).bits)
        assert hashlib.sha256(b"".join(rows)).hexdigest() == (
            "77d696c8239eb7619d1e379b77e433f54009c100687fed22cad61d31d0408887")

    def test_reads_the_values_not_the_denominator(self):
        # K3 over its spanning-tree count 3, and the same values over 6
        k3 = resistance_matrix(complete_graph(3))
        scaled = ResistanceMatrix(3, tuple(tuple(2 * x for x in row) for row in k3.nums), 6)
        assert spectrum_fingerprint(scaled) == spectrum_fingerprint(k3)

    def test_groups_as_the_exact_key_on_every_class_up_to_8(self, cache_dir):
        for n in range(1, 9):
            rows, by_key = [], {}
            for g in connected_graphs(n, cache_dir=cache_dir):
                g6 = to_graph6(g)
                rows.append((g6, spectrum_fingerprint(resistance_matrix(g))))
                by_key.setdefault(spectrum_json(g), []).append(g6)
            runs = group_runs(rows)
            assert sorted(runs.values()) == sorted(map(tuple, by_key.values())), n
            # the bisect lookup gives every class the oracle's run, in member order
            index = index_spectra(n, cache_dir=cache_dir)
            for _, fp in rows:
                assert index.run(fp) == runs[fp], n
            assert list(index.fingerprint_runs()) == [runs[fp] for fp in sorted(runs)], n

    def test_order_one(self, tmp_path):
        k1 = new_graph(1, [])
        idx = index_spectra(1, cache_dir=str(tmp_path))
        assert idx.class_count == 1 and idx.run(_fingerprint_text("1:")) == ("@",)
        assert exact_groups(idx) == {"[]": ("@",)}
        assert index_spectra(1, cache_dir=str(tmp_path)) == idx
        verdict = verify_drs(k1, index=idx)
        assert verdict.determined and verdict.spectrum_json == "[]"

    def test_constant_fingerprint_changes_no_result(self, monkeypatch):
        # every class of one order in one run: the exact keys alone must split it
        def results():
            out = []
            for n in range(1, 7):
                idx = index_spectra(n, threads=1)
                verdicts = [verify_drs(g, index=idx).to_json() for g in connected_graphs(n)]
                out.append((exact_groups(idx), find_collisions(n, threads=1), verdicts))
            return out

        before = results()
        monkeypatch.setattr(drs, "graph_fingerprint", lambda g: 0)
        one_run = tuple(map(to_graph6, connected_graphs(6)))
        assert list(index_spectra(6, threads=1).fingerprint_runs()) == [one_run]
        assert results() == before

    def test_parent_format_cache_rejected(self, tmp_path):
        # rows keyed by spectrum JSON, with the right row count
        rows = [f"{to_graph6(g)}\t{spectrum_json(g)}\n" for g in connected_graphs(6)]
        assert len(rows) == 112
        with open(spectra_cache_path(str(tmp_path), 6), "w") as fh:
            fh.writelines(rows)
        with pytest.raises(GraphError, match="spectra-6.tsv:1: expected 'graph6<TAB>fingerprint'"):
            index_spectra(6, cache_dir=str(tmp_path))

    def test_cache_in_canonical_code_order_rejected(self, tmp_path):
        # the row order of a cache written before the file held the index itself
        rows = [(bits_to_graph6(6, bits), drs._class_fingerprint(6, bits))
                for bits in enumeration.connected_level(6)]
        assert rows != sorted(rows, key=lambda row: row[1])
        with open(spectra_cache_path(str(tmp_path), 6), "w") as fh:
            fh.writelines(f"{g6}\t{fp:016x}\n" for g6, fp in rows)
        with pytest.raises(GraphError, match=r"spectra-6\.tsv:\d+: rows not in fingerprint order"):
            index_spectra(6, cache_dir=str(tmp_path))

    def test_row_of_the_wrong_order_rejected(self, tmp_path):
        index_spectra(6, cache_dir=str(tmp_path))
        path = spectra_cache_path(str(tmp_path), 6)
        with open(path) as fh:
            lines = fh.readlines()
        lines[-1] = "D~{\t" + lines[-1].split("\t")[1]  # K5, keeping the row count
        with open(path, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(GraphError, match="spectra-6.tsv:112: 'D~{' is not a graph6 string of order 6"):
            index_spectra(6, cache_dir=str(tmp_path))


class TestVerdicts:
    def test_k22_determined(self):
        verdict = verify_drs(complete_bipartite(2, 2))
        assert verdict.determined
        assert verdict.theorem_tag == TAG_BALANCED
        assert verdict.impostors == ()
        assert verdict.order == 4

    def test_star_determined(self):
        verdict = verify_drs(new_graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert verdict.determined and verdict.theorem_tag == TAG_CONJECTURE

    def test_k33_determined_exhaustively(self):
        verdict = verify_drs(complete_bipartite(3, 3))
        assert verdict.determined and verdict.theorem_tag == TAG_BALANCED

    def test_non_bipartite_tag(self):
        verdict = verify_drs(complete_graph(3))
        assert verdict.theorem_tag == TAG_NOT_KMN

    def test_index_reuse_and_mismatch(self):
        idx = index_spectra(4)
        assert verify_drs(cycle_graph(4), index=idx).determined
        with pytest.raises(GraphError, match="order"):
            verify_drs(path_graph(3), index=idx)
        with pytest.raises(GraphError, match="target missing from its run"):
            verify_drs(cycle_graph(4), index=_index(4, []))

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="connected"):
            verify_drs(new_graph(3, [(0, 1)]))

    def test_verdict_invariant(self):
        with pytest.raises(ValueError):
            DrsVerdict("A_", 2, True, TAG_BALANCED, ("Bw",), "[]")

    def test_impostor_that_is_not_cospectral_is_rejected(self, monkeypatch):
        target = complete_bipartite(2, 2)
        me = to_graph6(canonical_graph(target))
        other = to_graph6(canonical_graph(path_graph(4)))
        fp = spectrum_fingerprint(resistance_matrix(target))
        index = _index(4, [(me, fp), (other, fp)])
        # a non-cospectral member of the target's run is split off by its exact key
        assert verify_drs(target, index=index).determined
        # so only a wrong exact key can make it an impostor, and re-verification catches it
        key = spectrum_json(target)
        monkeypatch.setattr(drs, "spectrum_json", lambda g: key)
        with pytest.raises(GraphError, match="re-verification"):
            verify_drs(target, index=index)

    def test_cospectral_impostor_is_reported(self):
        a, b = COSPECTRAL_PAIR_9
        key = spectrum_json(parse_graph6(a))
        fp = spectrum_fingerprint(resistance_matrix(parse_graph6(a)))
        index = _index(9, [(a, fp), (b, fp)])
        verdict = verify_drs(parse_graph6(a), index=index)
        assert not verdict.determined and verdict.impostors == (b,)
        assert verdict.spectrum_json == key == spectrum_json(parse_graph6(b))

    def test_corrupted_runs_cannot_confirm_an_impostor(self, monkeypatch):
        # doubling the largest value still gives a valid spectrum, so only a
        # re-check that does not read the runs can see the key is wrong
        # resspec.resistance would give the function the package exports under that name
        module = importlib.import_module("resspec.resistance")
        real = module._spectrum_runs

        def corrupted(rm):
            runs = real(rm)
            num, den, mult = runs[-1]
            top = Fraction(2 * num, den)
            return runs[:-1] + [(top.numerator, top.denominator, mult)]

        monkeypatch.setattr(module, "_spectrum_runs", corrupted)
        a, b = COSPECTRAL_PAIR_9
        key = spectrum_json(parse_graph6(a))
        assert key == resistance_spectrum(parse_graph6(b)).to_json()
        fp = spectrum_fingerprint(resistance_matrix(parse_graph6(a)))
        index = _index(9, [(a, fp), (b, fp)])
        with pytest.raises(GraphError, match="re-verification"):
            verify_drs(parse_graph6(a), index=index)

    def test_verdict_json(self):
        doc = verify_drs(complete_bipartite(1, 1)).to_json_dict()
        assert doc["determined"] is True
        assert doc["target"] == "A_"
        assert doc["spectrum"] == [["1", 1]]


class TestTheoremSweep:
    def test_up_to_six(self, cache_dir):
        verdicts = check_theorems(6, cache_dir=cache_dir)
        by_tag = {}
        for v in verdicts:
            by_tag.setdefault(v.theorem_tag, []).append(v)
        # every proven-shape instance must be determined
        for tag in PROVEN_TAGS:
            for v in by_tag.get(tag, []):
                assert v.determined, v.to_json()
        # the sweep covers K_{1,5}, K_{2,4}, K_{3,3} at six vertices
        targets = {v.target_graph6 for v in verdicts}
        from resspec.enumeration import canonical_graph
        from resspec.graphs import to_graph6

        for m, n in [(1, 5), (2, 4), (3, 3)]:
            assert to_graph6(canonical_graph(complete_bipartite(m, n))) in targets

    def test_deterministic(self, cache_dir):
        a = [v.to_json() for v in check_theorems(5, cache_dir=cache_dir)]
        b = [v.to_json() for v in check_theorems(5, cache_dir=cache_dir)]
        assert a == b


class TestCollisions:
    def test_small_orders_empty(self):
        assert find_collisions(3).pairs == ()
        assert find_collisions(4).pairs == ()
        assert find_collisions(5).pairs == ()

    def test_report_json(self):
        report = find_collisions(4)
        doc = report.to_json_dict()
        assert doc == {"order": 4, "pair_count": 0, "pairs": []}

    def test_pairs_reverify(self, monkeypatch):
        # n <= 8 has no pairs, so the known n=9 pair comes through a one-run index
        a, b = COSPECTRAL_PAIR_9
        fp = spectrum_fingerprint(resistance_matrix(parse_graph6(a)))
        one_run = _index(9, [(a, fp), (b, fp)])
        monkeypatch.setattr(drs, "index_spectra", lambda n, **kw: one_run)
        report = find_collisions(9)
        assert report.pairs == ((a, b, spectrum_json(parse_graph6(a))),)
        ga, gb = parse_graph6(a), parse_graph6(b)
        assert not are_isomorphic(ga, gb)
        assert resistance_spectrum(ga).to_json() == report.pairs[0][2]
        assert resistance_spectrum(gb).to_json() == report.pairs[0][2]

    def test_run_out_of_canonical_order_rejected(self, monkeypatch):
        # the pair's rows in the wrong order would print as "b a"
        a, b = COSPECTRAL_PAIR_9
        fp = spectrum_fingerprint(resistance_matrix(parse_graph6(a)))
        swapped = _index(9, [(b, fp), (a, fp)])
        message = f"^spectrum index is inconsistent: run {fp:016x} is not in canonical-code order$"
        with pytest.raises(GraphError, match=message):
            swapped.run(fp)
        monkeypatch.setattr(drs, "index_spectra", lambda n, **kw: swapped)
        with pytest.raises(GraphError, match=message):
            find_collisions(9)

    def test_swapped_rows_of_one_cached_run_rejected(self, monkeypatch, tmp_path):
        # one fingerprint for every class puts all of spectra-5.tsv in one run
        monkeypatch.setattr(drs, "graph_fingerprint", lambda g: 0)
        assert find_collisions(5, cache_dir=str(tmp_path)).pairs == ()
        path = tmp_path / "spectra-5.tsv"
        rows = path.read_text().splitlines(keepends=True)
        rows[3], rows[4] = rows[4], rows[3]
        path.write_text("".join(rows))
        with pytest.raises(GraphError, match="run 0{16} is not in canonical-code order"):
            find_collisions(5, cache_dir=str(tmp_path))

    def test_isomorphic_pair_rejected(self):
        a, b = to_graph6(path_graph(3)), to_graph6(new_graph(3, [(0, 1), (0, 2)]))
        assert a != b
        with pytest.raises(GraphError, match="is isomorphic; index is broken"):
            drs._reverify_pair(a, b, spectrum_json(path_graph(3)))

    def test_reverify_needs_no_canonical_form(self, monkeypatch):
        # the pair differs in degree sequence, which settles non-isomorphism
        a, b = COSPECTRAL_PAIR_9
        key = spectrum_json(parse_graph6(a))

        def never(g):
            raise AssertionError("canonical_form called")

        monkeypatch.setattr(drs, "canonical_form", never, raising=False)
        monkeypatch.setattr(enumeration, "canonical_form", never)
        drs._reverify_pair(a, b, key)
