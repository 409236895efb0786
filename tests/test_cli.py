import contextlib
import hashlib
import io
import json
import os
import shutil
from decimal import getcontext, localcontext
import subprocess
import sys

import pytest

from resspec.cli import main
from resspec.enumeration import canonical_graph, enumerate_connected
from resspec.graphs import complete_bipartite, path_graph, to_graph6
from resspec.resistance import resistance_matrix, spectrum_fingerprint

K23 = to_graph6(complete_bipartite(2, 3))


def _with_trailer(payload):
    return payload + f"#sha256:{hashlib.sha256(payload.encode('ascii')).hexdigest()}\n"


def _bogus_cache(name):
    """A well-formed cache file for an order with no known class count."""
    k56 = canonical_graph(complete_bipartite(5, 6))
    fingerprint = spectrum_fingerprint(resistance_matrix(k56))
    return {
        "spectra-11.tsv": f"{to_graph6(k56)}\t{fingerprint:016x}\n",
        "connected-11.g6": _with_trailer(to_graph6(k56) + "\n"),
        "connected-0.g6": _with_trailer(""),
    }[name]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestResistanceCommand:
    def test_k23_cross(self, capsys):
        code, out, _ = run_cli(capsys, "resistance", K23, "0", "2")
        assert code == 0 and out == "2/3\n"

    def test_k2(self, capsys):
        code, out, _ = run_cli(capsys, "resistance", "A_", "0", "1")
        assert code == 0 and out == "1\n"

    def test_disconnected_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "resistance", "B?", "0", "1")
        assert code == 1 and "infinite resistance" in err

    def test_decimal_marked(self, capsys):
        code, out, _ = run_cli(capsys, "resistance", K23, "0", "2", "--decimal")
        assert code == 0 and out == "2/3 ~ 0.666666666667\n"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "resistance", K23, "0", "2", "--output", "json")
        assert code == 0
        assert json.loads(out) == {"graph6": K23, "u": 0, "v": 2, "resistance": "2/3"}


class TestSpectrumCommand:
    def test_k23(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", K23)
        assert code == 0 and out == '[["2/3",7],["1",3]]\n'

    def test_k2(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "A_")
        assert code == 0 and out == '[["1",1]]\n'

    def test_p3(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", to_graph6(path_graph(3)))
        assert code == 0 and out == '[["1",2],["2",1]]\n'

    def test_stdin_batch(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("A_\nBg\n"))
        code, out, _ = run_cli(capsys, "spectrum")
        assert code == 0
        assert out == 'A_\t[["1",1]]\nBg\t[["1",2],["2",1]]\n'

    def test_malformed_graph6(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "A_x")
        assert code == 1 and "byte offset" in err

    @pytest.mark.parametrize("flags,digest", [
        (["--output", "json", "--decimal"],
         "56bbeb717cc85af0667d6b6b82654faca9fb35aefc8c7b8a822e1d510d8c713d"),
        ([], "abeffc0030e831d309e6d80e5a686600077f72ad5f81ceb455798c614d586698"),
        (["--output", "tsv", "--decimal"],
         "60fc22a612b2d7b9c6fd3e711eeca4d65f8ae0db4973d30168c20b993d67bbca"),
    ], ids=["json-decimal", "human", "tsv-decimal"])
    def test_every_class_up_to_7_is_pinned(self, capsys, monkeypatch, flags, digest):
        lines = [to_graph6(g) for n in range(1, 8) for g in enumerate_connected(n)]
        assert len(lines) == 996
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(t + "\n" for t in lines)))
        code, out, _ = run_cli(capsys, "spectrum", *flags)
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    def test_decimal_leaves_caller_context_alone(self, capsys):
        with localcontext() as ctx:
            ctx.prec = 50
            code, out, _ = run_cli(capsys, "spectrum", K23, "--decimal")
            assert code == 0 and "~0.666666666667x7" in out
            assert getcontext().prec == 50


class TestVerifyDrsCommand:
    def test_kmn_22(self, capsys):
        code, out, _ = run_cli(capsys, "verify-drs", "--kmn", "2", "2", "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["determined"] is True and doc["theorem_tag"] == "Thm3.1"

    def test_conjecture_case_reports_and_exits_zero(self, capsys, cache_dir):
        code, out, _ = run_cli(
            capsys, "verify-drs", "--kmn", "3", "5", "--max-n", "8",
            "--cache-dir", cache_dir, "--threads", "2", "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["theorem_tag"] == "conjecture-only"

    def test_invalid_part_size(self, capsys):
        code, _, err = run_cli(capsys, "verify-drs", "--kmn", "0", "3")
        assert code == 1 and "part sizes" in err

    def test_order_above_max_n(self, capsys):
        code, _, err = run_cli(capsys, "verify-drs", "--kmn", "4", "6")
        assert code == 1 and "--max-n" in err

    def test_kmn_above_max_n_builds_no_graph(self, capsys, monkeypatch):
        from resspec import cli

        monkeypatch.setattr(cli, "complete_bipartite", None)
        code, out, err = run_cli(capsys, "verify-drs", "--kmn", "400", "500")
        assert code == 1 and out == "" and "--max-n" in err

    @pytest.mark.parametrize("max_n", ["-3", "0", "11"])
    def test_max_n_outside_range_fails_before_any_work(self, capsys, monkeypatch, max_n):
        from resspec import drs

        monkeypatch.setattr(drs, "check_theorems", None)
        monkeypatch.setattr(drs, "index_spectra", None)
        code, out, err = run_cli(capsys, "verify-drs", "--all", "--max-n", max_n)
        assert code == 1 and out == "" and "--max-n" in err

    def test_graph_target(self, capsys):
        code, out, _ = run_cli(capsys, "verify-drs", "--graph", "Bw", "--output", "human")
        assert code == 0 and "determined" in out

    @pytest.fixture
    def index_calls(self, monkeypatch):
        """The orders that drs.index_spectra is called for, in call order."""
        from resspec import drs

        calls = []
        real = drs.index_spectra

        def counting(n, **kwargs):
            calls.append(n)
            return real(n, **kwargs)

        monkeypatch.setattr(drs, "index_spectra", counting)
        return calls

    def test_stdin_targets_share_one_index_per_order(self, capsys, monkeypatch, index_calls):
        targets = [K23, to_graph6(path_graph(5)), to_graph6(complete_bipartite(1, 4))]
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(t + "\n" for t in targets)))
        code, out, _ = run_cli(capsys, "verify-drs", "--output", "tsv")
        assert code == 0 and len(out.splitlines()) == 3
        assert index_calls == [5]

    @pytest.mark.parametrize("argv,lines,orders", [
        (["--all", "--max-n", "5"], 6, [2, 3, 4, 5]),
        (["--kmn", "2", "3"], 1, [5]),
    ], ids=["all", "kmn"])
    def test_every_mode_builds_each_orders_index_once(self, capsys, index_calls,
                                                      argv, lines, orders):
        code, out, _ = run_cli(capsys, "verify-drs", *argv, "--output", "tsv")
        assert code == 0 and len(out.splitlines()) == lines
        assert index_calls == orders

    def test_malformed_stdin_target_fails_before_any_index(self, capsys, monkeypatch,
                                                           index_calls):
        monkeypatch.setattr(sys, "stdin", io.StringIO(K23 + "\nD~x\n"))
        code, out, err = run_cli(capsys, "verify-drs")
        assert code == 1 and out == "" and "byte offset" in err
        assert index_calls == []

    def test_disconnected_stdin_target_builds_no_index(self, capsys, monkeypatch):
        from resspec import drs

        monkeypatch.setattr(drs, "index_spectra", None)
        monkeypatch.setattr(sys, "stdin", io.StringIO("B?\n"))
        code, _, err = run_cli(capsys, "verify-drs")
        assert code == 1 and "connected graphs" in err

    def test_one_vertex_target_is_not_complete_bipartite(self, capsys):
        code, out, _ = run_cli(capsys, "verify-drs", "--graph", "@", "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["theorem_tag"] == "not-complete-bipartite" and doc["determined"] is True

    def test_conflicting_selectors(self, capsys):
        code, _, err = run_cli(capsys, "verify-drs", "--kmn", "1", "1", "--all")
        assert code == 1 and "choose one" in err


class TestEnumerateCommand:
    def test_n4(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "4")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 6

    def test_n8_stdout_is_pinned(self, capsys):
        # the class counts alone would not notice every code changing consistently
        code, out, _ = run_cli(capsys, "enumerate", "8")
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
            "47fbec3f2ba835faf71994ab8a9389aa3d9822cd36515f028c042a4dc003b936"
        )

    def test_non_ascii_byte_in_cache_reported_as_checksum_mismatch(self, capsys, tmp_path):
        assert run_cli(capsys, "enumerate", "4", "--cache-dir", str(tmp_path))[0] == 0
        path = tmp_path / "connected-4.g6"
        data = bytearray(path.read_bytes())
        data[1] = 0xFF
        path.write_bytes(bytes(data))
        code, out, err = run_cli(capsys, "enumerate", "4", "--cache-dir", str(tmp_path))
        assert code == 1 and out == ""
        assert "connected-4.g6: checksum mismatch" in err

    def test_guard(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "10")
        assert code == 1 and "n=10 needs --allow-ten" in err

    @pytest.mark.parametrize("command", ["enumerate", "collisions"])
    def test_guard_names_the_cli_flag(self, capsys, monkeypatch, command):
        # the refusal comes before any level or index is built
        from resspec import drs, enumeration

        def never(*args, **kwargs):
            raise AssertionError("n=10 work started without --allow-ten")

        monkeypatch.setattr(drs, "index_spectra", never)
        monkeypatch.setattr(enumeration, "connected_level", never)
        code, out, err = run_cli(capsys, command, "10")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "--allow-ten" in err
        assert "allow_ten" not in err

    @pytest.mark.parametrize(
        "argv,cached", [
            (("enumerate", "0"), None),
            (("collisions", "11", "--allow-ten"), None),
            (("collisions", "11"), "spectra-11.tsv"),
            (("enumerate", "11"), "connected-11.g6"),
            (("enumerate", "0"), "connected-0.g6"),
        ],
        ids=["enumerate-0", "collisions-11", "collisions-11-cached", "enumerate-11-cached",
             "enumerate-0-cached"],
    )
    def test_orders_outside_the_library_range(self, capsys, tmp_path, argv, cached):
        if cached is None:
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == ""
            assert f"enumeration supports 1 <= n <= 10, got {argv[1]}" in err
            return
        # a cache hit must not get past the range check
        (tmp_path / cached).write_text(_bogus_cache(cached))
        code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 1 and out == ""
        assert f"{cached}: no class count is known for n={argv[1]}" in err
        assert "None" not in err

    def test_cache_dir_alone_writes_the_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("RESIST_CACHE_DIR", raising=False)
        code, out, _ = run_cli(capsys, "enumerate", "4", "--cache-dir", str(tmp_path))
        assert code == 0 and len(out.splitlines()) == 6
        assert (tmp_path / "connected-4.g6").exists()

    def test_cache_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RESIST_CACHE_DIR", str(tmp_path))
        code, out, _ = run_cli(capsys, "enumerate", "4")
        assert code == 0 and (tmp_path / "connected-4.g6").exists()

    @pytest.mark.parametrize("argv", [("enumerate", "8"), ("verify-drs", "--kmn", "4", "4"),
                                      ("collisions", "8")], ids=lambda argv: argv[0])
    def test_cache_dir_that_is_a_file_rejected_before_any_level(self, capsys, tmp_path,
                                                                 monkeypatch, argv):
        from array import array
        from resspec import enumeration

        def never(*args):
            raise AssertionError("a level was built for a --cache-dir that is a file")

        monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {1: array("Q", [0])})
        monkeypatch.setattr(enumeration, "_expand_parent", never)
        path = tmp_path / "not-a-directory"
        path.write_text("")
        code, out, err = run_cli(capsys, *argv, "--cache-dir", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "File exists" in err and str(path) in err


class TestCollisionsCommand:
    def test_empty_at_four(self, capsys):
        code, out, _ = run_cli(capsys, "collisions", "4", "--output", "json")
        assert code == 0
        assert json.loads(out)["pair_count"] == 0

    def test_human_message(self, capsys):
        code, out, _ = run_cli(capsys, "collisions", "3")
        assert code == 0 and "no resistance-cospectral pairs" in out

    # spectra-5.tsv rows are 21 bytes: byte 22 is in row 2's graph6, byte 30 in its fingerprint
    @pytest.mark.parametrize("offset", [22, 30], ids=["graph6", "fingerprint"])
    def test_non_ascii_byte_in_cache_named_by_file_and_line(self, capsys, tmp_path, offset):
        assert run_cli(capsys, "collisions", "5", "--cache-dir", str(tmp_path))[0] == 0
        path = tmp_path / "spectra-5.tsv"
        data = bytearray(path.read_bytes())
        data[offset] = 0xE9
        path.write_bytes(bytes(data))
        code, out, err = run_cli(capsys, "collisions", "5", "--cache-dir", str(tmp_path))
        assert code == 1 and out == ""
        assert "spectra-5.tsv:2: " in err


class TestCheckLemmasCommand:
    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "check-lemmas", "--max-n", "4")
        assert code == 0
        assert out.startswith("0 failures across 10 connected graphs")

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "check-lemmas", "--max-n", "3", "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["failures_total"] == 0 and doc["graphs_checked"] == 4

    @pytest.mark.parametrize("max_n", ["12", "0"])
    def test_max_n_outside_guard_fails_before_any_work(self, capsys, monkeypatch, max_n):
        from resspec import lemmas

        calls = []
        monkeypatch.setattr(lemmas, "enumerate_connected", lambda n, **kw: calls.append(n) or [])
        code, _, err = run_cli(capsys, "check-lemmas", "--max-n", max_n)
        assert code == 1 and "--max-n" in err
        assert calls == []

    def test_max_n_out_of_range_names_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "check-lemmas", "--max-n", "10")
        assert code == 1 and out == ""
        assert err == "error: --max-n must be in 1..9, got 10\n"


class TestReduceCommand:
    def test_series_then_output(self, capsys, tmp_path):
        net = tmp_path / "net.txt"
        net.write_text("3 2\n0 1 1\n1 2 2\n")
        code, out, _ = run_cli(capsys, "reduce", str(net), "series:1")
        assert code == 0 and out == "2 1\n0 1 3\n"

    def test_parallel_step(self, capsys, tmp_path):
        net = tmp_path / "net.txt"
        net.write_text("2 2\n0 1 1\n0 1 1\n")
        code, out, _ = run_cli(capsys, "reduce", str(net), "parallel:0,1")
        assert code == 0 and out == "2 1\n0 1 1/2\n"

    def test_unknown_step(self, capsys, tmp_path):
        net = tmp_path / "net.txt"
        net.write_text("2 1\n0 1 1\n")
        code, _, err = run_cli(capsys, "reduce", str(net), "stare:0")
        assert code == 1 and "unknown step" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "reduce", "/nonexistent/net.txt")
        assert code == 1

    def test_bad_vertex_id_names_the_line(self, capsys, tmp_path):
        net = tmp_path / "net.txt"
        net.write_text("3 1\nz 2 1\n")
        code, out, err = run_cli(capsys, "reduce", str(net))
        assert code == 1 and out == ""
        assert "bad edge line 'z 2 1'" in err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("reduce", "NET", "--threads", "2"),
        ("resistance", "A_", "0", "1", "--cache-dir", "DIR"),
        ("spectrum", "A_", "--threads", "2"),
        ("verify-drs", "--kmn", "1", "1", "--decimal"),
        ("collisions", "3", "--decimal"),
        ("enumerate", "4", "--output", "json"),
        ("check-lemmas", "--max-n", "3", "--cache-dir", "DIR"),
        ("check-lemmas", "--max-n", "3", "--output", "tsv"),
    ])
    def test_flag_the_command_does_not_read(self, capsys, tmp_path, argv):
        net = tmp_path / "net.txt"
        net.write_text("2 1\n0 1 1\n")
        argv = [{"NET": str(net), "DIR": str(tmp_path)}.get(a, a) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err or "invalid choice" in err

    def test_bad_threads(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "4", "--threads", "0")
        assert code == 1 and "--threads" in err


class TestDeterminism:
    def test_identical_output_across_thread_counts(self):
        # end-to-end: fresh processes so nothing is cached in memory
        cmd = [sys.executable, "-m", "resspec.cli", "enumerate", "6"]
        one = subprocess.run(cmd + ["--threads", "1"], capture_output=True, check=True)
        two = subprocess.run(cmd + ["--threads", "2"], capture_output=True, check=True)
        assert one.stdout == two.stdout and len(one.stdout.splitlines()) == 112


# The fault matrix: both caches built to order 6, one fault applied to a fresh
# copy, then each command run on it. A run must exit 1 with an error, or print
# exactly what it prints on the clean caches.
FAULT_COMMANDS = {
    "enumerate": ("enumerate", "6"),
    "verify-drs": ("verify-drs", "--all", "--max-n", "6", "--output", "json"),
    "collisions": ("collisions", "6", "--output", "json"),
}
# the commands that read each faulted file once both caches exist
FAULT_READERS = {"connected-6.g6": ("enumerate",), "spectra-6.tsv": ("verify-drs", "collisions")}


def _flip_fingerprint_bit(line):
    g6, fp = line.rstrip(b"\n").split(b"\t")
    return g6 + b"\t" + b"%016x\n" % (int(fp, 16) ^ 1)


def _exchange_fingerprints(a, b):
    (ga, fa), (gb, fb) = a.split(b"\t"), b.split(b"\t")
    return [ga + b"\t" + fb, gb + b"\t" + fa]


# fault name -> (lines of the file, lines of the same cache at order 5) -> new lines
CACHE_FAULTS = {
    "row-dropped": lambda lines, lower: lines[:5] + lines[6:],
    "row-duplicated": lambda lines, lower: lines[:6] + lines[5:],
    "rows-swapped": lambda lines, lower: lines[:5] + [lines[6], lines[5]] + lines[7:],
    "byte-flipped": lambda lines, lower: (
        lines[:5] + [lines[5][:1] + bytes([lines[5][1] ^ 1]) + lines[5][2:]] + lines[6:]),
    "trailer-removed": lambda lines, lower: lines[:-1],
    "cut-mid-row": lambda lines, lower: lines[:50] + [lines[50][:3]],
    "crlf": lambda lines, lower: [line.replace(b"\n", b"\r\n") for line in lines],
    "wrong-order": lambda lines, lower: lower,
    "fingerprint-bit-flipped": lambda lines, lower: (
        lines[:5] + [_flip_fingerprint_bit(lines[5])] + lines[6:]),
    "fingerprints-exchanged": lambda lines, lower: (
        lines[:5] + _exchange_fingerprints(lines[5], lines[6]) + lines[7:]),
}
FAULT_CASES = [
    *(("connected-6.g6", fault) for fault in (
        "row-dropped", "row-duplicated", "rows-swapped", "byte-flipped", "trailer-removed",
        "cut-mid-row", "crlf", "wrong-order")),
    *(("spectra-6.tsv", fault) for fault in (
        "row-dropped", "row-duplicated", "rows-swapped", "byte-flipped", "cut-mid-row", "crlf",
        "wrong-order", "fingerprint-bit-flipped", "fingerprints-exchanged")),
]
# faults the file's reader must reject, naming the file, in every command that reads it.
# The spectra cache has no checksum yet: its reader checks the row count, each row's
# format with lines split at LF alone, and that no row's fingerprint is smaller than
# the row before, so a flipped graph6 byte or fingerprint bit that keeps that order
# can only be caught where a verdict's target is a changed row
REJECTED_BY_READER = {
    *(("connected-6.g6", fault) for fault in CACHE_FAULTS),
    *(("spectra-6.tsv", fault) for fault in ("row-dropped", "row-duplicated", "rows-swapped",
                                              "cut-mid-row", "crlf", "wrong-order",
                                              "fingerprints-exchanged")),
}


def _run_main(argv):
    # run_cli needs capsys, which a module-scoped fixture cannot take
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def clean_caches(tmp_path_factory):
    """Both caches built to order 6, and each fault-matrix command's stdout on them."""
    root = tmp_path_factory.mktemp("clean-caches")
    outputs = {}
    for name, argv in FAULT_COMMANDS.items():
        code, outputs[name], err = _run_main([*argv, "--cache-dir", str(root)])
        assert code == 0 and err == ""
    assert {"connected-6.g6", "spectra-6.tsv"} <= set(os.listdir(root))
    return root, outputs


class TestCacheFaultMatrix:
    @pytest.mark.parametrize("name,fault", FAULT_CASES,
                             ids=[f"{name.split('-')[0]}-{fault}" for name, fault in FAULT_CASES])
    def test_fault_fails_loudly_or_changes_nothing(self, tmp_path, clean_caches, name, fault):
        root, clean = clean_caches
        shutil.copytree(root, tmp_path, dirs_exist_ok=True)
        path = tmp_path / name
        lines = path.read_bytes().splitlines(keepends=True)
        lower = (tmp_path / name.replace("-6.", "-5.")).read_bytes().splitlines(keepends=True)
        faulted = b"".join(CACHE_FAULTS[fault](lines, lower))
        assert faulted != path.read_bytes()
        path.write_bytes(faulted)
        for command, argv in FAULT_COMMANDS.items():
            code, out, err = _run_main([*argv, "--cache-dir", str(tmp_path)])
            if (name, fault) in REJECTED_BY_READER and command in FAULT_READERS[name]:
                assert code == 1 and name in err, command
            if code == 0:
                assert out == clean[command] and err == "", command
            else:
                assert code == 1 and out == "" and err.startswith("error: "), command
