import io
import json
from decimal import getcontext, localcontext
import subprocess
import sys

import pytest

from resspec.cli import main
from resspec.graphs import complete_bipartite, path_graph, to_graph6

K23 = to_graph6(complete_bipartite(2, 3))


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

    def test_graph_target(self, capsys):
        code, out, _ = run_cli(capsys, "verify-drs", "--graph", "Bw", "--output", "human")
        assert code == 0 and "determined" in out

    def test_conflicting_selectors(self, capsys):
        code, _, err = run_cli(capsys, "verify-drs", "--kmn", "1", "1", "--all")
        assert code == 1 and "choose one" in err


class TestEnumerateCommand:
    def test_n4(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "4")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 6

    def test_guard(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "10")
        assert code == 1 and "allow_ten" in err

    def test_cache_flag_needs_dir(self, capsys, monkeypatch):
        monkeypatch.delenv("RESIST_CACHE_DIR", raising=False)
        code, _, err = run_cli(capsys, "enumerate", "4", "--cache")
        assert code == 1 and "--cache-dir" in err

    def test_cache_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RESIST_CACHE_DIR", str(tmp_path))
        code, out, _ = run_cli(capsys, "enumerate", "4", "--cache")
        assert code == 0 and (tmp_path / "connected-4.g6").exists()


class TestCollisionsCommand:
    def test_empty_at_four(self, capsys):
        code, out, _ = run_cli(capsys, "collisions", "4", "--output", "json")
        assert code == 0
        assert json.loads(out)["pair_count"] == 0

    def test_human_message(self, capsys):
        code, out, _ = run_cli(capsys, "collisions", "3")
        assert code == 0 and "no resistance-cospectral pairs" in out


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


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

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
