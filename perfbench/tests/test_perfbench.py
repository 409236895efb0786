"""The benchmark's own tests: python3 -m pytest perfbench/tests"""

import json
import os
import random
import sys
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def _span(i, parent, start, end):
    return {"id": i, "parent": parent, "name": f"s{i}", "start": start, "end": end}


def test_self_time_subtracts_union_of_nested_and_overlapping_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),   # overlaps span 2
        _span(2, 0, 3.0, 6.0),
        _span(3, 0, 8.0, 12.0),  # runs past its parent: clipped at 10
        _span(4, 1, 2.0, 3.0),   # grandchild: counts against span 1 only
        _span(5, 0, 4.5, 5.5),   # inside span 2's interval: no double count
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == 10.0 - (5.0 + 2.0)
    assert selfs[1] == 3.0 - 1.0
    assert selfs[2] == 3.0
    assert selfs[3] == 4.0
    assert selfs[4] == 1.0


def test_tracer_records_parent_links_and_writes_at_the_end(tmp_path):
    tracer = tracing.Tracer("run-1")
    with tracer.span("outer"):
        with tracer.span("inner", n=3):
            pass
    path = tmp_path / "spans.json"
    tracer.write(str(path))
    outer, inner = json.loads(path.read_text())
    assert outer["parent"] is None and inner["parent"] == outer["id"]
    assert inner["n"] == 3 and inner["run"] == "run-1"
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_instrument_wraps_layers_and_restores_them():
    from resspec import new_graph

    resistance = __import__("importlib").import_module("resspec.resistance")
    original = resistance.resistance_matrix
    tracer = tracing.Tracer("t")
    restore = tracing.instrument(tracer)
    try:
        resistance.resistance_spectrum(new_graph(4, [(0, 1), (1, 2), (2, 3)])).to_json()
    finally:
        restore()
    assert resistance.resistance_matrix is original
    spans = tracer.records()
    names = [s["name"] for s in spans]
    assert names[0] == "resistance.resistance_spectrum"
    matrix = spans[names.index("resistance.resistance_matrix")]
    assert matrix["parent"] == spans[0]["id"] and matrix["n"] == 4
    metrics = tracing.layer_metrics(spans, {})
    assert metrics["resistance.pairs"] == 6
    assert set(metrics) | {"cli.startup_s", "trace.overhead_s"} == {
        name for name, _, _ in tracing.LAYER_METRICS}


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(10_000) == 99.9
    assert run.tail_percentile(1_000) == 99
    assert run.tail_percentile(999) == 95
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(19) is None
    xs = list(range(1, 1001))
    assert run.percentile(xs, 99) == 990  # ten samples (991..1000) lie beyond


def test_stream_tail_is_per_iteration_when_each_iteration_supports_it():
    quiet = {"latencies": [1.0] * 1000}
    burst = {"latencies": [1.0] * 980 + [50.0] * 20}
    assert run.stream_percentile([quiet, burst, quiet], 99) == 1.0
    small = {"latencies": [1.0] * 392 + [9.0] * 8}
    # 400 samples per iteration cannot carry a p99: pool the 1,200
    assert run.stream_percentile([small, small, small], 99) == 9.0
    assert run.stream_percentile([small], 99) == 1.0  # only p95 is supported


def test_failed_frac_counts_an_injected_wrong_expectation(monkeypatch):
    # a wrong C(n,2) expectation makes every spectrum check fail
    monkeypatch.setattr(worker, "SPECTRA_PER_CELL", 1)
    it = worker.Iteration({"seed": gen.DEV_SEED})
    worker.iterate_spectra(it, None)
    assert it.failed == 0 and it.attempted == 36
    monkeypatch.setattr(worker, "comb", lambda n, k: comb(n, k) + 1)
    it = worker.Iteration({"seed": gen.DEV_SEED})
    worker.iterate_spectra(it, None)
    assert it.failed == it.attempted == 36
    assert run.failed_frac(it.attempted, it.failed) == 1.0


def test_enumerate_check_rejects_wrong_counts_and_digest():
    text = "".join(f"g{i}\n" for i in range(6))
    outputs = {4: (0, text)}
    sha = __import__("hashlib").sha256(text.encode()).hexdigest()
    assert worker.check_enumerate(outputs, gen.OEIS_A001349, sha) == []
    wrong = list(gen.OEIS_A001349)
    wrong[3] = 7
    assert len(worker.check_enumerate(outputs, wrong, sha)) == 1
    assert len(worker.check_enumerate(outputs, gen.OEIS_A001349, "0" * 64)) == 1


def test_generators_are_deterministic_per_seed():
    for make in (
        lambda s: gen.spectra_inputs(s, 2),
        lambda s: gen.drs_queries(s, 30),
        lambda s: gen.reduction_trials(s, 30),
        lambda s: gen.reduction_trials(s, 30, part=2),
    ):
        assert make(gen.DEV_SEED) == make(gen.DEV_SEED)
        assert gen.digest(make(gen.DEV_SEED)) == gen.digest(make(gen.DEV_SEED))
        assert make(gen.DEV_SEED) != make(gen.HELDOUT_SEED)
    assert gen.reduction_trials(1, 30, part=0) != gen.reduction_trials(1, 30, part=1)


def test_generated_text_is_what_resspec_reads():
    from resspec import is_connected, new_graph, parse_graph6, to_graph6

    rng = random.Random(5)
    for n in range(2, 15):
        edges = gen.random_connected(rng, n, 0.3)
        g = new_graph(n, edges)
        assert is_connected(g)
        assert gen.graph6(n, edges) == to_graph6(g)
        assert parse_graph6(gen.graph6(n, edges)) == g
    for trial in gen.reduction_trials(gen.DEV_SEED, 12):
        assert worker.run_trial(trial) is True


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.LAYER_METRICS]
