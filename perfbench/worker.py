"""One measured iteration of one workload, in a fresh interpreter.

run.py starts this script once per iteration, so no in-process cache of
resspec (such as the enumeration level cache) survives from one iteration
to the next. Usage: worker.py '<json config>'. The result is written as
JSON to the config's "result" path.

An iteration has three phases: set-up (interpreter start, imports, input
generation), the timed phase (the program's work, and nothing else), and
the checks of every output, which are not timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import sys
import time
from fractions import Fraction
from math import comb

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import tracing  # noqa: E402
from resspec import cli, drs, enumeration, graphs, lemmas, reduction  # noqa: E402

# the package re-exports a function named `resistance`, hiding the module
resistance = importlib.import_module("resspec.resistance")

# sha256 of `resspec enumerate 8` stdout; outputs must stay byte-identical
ENUMERATE_8_SHA256 = "47fbec3f2ba835faf71994ab8a9389aa3d9822cd36515f028c042a4dc003b936"

SPECTRA_PER_CELL = 60      # 9 orders x 4 densities x 60 = 2,160 graphs
SPECTRA_PAIR_EVERY = 8     # re-derive one seeded pair in every 8th graph
QUERIES = 1000             # enough for a p99 within each iteration
TRIALS = 350
LEMMA_MAX_N = 7
LEMMA_PROBE_MAX_N = 6
MAX_N = 8


def cpu_seconds() -> float:
    """User plus system CPU of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_cli(argv: list[str]) -> tuple[int, str]:
    """resspec's command line, in process, with stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Iteration:
    """Set-up product, timing and check outcome of one iteration."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.latencies: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counters: dict[str, int] = {}
        self.input_digest = ""
        self.output_digest = ""

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(message)

    def fail_all(self, problems: list[str]) -> None:
        """A batch check failed: every item of the iteration counts as failed."""
        for message in problems:
            self.fail(0, message)
        if problems:
            self.failed = self.attempted

    @contextlib.contextmanager
    def timed(self):
        self.ready = time.monotonic()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        yield
        self.wall = time.perf_counter() - t0
        self.cpu = cpu_seconds() - cpu0


# ---------------------------------------------------------------------------
# checks, kept apart from the runs so a test can feed them wrong expectations

def check_enumerate(outputs: dict[int, tuple[int, str]], expected_counts, expected_sha) -> list[str]:
    problems = []
    for k, (code, text) in sorted(outputs.items()):
        got = text.count("\n")
        if code != 0:
            problems.append(f"enumerate {k} exited {code}")
        elif got != expected_counts[k - 1]:
            problems.append(f"enumerate {k}: {got} classes, OEIS A001349 says {expected_counts[k - 1]}")
    top = max(outputs)
    sha = hashlib.sha256(outputs[top][1].encode()).hexdigest()
    if sha != expected_sha:
        problems.append(f"enumerate {top}: stdout sha256 {sha} != {expected_sha}")
    return problems


def check_spectrum(n: int, spectrum_json: str, pair_value: Fraction | None) -> str | None:
    entries = json.loads(spectrum_json)
    total = sum(m for _, m in entries)
    if total != comb(n, 2):
        return f"multiplicities sum to {total}, not C({n},2) = {comb(n, 2)}"
    if pair_value is not None and pair_value not in {Fraction(v) for v, _ in entries}:
        return f"re-derived resistance {pair_value} is not in the spectrum"
    return None


def check_drs_build(verify: tuple[int, str], collisions: tuple[int, str], want_verdicts: int) -> list[str]:
    problems = []
    code, text = verify
    verdicts = [json.loads(line) for line in text.splitlines()]
    if code != 0:
        problems.append(f"verify-drs exited {code}")
    if len(verdicts) != want_verdicts:
        problems.append(f"{len(verdicts)} verdicts, expected {want_verdicts}")
    undetermined = [v["target"] for v in verdicts if not v["determined"]]
    if undetermined:
        problems.append(f"not determined: {undetermined}")
    code, text = collisions
    if code != 0:
        problems.append(f"collisions exited {code}")
    elif json.loads(text)["pair_count"] != 0:
        problems.append(f"collision pairs at n <= {MAX_N}: {text.strip()}")
    return problems


def check_verdict(verdict, n: int, expected_target: str) -> str | None:
    if verdict.target_graph6 != expected_target:
        return f"target {verdict.target_graph6} != canonical {expected_target}"
    if verdict.order != n or not verdict.determined:
        return f"{expected_target}: order {verdict.order}, determined {verdict.determined}"
    return None


def check_lemma_summary(summary: dict, max_n: int) -> list[str]:
    problems = []
    if summary["failures_total"]:
        problems.append(f"{summary['failures_total']} lemma failures")
    want = {str(k): c for k, c in enumerate(gen.OEIS_A001349[:max_n], 1)}
    if summary["classes_per_order"] != want:
        problems.append(f"classes per order {summary['classes_per_order']} != {want}")
    return problems


def surviving_equal(before, after, survivors: dict[int, int]) -> bool:
    """before[x][y] == after[map x][map y] for every surviving pair."""
    kept = sorted(survivors)
    return all(
        before[x][y] == after[survivors[x]][survivors[y]]
        for i, x in enumerate(kept) for y in kept[i + 1:]
    )


# ---------------------------------------------------------------------------
# workloads

def iterate_enumerate(it: Iteration, tracer) -> None:
    it.input_digest = gen.digest(["enumerate", MAX_N])
    with it.timed():
        if tracer:
            # one level per call, so each enumerate_connected span is one level
            for k in range(1, MAX_N):
                list(enumeration.enumerate_connected(k))
        outputs = {MAX_N: run_cli(["enumerate", str(MAX_N), "--threads", "1"])}
    for k in range(1, MAX_N):  # levels are cached in process by now
        outputs[k] = run_cli(["enumerate", str(k)])
    it.items = it.attempted = gen.OEIS_A001349[-1]
    it.output_digest = hashlib.sha256(outputs[MAX_N][1].encode()).hexdigest()[:16]
    it.fail_all(check_enumerate(outputs, gen.OEIS_A001349, ENUMERATE_8_SHA256))


def iterate_spectra(it: Iteration, tracer) -> None:
    texts = gen.spectra_inputs(it.cfg["seed"], SPECTRA_PER_CELL)
    orders = [ord(t[0]) - 63 for t in texts]
    pairs = gen.pair_sample(it.cfg["seed"], orders, SPECTRA_PAIR_EVERY)
    it.input_digest = gen.digest([texts, pairs])
    keys = []
    lat = it.latencies
    clock = time.perf_counter
    with it.timed():
        for text in texts:
            t0 = clock()
            keys.append(resistance.resistance_spectrum(graphs.parse_graph6(text)).to_json())
            lat.append(clock() - t0)
    it.items = it.attempted = len(texts)
    it.output_digest = gen.digest(keys)
    pair_at = {i: (u, v) for i, u, v in pairs}
    for i, text in enumerate(texts):
        value = None
        if i in pair_at:
            value = resistance.resistance(graphs.parse_graph6(text), *pair_at[i])
        problem = check_spectrum(orders[i], keys[i], value)
        if problem:
            it.fail(1, f"{text}: {problem}")


def iterate_drs_build(it: Iteration, tracer) -> None:
    cache = os.path.join(it.cfg["work_dir"], f"drs-build-{it.cfg['iteration']}")
    shutil.rmtree(cache, ignore_errors=True)
    os.makedirs(cache)
    it.input_digest = gen.digest(["drs-build", MAX_N])
    with it.timed():
        verify = run_cli(["verify-drs", "--all", "--max-n", str(MAX_N), "--threads", "2",
                          "--cache-dir", cache, "--output", "json"])
        collisions = run_cli(["collisions", str(MAX_N), "--threads", "2",
                              "--cache-dir", cache, "--output", "json"])
    it.output_digest = gen.digest([verify, collisions])
    indexed = {}
    for n in range(2, MAX_N + 1):
        path = os.path.join(cache, f"spectra-{n}.tsv")
        with open(path, encoding="ascii") as fh:
            indexed[n] = sum(1 for line in fh if line.strip())
    want = {n: gen.OEIS_A001349[n - 1] for n in indexed}
    it.items = it.attempted = sum(want.values())
    verdicts = sum(n // 2 for n in range(2, MAX_N + 1))
    problems = check_drs_build(verify, collisions, verdicts)
    if indexed != want:
        problems.append(f"indexed classes per order {indexed} != {want}")
    it.fail_all(problems)
    shutil.rmtree(cache, ignore_errors=True)


def prebuild_drs_query(cache: str) -> None:
    """Set-up of drs-query: every cache the queries read, to order 8."""
    os.makedirs(cache, exist_ok=True)
    for n in range(1, MAX_N + 1):
        drs.index_spectra(n, cache_dir=cache, threads=2)


def iterate_drs_query(it: Iteration, tracer) -> None:
    queries = gen.drs_queries(it.cfg["seed"], QUERIES)
    it.input_digest = gen.digest(queries)
    cache = it.cfg["cache_dir"]
    verdicts = []
    lat = it.latencies
    clock = time.perf_counter
    with it.timed():
        for text, _ in queries:
            t0 = clock()
            verdicts.append(drs.verify_drs(graphs.parse_graph6(text), cache_dir=cache))
            lat.append(clock() - t0)
    it.items = it.attempted = len(queries)
    it.output_digest = gen.digest([v.to_json() for v in verdicts])
    for verdict, (_, original) in zip(verdicts, queries):
        g = graphs.parse_graph6(original)
        expected = graphs.to_graph6(enumeration.canonical_graph(g))
        problem = check_verdict(verdict, g.order, expected)
        if problem:
            it.fail(1, problem)


def run_trial(trial: dict) -> bool:
    """Apply one reduction; True when every surviving resistance is unchanged."""
    net = reduction.parse_network(trial["text"])
    before = reduction.weighted_resistance_matrix(net)
    n = net.order
    if trial["kind"] == "series":
        v = trial["v"]
        after_net = reduction.series_reduce(net, v)
        survivors = {w: w - (w > v) for w in range(n) if w != v}
    elif trial["kind"] == "parallel":
        after_net = reduction.parallel_reduce(net, trial["u"], trial["v"])
        survivors = {w: w for w in range(n)}
    else:
        replacement = reduction.parse_network(trial["replacement"])
        after_net = reduction.substitute(net, trial["region"], replacement)
        survivors = {w: w for w in range(n)}
    after = reduction.weighted_resistance_matrix(after_net)
    return surviving_equal(before, after, survivors)


def iterate_lemmas_reduce(it: Iteration, tracer) -> None:
    trials = gen.reduction_trials(it.cfg["seed"], TRIALS, it.cfg["iteration"])
    it.input_digest = gen.digest(trials)
    outcomes = []
    lat = it.latencies
    clock = time.perf_counter
    with it.timed():
        summary = lemmas.run_all_checks(LEMMA_MAX_N, threads=2)
        for trial in trials:
            t0 = clock()
            try:
                outcomes.append(run_trial(trial))
            except (reduction.ReductionError, ValueError) as exc:
                outcomes.append(exc)
            lat.append(clock() - t0)
    swept = summary["graphs_checked"]
    it.items = it.attempted = swept + len(trials)
    it.output_digest = gen.digest([lemmas.summary_to_json(summary), [repr(o) for o in outcomes]])
    problems = check_lemma_summary(summary, LEMMA_MAX_N)
    for message in problems:
        it.fail(0, message)
    if problems:
        it.failed = swept
    applied = 0
    for trial, outcome in zip(trials, outcomes):
        if outcome is True:
            applied += 1
        elif outcome is False:
            applied += 1
            it.fail(1, f"{trial['kind']} trial changed a surviving resistance")
        else:
            it.fail(1, f"{trial['kind']} trial raised {outcome!r}")
    it.counters.update(trials_attempted=len(trials), trials_applied=applied)
    if tracer:
        probe_lemmas()


def probe_lemmas() -> None:
    """Each public lemma check once per class of order <= 6 (traced runs only).

    run_all_checks fans out to pool workers, whose spans are not seen, so the
    per-lemma times come from these in-process calls, after the timed phase.
    """
    for n in range(2, LEMMA_PROBE_MAX_N + 1):
        for g in enumeration.enumerate_connected(n):
            u, v = g.edges()[0]
            lemmas.check_triangle(g)
            lemmas.check_foster(g)
            lemmas.check_local_sum(g, u, v)
            lemmas.check_lower_bound(g)
            lemmas.check_rayleigh(g, (u, v))
            lemmas.check_cycle_bound(g)
            lemmas.check_cut_additivity(g)


WORKLOADS = {
    "enumerate": iterate_enumerate,
    "spectra": iterate_spectra,
    "drs-build": iterate_drs_build,
    "drs-query": iterate_drs_query,
    "lemmas-reduce": iterate_lemmas_reduce,
}


def main(cfg: dict) -> dict:
    if cfg["role"] == "prebuild":
        prebuild_drs_query(cfg["cache_dir"])
        return {"ok": True}
    tracer = None
    if cfg["traced"]:
        tracer = tracing.Tracer(f"{cfg['workload']}/{cfg['seed']}/{cfg['iteration']}")
        tracing.instrument(tracer)
    it = Iteration(cfg)
    WORKLOADS[cfg["workload"]](it, tracer)
    result = {
        "ready": it.ready,
        "wall": it.wall,
        "cpu": it.cpu,
        "items": it.items,
        "latencies": it.latencies,
        "attempted": it.attempted,
        "failed": it.failed,
        "problems": it.problems,
        "input_digest": it.input_digest,
        "output_digest": it.output_digest,
    }
    if tracer:
        spans = tracer.records()
        result["layers"] = tracing.layer_metrics(spans, it.counters)
        result["span_table"] = tracing.span_table(spans)
        tracer.write(cfg["spans"])
    return result


if __name__ == "__main__":
    config = json.loads(sys.argv[1])
    outcome = main(config)
    with open(config["result"], "w", encoding="utf-8") as fh:
        json.dump(outcome, fh)
