"""resspec benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/. Each iteration runs in a fresh interpreter (worker.py). There are
at least three iterations, and another starts only while a typical one
still ends within S seconds. The last line of stdout is one JSON object:
correct, attempted, failed and metrics (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1). Every output is
checked; the exit code is 1 when any check fails and 2 when the program
cannot be found. The benchmark's own tests: python3 -m pytest perfbench/tests

Workloads (why each was chosen is in BENCHMARK.json):
  enumerate      `resspec enumerate 8`, one worker               batch
  spectra        resistance_spectrum(g).to_json(), orders 6-14   stream
  drs-build      verify-drs --all --max-n 8, then collisions 8   batch
  drs-query      verify_drs on relabelled graphs, warm caches    stream
  lemmas-reduce  run_all_checks(7) plus reduction trials         stream
BENCHMARK.json lists drs-build and lemmas-reduce, which between them
exercise every layer. enumerate, spectra and drs-query stay runnable by
hand: on a shared 2-core machine, the time the host gives the process
drifts by 10-15% from one minute to the next, and only two workloads fit
the run budget with runs long enough to average that out.

A stream's items are timed one by one. A batch workload has no per-item
latency visible from outside, so its item_p50_ms is the median over
iterations of wall time per item and its item_p99_ms the largest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import ceil

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)

import tracing  # noqa: E402

WORKLOADS = ("enumerate", "spectra", "drs-build", "drs-query", "lemmas-reduce")
STREAMS = ("spectra", "drs-query", "lemmas-reduce")
MIN_ITERATIONS = 3
PROCESS_TIMEOUT_S = 120
STARTUP_PROBES = 5

E2E_METRICS = (
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p99_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
TAIL_CANDIDATES = (99.9, 99, 95, 90, 75, 50)


def rank(p: float, n: int) -> int:
    """Nearest-rank index (0-based) of the p-th percentile of n samples."""
    return max(0, ceil(Fraction(str(p)) * n / 100) - 1)


def percentile(sorted_xs: list[float], p: float) -> float:
    return sorted_xs[rank(p, len(sorted_xs))]


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ten of n samples beyond it."""
    for p in TAIL_CANDIDATES:
        if n - (rank(p, n) + 1) >= 10:
            return p
    return None


def stream_percentile(runs: list[dict], p: float) -> float:
    """The p-th percentile of the item latencies of a run's iterations.

    When every iteration alone has ten samples beyond it, the median over
    iterations of each one's percentile is reported, so that a burst of
    host preemption during one iteration does not set the run's tail.
    Otherwise the samples of all iterations are pooled. A p the pooled
    samples cannot support falls back to the highest one they can.
    """
    per_iteration = [sorted(r["latencies"]) for r in runs]
    if all((tail_percentile(len(xs)) or 0) >= p for xs in per_iteration):
        return statistics.median(percentile(xs, p) for xs in per_iteration)
    pooled = sorted(x for xs in per_iteration for x in xs)
    return percentile(pooled, min(p, tail_percentile(len(pooled)) or 50))


def failed_frac(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


def run_process(argv: list[str], env: dict, log: str) -> dict:
    """Run argv to completion in its own session; elapsed time, exit code, peak RSS.

    The whole process group is killed if it outlives PROCESS_TIMEOUT_S.
    """
    with open(log, "ab") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(PROCESS_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "spawned": spawned, "elapsed": ended - spawned,
            "rss_mb": usage.ru_maxrss / 1024}


def _alarm(signum, frame):
    raise TimeoutError


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("RESIST_CACHE_DIR", None)
    return env


def run_worker(cfg: dict, env: dict, log: str) -> dict | None:
    """The worker's result merged with its process figures; None if it crashed."""
    proc = run_process([sys.executable, WORKER, json.dumps(cfg)], env, log)
    if proc["code"] != 0:
        return None
    with open(cfg["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result.update(proc)
    return result


def log_tail(log: str) -> str:
    with open(log, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else "no stderr"


def startup_probe(env: dict, log: str) -> float | None:
    """Median wall time of `resspec spectrum` on a one-edge graph; None if it fails."""
    argv = [sys.executable, "-m", "resspec.cli", "spectrum", "A_"]
    walls = []
    for _ in range(STARTUP_PROBES):
        proc = run_process(argv, env, log)
        if proc["code"] != 0:
            return None
        walls.append(proc["elapsed"])
    return statistics.median(walls)


def end_to_end(workload: str, runs: list[dict], prebuild_s: float) -> dict[str, float]:
    walls = [r["wall"] for r in runs]
    per_item = sorted(r["wall"] / r["items"] for r in runs)
    metrics = {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(r["items"] / r["wall"] for r in runs),
        "cpu_s": statistics.median(r["cpu"] for r in runs),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "setup_s": prebuild_s + statistics.median(r["ready"] - r["spawned"] for r in runs),
    }
    if workload in STREAMS:
        metrics["item_p50_ms"] = stream_percentile(runs, 50) * 1e3
        metrics["item_p99_ms"] = stream_percentile(runs, 99) * 1e3
    else:
        metrics["item_p50_ms"] = statistics.median(per_item) * 1e3
        metrics["item_p99_ms"] = per_item[-1] * 1e3
    return {name: metrics[name] for name, _ in E2E_METRICS}


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run_dir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    results_dir = os.path.join(WORK, "results")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    log = os.path.join(run_dir, "stderr.log")
    env = child_env()
    base = {"workload": workload, "seed": seed, "work_dir": run_dir,
            "cache_dir": os.path.join(run_dir, "cache")}

    plain, traced, crashed = [], [], []
    prebuild_s = 0.0
    if workload == "drs-query":
        cfg = dict(base, role="prebuild", traced=False, iteration=-1,
                   result=os.path.join(run_dir, "prebuild.json"))
        prebuilt = run_worker(cfg, env, log)
        if prebuilt is None:
            crashed.append(f"cache prebuild crashed: {log_tail(log)}")
        else:
            prebuild_s = prebuilt["elapsed"]

    started = time.monotonic()
    i = 0
    spent: list[float] = []
    # start another iteration only if a typical one still ends within `seconds`
    while not crashed and (
        i < MIN_ITERATIONS
        or time.monotonic() - started + statistics.median(spent) <= seconds
    ):
        is_traced = trace and i % 2 == 1
        cfg = dict(base, role="iteration", traced=is_traced, iteration=i,
                   result=os.path.join(run_dir, f"iteration-{i}.json"),
                   spans=os.path.join(results_dir, f"{workload}-seed{seed}.spans.json"))
        result = run_worker(cfg, env, log)
        if result is None:
            crashed.append(f"iteration {i} crashed: {log_tail(log)}")
        else:
            (traced if is_traced else plain).append(result)
            spent.append(result["elapsed"])
        i += 1

    everything = plain + traced
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "iterations": len(plain),
        "traced_iterations": len(traced),
        "input_digest": sorted({r["input_digest"] for r in everything}),
        "output_digest": sorted({r["output_digest"] for r in everything}),
        # a crashed process counts as one attempted, failed operation
        "attempted": sum(r["attempted"] for r in everything) + len(crashed),
        "failed": sum(r["failed"] for r in everything) + len(crashed),
        "problems": crashed + [p for r in everything for p in r["problems"]][:20],
        "samples": sum(len(r["latencies"]) for r in plain),
        "iteration_wall_s": [r["wall"] for r in plain],
        "iteration_cpu_s": [r["cpu"] for r in plain],
        "end_to_end": end_to_end(workload, plain, prebuild_s) if plain else {},
    }
    outputs_by_input: dict[str, set] = {}
    for r in everything:
        outputs_by_input.setdefault(r["input_digest"], set()).add(r["output_digest"])
    if any(len(outputs) > 1 for outputs in outputs_by_input.values()):
        report["failed"] = report["attempted"]
        report["problems"].append("one input gave different outputs within a run")
    if trace and traced:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        layers["cli.startup_s"] = startup_probe(env, log)
        if layers["cli.startup_s"] is None:
            report["attempted"] += 1
            report["failed"] += 1
            report["problems"].append(f"resspec spectrum A_ failed: {log_tail(log)}")
            layers["cli.startup_s"] = 0.0
        layers["trace.overhead_s"] = (
            statistics.median(r["wall"] for r in traced) - report["end_to_end"]["wall_s"])
        report["per_layer"] = {name: layers[name] for name, _, _ in tracing.LAYER_METRICS}
        report["span_table"] = traced[-1]["span_table"]
    with open(os.path.join(results_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    shutil.rmtree(run_dir, ignore_errors=True)
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"inputs {','.join(report['input_digest'])}  outputs {','.join(report['output_digest'])}")
    print(f"iterations {report['iterations']} untraced, {report['traced_iterations']} traced; "
          f"{report['samples']} latency samples")
    for name, value in report["end_to_end"].items():
        print(f"  {name:<14} {value:>14.6f} {dict(E2E_METRICS)[name]}")
    print(f"  {'failed_frac':<14} {failed_frac(report['attempted'], report['failed']):>14.6f} "
          f"({report['failed']} of {report['attempted']})")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")
    if "per_layer" in report:
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        for name, value in report["per_layer"].items():
            print(f"  {name:<32} {value:>16.6f} {units[name]}")
        print(f"  {'span':<44} {'calls':>8} {'total_s':>10} {'self_s':>10}")
        for name, row in sorted(report["span_table"].items()):
            print(f"  {name:<44} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "resspec", "__init__.py")):
        print(f"error: no resspec sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    units = (
        {name: unit for name, unit, _ in tracing.LAYER_METRICS} if args.trace
        else dict(E2E_METRICS)
    )
    values = report.get("per_layer", {}) if args.trace else report["end_to_end"]
    correct = report["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
