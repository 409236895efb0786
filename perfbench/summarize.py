"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/summarize.py --seeds 1-10 [--workloads a,b] [--traced 1]
                                   [--seconds S] [--out perfbench/baseline.json]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread, which is
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json. With
--traced N it also makes N traced runs per workload and records their
per-layer medians. --out writes everything as JSON, with the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json)")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    summary = {
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in names:
        runs = [one_run(workload, seed, seconds, 0) for seed in seeds]
        entry = {
            "elapsed_s": [r["elapsed_s"] for r in runs],
            "end_to_end": {
                name: spread([r["metrics"][name]["value"] for r in runs]) for name in bounds
            },
        }
        print(f"{workload}: {len(runs)} runs, {max(entry['elapsed_s']):.1f} s longest")
        for name, row in entry["end_to_end"].items():
            flag = "" if row["spread"] < bounds[name] / 3 else "  <- above bound/3"
            print(f"  {name:<12} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
                  f"q3 {row['q3']:<12.6g} spread {row['spread']:.4f} (bound {bounds[name]}){flag}")
        if args.traced:
            traced = [one_run(workload, seed, seconds, 1) for seed in seeds[: args.traced]]
            entry["per_layer"] = {
                name: statistics.median(r["metrics"][name]["value"] for r in traced)
                for name in traced[0]["metrics"]
            }
        summary["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
