"""Steadiness check: run every workload repeatedly and report spreads.

Usage::

    python3 perfbench/steady.py [--runs 10] [--seed 1000] [--second-seed 2000]

Each run is a separate ``run.py`` process with its own workload seed
(``seed``, ``seed + 1``, ...); the workload order alternates from one
pass to the next so that no workload always follows the same one.  For
every end-to-end metric the command prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (quartile distance
over median) and the largest deviation from the median.  With
``--second-seed`` it repeats the whole set from a second seed and prints
how far the second set's median moved from the first's.  The workloads,
the run length and the bounds come from ``BENCHMARK.json``, so the
spreads are those of the runs the benchmark makes; a spread above a
third of its bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           + done.stderr[-2000:])
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for tag in ("stamp", "wall"):
        found = [line for line in lines if line.startswith(f"perfbench-{tag} ")]
        result[tag] = json.loads(found[0].split(" ", 1)[1]) if found else {}
    return result


def run_set(workloads, runs: int, seed: int, seconds: int) -> dict:
    results = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for workload in order:
            result = run_once(workload, seed + i, seconds)
            results[workload].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            values.update({k: round(v, 4) for k, v in result["wall"].items()})
            print(f"# {workload} seed {seed + i}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"steal={result['stamp'].get('steal_share')} {values}", flush=True)
    return results


def summarise(results: dict, bounds: dict) -> dict:
    """Spread table of the gated metrics, then of the wall-clock figures
    (no bound: they are printed, not gated)."""
    print("| workload | metric | median | q1 | q3 | spread | max dev | bound |")
    print("|---|---|---|---|---|---|---|---|")
    medians = {}
    for workload, runs in results.items():
        for name in list(bounds) + sorted(runs[0]["wall"]):
            if name in bounds:
                values = [r["metrics"][name]["value"] for r in runs]
            else:
                values = [r["wall"][name] for r in runs]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid
            worst = max(abs(v - mid) for v in values) / mid
            bound = bounds.get(name)
            flag = (" (over a third of the bound)"
                    if bound is not None and spread > bound / 3 else "")
            medians[(workload, name)] = mid
            print(f"| {workload} | {name} | {mid:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{spread:.3f} | {worst:.3f} | {bound or 'wall, not gated'}{flag} |")
        failed = [r["failed"] / r["attempted"] for r in runs]
        incorrect = sum(1 for r in runs if not r["correct"])
        print(f"<!-- {workload}: failed shares {sorted(set(failed))}, "
              f"incorrect runs {incorrect} -->")
    return medians


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--second-seed", type=int, default=None)
    args = parser.parse_args()
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    first = summarise(run_set(workloads, args.runs, args.seed, seconds), bounds)
    if args.second_seed is None:
        return 0
    second = summarise(run_set(workloads, args.runs, args.second_seed, seconds), bounds)
    print("| workload | metric | first median | second median | change | bound |")
    print("|---|---|---|---|---|---|")
    for (workload, name), a in first.items():
        b = second[(workload, name)]
        print(f"| {workload} | {name} | {a:.4g} | {b:.4g} | {(b - a) / a:+.3f} | "
              f"{bounds.get(name, 'wall, not gated')} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
