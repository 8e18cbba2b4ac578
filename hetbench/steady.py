#!/usr/bin/env python3
"""Steadiness check for hetbench.

Runs every workload (or the ones named) several times, each with another
seed, and prints for each end-to-end metric the median, the quartiles and
the spread (Q3 - Q1, as a share of the median) against the bound that
BENCHMARK.json fixes, plus the attempted and failed op counts.

Run from the repository root:

    python3 hetbench/steady.py                      # 10 runs per workload
    python3 hetbench/steady.py --runs 5 --workloads fabric_signed
    python3 hetbench/steady.py --sets 2             # two sets, medians compared
    python3 hetbench/steady.py --seconds 5 --first-seed 100

Each spread is marked `ok` when it is at most a third of its bound,
`wide` when it is above that but within the bound, and `OVER` beyond the
bound. setup_s is exempt: only its median is bounded. With --sets 2 or
more, each later set's median of each metric is compared with the first
set's, and marked `OVER` when it is worse by more than the bound. The
exit code is 1 when any run is incorrect, when the failed share differs
between runs of a workload, or when anything is `OVER`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(lines[-1])


def one_set(spec, workload, args, first_seed):
    """Runs one set; returns (results, steady) after printing its table."""
    results = []
    for i in range(args.runs):
        seed = first_seed + i
        r = run_once(spec["command"], workload, seed, args.seconds)
        results.append(r)
        print(f"{workload} seed {seed}: correct {r['correct']} attempted {r['attempted']} "
              f"failed {r['failed']} " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
              flush=True)
    shares = {(r["failed"], r["attempted"]) for r in results}
    exact = len({f * 1.0 / a for f, a in shares}) == 1
    correct = all(r["correct"] for r in results)
    steady = correct and exact
    print(f"\n{workload}: {len(results)} runs, all correct {correct}, "
          f"failed share identical {exact} "
          f"({', '.join(f'{f}/{a}' for f, a in sorted(shares))})")
    print(f"  {'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        if len(values) >= 2:
            q1, med, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = med = q3 = values[0]
        spread = (q3 - q1) / med if med else float("inf")
        if m["name"] == "setup_s":
            mark = "-"
        elif spread <= m["bound"] / 3:
            mark = "ok"
        elif spread <= m["bound"]:
            mark = "wide"
        else:
            mark = "OVER"
            steady = False
        print(f"  {m['name']:<14} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.4f} {m['bound']:>6} {mark} ({m['unit']})")
    print(flush=True)
    return results, steady


def compare(spec, workload, first, later, index):
    """Prints how far a later set's medians moved from the first set's."""
    steady = True
    print(f"{workload}: set {index} against set 0")
    for m in spec["end_to_end"]:
        a = statistics.median(r["metrics"][m["name"]]["value"] for r in first)
        b = statistics.median(r["metrics"][m["name"]]["value"] for r in later)
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        ok = worse <= m["bound"]
        steady &= ok
        print(f"  {m['name']:<14} {a:>14.6g} -> {b:<14.6g} worse by {worse:+.4f} "
              f"(bound {m['bound']}) {'ok' if ok else 'OVER'}")
    print(flush=True)
    return steady


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()

    steady = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            results, ok = one_set(spec, workload, args, args.first_seed + k * args.runs)
            steady &= ok
            sets.append(results)
        for k in range(1, len(sets)):
            steady &= compare(spec, workload, sets[0], sets[k], k)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
