"""Check that the benchmark repeats: two interleaved sets of runs.

    python3 perfbench/steady.py --workload sweep-grid --runs 5

Runs ``perfbench/run.py`` 2 x ``--runs`` times, one fresh process at a
time, alternating set A and set B, each run with its own seed.  For
every end-to-end metric it prints each set's median and quartiles, the
quartile spread as a share of the median, and the same over both sets
pooled.  The sets agree when, for every metric, each spread except that
of ``setup_s`` stays within the metric's bound in BENCHMARK.json, the
medians differ by no more than the bound, and the share of failed
operations is the same.  Exits 0 when they agree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:  # incorrect output, or no operation succeeded
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed} exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def spread(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5, help="runs per set (at least 2)")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = {"A": [], "B": []}
    seed = args.first_seed
    for i in range(args.runs):
        for label in ("A", "B"):
            result, wall = run_once(args.workload, seed, seconds)
            sets[label].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{label} seed={seed:<4d} wall={wall:6.1f}s attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']} {values}", flush=True)
            seed += 1

    agree = True
    shares = {label: {r["failed"] / r["attempted"] for r in runs} for label, runs in sets.items()}
    if shares["A"] != shares["B"] or len(shares["A"]) != 1:
        print(f"failed shares differ: {shares}")
        agree = False
    print(f"{'metric':12s} {'set':4s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} bound")
    for name, bound in bounds.items():
        medians = {}
        for label in ("A", "B", "A+B"):
            runs = sets["A"] + sets["B"] if label == "A+B" else sets[label]
            med, q1, q3, share = spread([r["metrics"][name]["value"] for r in runs])
            medians[label] = med
            flag = ""
            if name != "setup_s" and share > bound:
                flag = "  SPREAD ABOVE BOUND"
                agree = False
            elif share > bound / 3:
                flag = "  (above a third of the bound)"
            print(f"{name:12s} {label:4s} {med:10.4f} {q1:10.4f} {q3:10.4f} {share:7.3f} {bound}{flag}")
        drift = medians["B"] / medians["A"] - 1
        if abs(drift) > bound:
            print(f"{name}: medians differ by {drift:+.3f}, above the bound {bound}")
            agree = False
    print("sets agree" if agree else "sets DO NOT agree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
