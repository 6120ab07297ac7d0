#!/usr/bin/env python3
"""Steadiness report: run one workload several times and judge the spread.

    python3 perfbench/steadiness.py --workload NAME [--runs 10] [--first-seed 1]
        [--seconds S] [--save FILE] [--baseline FILE]

Runs perfbench/run.py --trace 0 once per seed (first-seed, first-seed+1, ...,
skipping the reserved confirmation seed) from the root of the checkout and
prints, for every end-to-end metric of BENCHMARK.json, the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median against the metric's bound.  A spread at or below a third
of the bound is "steady"; above the bound is "NOISY".  setup_s is judged like
every other metric.

--save writes the raw values as JSON; --baseline compares this set's medians
against a saved set and flags a median that got worse by more than the
bound.  Exits 1 when a run fails, a spread exceeds its bound, or a median
regressed against the baseline.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Kept out of every tuning run so that a claimed change can be confirmed on
# inputs nobody tuned against.
RESERVED_SEED = 7919


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("seed %d: run.py exited %d" % (seed, proc.returncode))
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def worse_by(metric, base, new):
    """Relative change in the metric's bad direction (negative = better)."""
    if base == 0:
        return 0.0
    delta = (new - base) / base
    return delta if metric["better"] == "lower" else -delta


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save")
    ap.add_argument("--baseline")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    seeds = [s for s in range(args.first_seed, args.first_seed + args.runs + 1)
             if s != RESERVED_SEED][:args.runs]

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds:
        result = run_once(args.workload, seed, seconds)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)

    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seeds": seeds,
                       "values": values}, f, indent=1)
    base = None
    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)["values"]

    bad = False
    print("\n%-16s %12s %12s %12s %8s %6s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        if spread <= m["bound"] / 3:
            verdict = "steady"
        elif spread <= m["bound"]:
            verdict = "within bound"
        else:
            verdict = "NOISY"
            bad = True
        if base is not None:
            shift = worse_by(m, statistics.median(base[m["name"]]),
                             statistics.median(v))
            verdict += "; vs baseline %+.2f%%" % (100 * shift)
            if shift > m["bound"]:
                verdict += " REGRESSED"
                bad = True
        print("%-16s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%  %s" % (
            m["name"], med, q1, q3, 100 * spread, 100 * m["bound"], verdict))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
