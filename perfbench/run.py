#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload and seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds the
generator library from src/ and the harness from perfbench/harness into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs only
rebuild what changed.  Build output goes to stderr.  The harness's stdout is
passed through; its last line is the result object, which this script checks
for shape before printing it last.  Any build, run or check failure exits
non-zero without printing a result.

The harness keeps the simulated sums of each (workload, seed) in the build
directory and fails a later run that does not reproduce them; the record is
keyed by a digest of the sources and build file, so a change to the program
starts a new one.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-audit", "cold-podem", "warm-serve")
# Sources and build file whose digest keys the same-seed record of the
# simulated sums.
CODE_PATHS = ("src", os.path.join("perfbench", "harness"),
              os.path.join("perfbench", "CMakeLists.txt"))


def harness_timeout_s(seconds):
    """A run sets up five times and measures for --seconds (about 45 s in all
    at --seconds 30); a harness still running after this long has hung."""
    return max(170, 3 * seconds + 60)


def code_id():
    files = []
    for p in CODE_PATHS:
        path = os.path.join(ROOT, p)
        if os.path.isfile(path):
            files.append(path)
        for dirpath, _, filenames in os.walk(path):
            files.extend(os.path.join(dirpath, n) for n in filenames)
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench_harness")


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys %s" % sorted(result))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise ValueError("bad attempted/failed counts")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        raise ValueError("metrics %s do not match BENCHMARK.json %s"
                         % (sorted(got.items()), sorted(wanted.items())))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    bdir = build_dir()
    try:
        harness = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--code-id", code_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=harness_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("perfbench: harness exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        result = check_result(lines[-1], args.trace)
    except (ValueError, KeyError, OSError) as e:
        sys.stderr.write(proc.stdout)
        print("perfbench: malformed result: %s" % e, file=sys.stderr)
        return 1
    if not result["correct"]:
        print("perfbench: output checks failed", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
