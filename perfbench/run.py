#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload.

usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR when set, else .bench_build; span
files of traced runs go to .bench_out.  Every line perfbench prints is
echoed; the last line is the result JSON, carrying exactly the
BENCHMARK.json end_to_end metrics (--trace 0) or per_layer metrics
(--trace 1).  See perfbench/NOTES.md.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def slo_limits(bench):
    """The serve_mixed latency limits, stated in its `why` line."""
    for w in bench["workloads"]:
        m = re.search(r"hit<=([0-9.]+)ms miss<=([0-9.]+)ms", w["why"])
        if w["name"] == "serve_mixed" and m:
            return m.group(1), m.group(2)
    fail("BENCHMARK.json: serve_mixed states no 'hit<=Xms miss<=Yms'")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/ - run from a full checkout", 2)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
        if done.returncode != 0:
            fail("build failed: %s" % " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run_one(binary, bench, args, workload):
    hit, miss = slo_limits(bench)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--hit-limit-ms=" + hit, "--miss-limit-ms=" + miss,
           # Relative to ROOT: a Unix socket path must stay short.
           "--out=.bench_out"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    metrics, checks = {}, None
    for line in done.stdout.splitlines():
        print(line)
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif parts[:1] == ["checks"]:
            checks = dict(p.split("=") for p in parts[1:])
    if done.returncode != 0 or checks is None:
        fail("%s exited with code %d" % (workload, done.returncode))

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    out, correct = {}, int(checks["failed"]) == 0
    for m in wanted:
        if m["name"] not in metrics:
            print("run.py: %s reported no %s" % (workload, m["name"]),
                  file=sys.stderr)
            correct = False
            continue
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            print("run.py: %s is in %s, BENCHMARK.json says %s"
                  % (m["name"], unit, m["unit"]), file=sys.stderr)
            correct = False
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": correct, "attempted": int(checks["attempted"]),
            "failed": int(checks["failed"]), "metrics": out}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0x715F1EE7)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="show every output check failing on a wrong "
                        "expected value")
    args = p.parse_args()
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if not args.selftest and args.workload not in names + ["all"]:
        fail("--workload must be one of %s or all" % ", ".join(names), 2)

    binary = build()
    if args.selftest:
        sys.exit(subprocess.run([binary, "--selftest"], cwd=ROOT,
                                timeout=RUN_TIMEOUT_S).returncode)
    results = [run_one(binary, bench, args, w)
               for w in (names if args.workload == "all"
                         else [args.workload])]
    for r in results:
        print(json.dumps(r))
    # One workload: the result line itself reports correctness.
    sys.exit(0 if len(results) == 1 or all(r["correct"] for r in results)
             else 1)


if __name__ == "__main__":
    main()
