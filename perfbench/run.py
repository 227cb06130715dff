#!/usr/bin/env python3
"""RuleDBT benchmark driver: builds perfbench from source, runs one workload.

    python3 perfbench/run.py --workload spec-exec --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --regen-reference

Run from anywhere; paths resolve against the checkout this file sits in.
The build (a Release CMake build of ../src plus perfbench/src) goes to
.bench_build at the checkout root and is reused by later runs. The last
stdout line is the run's JSON result; see perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("spec-exec", "serve-fork", "fuzz-diff")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on any failure."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != os.path.join(
                ROOT, "perfbench"):
            os.remove(cache)  # the checkout moved: configure afresh
    steps = []
    if not os.path.exists(cache) or not os.path.exists(BINARY):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns why the result line breaks the output contract, or ''."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are wrong"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            missing, extra)
    return ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-reference", action="store_true",
                    help="rewrite perfbench/data/spec_reference.txt from the "
                    "native reference interpreter")
    args = ap.parse_args()
    if not args.regen_reference and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    t0 = time.monotonic()
    if not build():
        return 2
    log("perfbench: build ready in %.1f s" % (time.monotonic() - t0))
    if args.regen_reference:
        return subprocess.run([BINARY, "--regen-reference", "--root",
                               ROOT]).returncode

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", ROOT]
    trace_file = ""
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_file = os.path.join(
            BUILD, "traces", "%s-seed%d.trace.json" % (args.workload,
                                                       args.seed))
        cmd += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    if not proc.stdout.strip():
        log("perfbench: no output (exit %d)" % proc.returncode)
        return proc.returncode or 3
    print("\n".join(lines[:-1]), flush=True)
    why = check_result(lines[-1], args.trace)
    if not why and trace_file:
        try:
            with open(trace_file) as f:
                if "traceEvents" not in json.load(f):
                    why = "trace file has no traceEvents"
        except (OSError, ValueError) as e:
            why = "trace file is not loadable JSON: %s" % e
    if why:
        log("perfbench: " + why)
        return proc.returncode or 3
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
