#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/main.exe in release profile with dune (the first run in a
fresh checkout compiles the library), runs one workload and relays its
output.  The last line of standard output is the JSON result; its metric
names are checked against BENCHMARK.json.  Exits non-zero without a
result line when the build fails or the output does not match
BENCHMARK.json, and exits 1 after the result line when a correctness
check fails.  A traced run (--trace 1) writes its spans under
perfbench/_out/.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
OUT = os.path.join("perfbench", "_out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--cache=disabled", "./perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0:
        fail("build failed (dune exit %d)" % proc.returncode)


def git_rev():
    # The checkout may not be a git repository; never look above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("unexpected result keys %s" % sorted(result))
    declared = declared_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        raise ValueError("metrics differ from BENCHMARK.json: %s"
                         % sorted(set(got.items()) ^ set(declared.items())))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    build()
    if args.self_test:
        cmd = [EXE, "--self-test"]
    else:
        cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--rev", git_rev(), "--out", OUT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if args.self_test:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    # Exit code 1 is a failed correctness check: the result line is still
    # printed (with "correct": false) and the exit code passed on.
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode, proc.returncode or 2)
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("bad result line: %s" % e)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
