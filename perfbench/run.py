#!/usr/bin/env python3
"""Builds and runs the DPRLE benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The program and the benchmark are built
from source into $CARGO_TARGET_DIR (default .bench_build); the last line
of standard output is the run's JSON result. Build output and the
benchmark's diagnostics go to standard error.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ["fig12_faithful", "session_edit"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(targets):
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "-j4", "--target"] + targets)
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("build failed: %s\n" % " ".join(step))
            return False
    return True


def run_benchmark(args, timeout):
    """Runs the benchmark binary in its own process group, so that a
    timeout stops it and anything it started."""
    cmd = [os.path.join(build_dir(), "perfbench")] + args
    proc = subprocess.Popen(cmd, cwd=build_dir(), stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("benchmark timed out after %d s\n" % timeout)
        return 1, ""
    return proc.returncode, out


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test():
    """The benchmark's own tests: the C++ unit tests, the metric names
    against BENCHMARK.json, and every workload catching a corrupted
    reference answer."""
    if not build(["perfbench", "perfbench_selftest"]):
        return 1
    if subprocess.run([os.path.join(build_dir(), "perfbench_selftest")],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return 1
    ok = True
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    code, listing = run_benchmark(["--list-metrics"], 60)
    listed = {"end_to_end": [], "per_layer": []}
    for line in listing.splitlines():
        kind, name, unit = line.split()
        listed[kind].append((name, unit))
    for kind in listed:
        want = [(m["name"], m["unit"]) for m in spec[kind]]
        if want != listed[kind]:
            sys.stderr.write("FAIL: %s metrics differ from BENCHMARK.json\n" % kind)
            ok = False
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        sys.stderr.write("FAIL: BENCHMARK.json names an unknown workload\n")
        ok = False
    for workload in WORKLOADS:
        code, out = run_benchmark(["--workload", workload, "--seed", "7",
                                   "--seconds", "1", "--trace", "0",
                                   "--corrupt-reference"], 170)
        result = last_json(out) if code == 0 else None
        caught = result is not None and not result["correct"] and result["failed"] > 0
        sys.stderr.write("%s: corrupted reference %s\n"
                         % (workload, "caught" if caught else "NOT CAUGHT"))
        ok = ok and caught
    sys.stderr.write("self-test %s\n" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if not build(["perfbench"]):
        return 1
    code, out = run_benchmark(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        timeout=args.seconds + 150)
    if code != 0 or last_json(out) is None:
        return code or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
