#!/usr/bin/env python3
"""Build the tca benchmark from source and run one workload.

Run from the root of a tca checkout:

    python3 perfbench/run.py --workload sim_stall --seed 1 --seconds 20 --trace 0

The benchmark executable is built with dune into .bench_build/ (release
profile, dune cache off, so nothing is written outside the checkout).
Its standard output is passed through: a run-metadata line, then the
result line, always last. A traced run also leaves its spans in
.bench_build/spans-<workload>-<seed>.jsonl. Exit code 0 means a result
was printed; any other code means the build or the run failed and no
result was printed.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def git_rev():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() or "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()

    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            return fail("not a tca checkout (missing %s); run from its root"
                        % need, 2)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "--cache", "disabled",
             "./perfbench/bench.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("build failed: %s" % e, 3)
    if build.returncode != 0 or not os.path.isfile(EXE):
        return fail("build failed (dune exit %d)" % build.returncode, 3)

    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--nproc", str(len(os.sched_getaffinity(0))),
           "--git-rev", git_rev()]
    if a.trace:
        cmd += ["--spans", os.path.join(
            BUILD_DIR, "spans-%s-%d.jsonl" % (a.workload, a.seed))]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
