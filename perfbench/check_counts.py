#!/usr/bin/env python3
"""Check that the benchmark's host-independent counts repeat exactly.

Run from the root of a checkout:

    python3 perfbench/check_counts.py [--seed N]

Runs the traced benchmark twice per workload, in separate processes,
and compares the per-layer counts that must not depend on the host or
on the run: simulated uops, cycles, stall counts and idle fraction,
allocated words per uop and per cycle, and the model's evaluation
count, words per evaluation and checksum. It also checks that the
traced runs report exactly the per-layer metrics BENCHMARK.json
declares. Exits 1 on any difference, or if a run fails its own
correctness checks.
"""

import argparse
import json
import subprocess
import sys

COUNTS = {
    "sim_stall": [
        "pipeline.uops", "pipeline.cycles", "pipeline.idle_cycle_frac",
        "pipeline.stall.rob_full", "pipeline.stall.serialize",
        "pipeline.accel_wait_for_head", "pipeline.words_per_uop",
        "pipeline.words_per_cycle",
    ],
    "sim_dense": [
        "pipeline.uops", "pipeline.cycles", "pipeline.idle_cycle_frac",
        "pipeline.stall.rob_full", "pipeline.stall.serialize",
        "pipeline.accel_wait_for_head", "pipeline.words_per_uop",
        "pipeline.words_per_cycle",
    ],
    "model_sweep": ["model.evals", "model.words_per_eval", "model.checksum"],
}


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit("check_counts: %s run failed (exit %d)"
                 % (workload, out.returncode))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(out.stderr)
        sys.exit("check_counts: %s run reported failures" % workload)
    declared = [m["name"] for m in
                json.load(open("BENCHMARK.json"))["per_layer"]]
    if list(result["metrics"]) != declared:
        sys.exit("check_counts: %s metrics differ from BENCHMARK.json"
                 % workload)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    seed = p.parse_args().seed
    bad = 0
    for workload, names in COUNTS.items():
        first, second = run(workload, seed), run(workload, seed)
        for name in names:
            same = first[name] == second[name]
            bad += not same
            print("%-12s %-30s %-24r %s" % (workload, name, first[name],
                  "ok" if same else "DIFFERS: %r" % second[name]))
    if bad:
        sys.exit("check_counts: %d count(s) differ between runs" % bad)
    print("check_counts: all counts repeat exactly")


if __name__ == "__main__":
    main()
