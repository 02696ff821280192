#!/usr/bin/env python3
"""Throughput regression gate: gmm single-thread importance sampling.

Runs the base and the head `ppl-bench` binaries alternately on this host,
ROUNDS times each (which one goes first alternates too), reads the gmm
`seq_particles_per_sec` of every run's JSON report (itself a median of
trials), and fails when head's median over its runs is more than 20 %
below base's.

usage: bench_regress.py BASE_PPL_BENCH HEAD_PPL_BENCH
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

ROUNDS = 3
FLOOR = 0.8


def gmm_seq(binary, report):
    subprocess.run([binary, "--json", report], check=True, stdout=subprocess.DEVNULL)
    with open(report) as f:
        doc = json.load(f)
    for row in doc["throughput"]:
        if row["name"] == "gmm":
            return row["seq_particles_per_sec"]
    sys.exit(f"{binary}: no gmm throughput row in {report}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binaries = {"base": sys.argv[1], "head": sys.argv[2]}
    runs = {"base": [], "head": []}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(ROUNDS):
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for side in order:
                report = os.path.join(tmp, f"{side}-{i}.json")
                runs[side].append(gmm_seq(binaries[side], report))
                print(f"round {i + 1} {side}: gmm single-thread IS "
                      f"{runs[side][-1]:.0f} p/s")
    base = statistics.median(runs["base"])
    head = statistics.median(runs["head"])
    floor = FLOOR * base
    print(f"median of {ROUNDS} runs each: base {base:.0f} p/s, head {head:.0f} p/s "
          f"({(head / base - 1) * 100:+.1f} %), floor {floor:.0f} p/s")
    if head < floor:
        sys.exit("throughput regression: head's gmm single-thread IS is more than "
                 "20 % below the base commit's (label the PR skip-bench-regress "
                 "to waive)")


if __name__ == "__main__":
    main()
