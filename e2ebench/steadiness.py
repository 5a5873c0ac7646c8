#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

    python3 e2ebench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                   [--sets 2] [--seconds S] [--out F]

Run from the repository root. For each workload and each set, runs
run.py --trace 0 once per seed and reports, for every end-to-end
metric, the spread of its values: the distance between the first and
third quartiles (statistics.quantiles(values, n=4)) as a share of the
median. With two or more sets it also reports how far each set's
median moved from the first set's. A metric is steady when its spread
stays below a third of its bound in BENCHMARK.json (setup_s is judged
on the median move only) and every median move stays within the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", help="write the raw values as JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    raw = {}
    steady = True
    for w in workloads:
        sets = []
        for s in range(args.sets):
            runs = [run_once(w, seed, seconds) for seed in seeds]
            sets.append(runs)
        raw[w] = sets
        for name, bound in bounds.items():
            line = f"{w:<17} {name:<12} bound {bound:<5}"
            first_median = statistics.median(r[name] for r in sets[0])
            for k, runs in enumerate(sets):
                values = [r[name] for r in runs]
                sp = spread(values)
                med = statistics.median(values)
                move = (med - first_median) / first_median
                ok = (name == "setup_s" or sp < bound / 3) and move <= bound
                steady = steady and ok
                line += (f" | set{k} median {med:.6g} spread {sp:.4f}"
                         f" move {move:+.4f} {'ok' if ok else 'NOISY'}")
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": seeds, "seconds": seconds, "runs": raw},
                      f, indent=1)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
