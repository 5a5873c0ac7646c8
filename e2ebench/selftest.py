#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 e2ebench/selftest.py

Run from the repository root. Uses the tiny workload sizes, so it takes
about a minute (plus the first build). Checks that:

- each workload reports every end-to-end metric of BENCHMARK.json with
  --trace 0, and every per-layer metric with --trace 1, each with its
  declared unit, and with every output check passing;
- the simulated results and stats-tree counters are bit-identical
  across two invocations, and between traced and untraced runs;
- without the simulator sources next to it the benchmark exits
  non-zero and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def run(workload, trace, report, script=RUN, cwd=None):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny",
           "--report", report]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd)


def deterministic(report):
    """Scenario seed -> the set of distinct simulated results seen."""
    with open(report) as f:
        reps = json.load(f)["reps"]
    seen = {}
    for r in reps:
        seen.setdefault(r["seed"], set()).add(
            json.dumps([r["sim"], r["counters"]], sort_keys=True))
    return seen


def check_metrics(workload, trace, proc, expected, failures):
    if proc.returncode != 0:
        failures.append(f"{workload} trace {trace}: exit "
                        f"{proc.returncode}\n{proc.stderr}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{workload} trace {trace}: keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        failures.append(f"{workload} trace {trace}: outputs incorrect")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        failures.append(f"{workload} trace {trace}: missing {missing} "
                        f"extra {extra} wrong units {wrong}")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    scratch = os.path.join(".bench_build", "selftest")
    os.makedirs(scratch, exist_ok=True)
    failures = []

    # Every workload the driver has, including any left out of
    # BENCHMARK.json, must keep working.
    sys.path.insert(0, HERE)
    from run import WORKLOADS
    for w in WORKLOADS:
        reports = [os.path.join(scratch, f"{w}.{k}.json") for k in range(3)]
        check_metrics(w, 0, run(w, 0, reports[0]), e2e, failures)
        check_metrics(w, 0, run(w, 0, reports[1]), e2e, failures)
        check_metrics(w, 1, run(w, 1, reports[2]), layer, failures)
        if failures:
            break
        first, second, traced = (deterministic(r) for r in reports)
        if any(len(v) != 1 for v in first.values()):
            failures.append(f"{w}: simulated results differ between "
                            "repetitions")
        if first != second:
            failures.append(f"{w}: simulated results differ between "
                            "invocations")
        if first != traced:
            failures.append(f"{w}: simulated results differ between "
                            "traced and untraced runs")
        print(f"{w}: ok", flush=True)

    # Only BENCHMARK.json and the benchmark's own files: no simulator
    # sources to build, so the run must fail without printing a result.
    bare = tempfile.mkdtemp(dir=scratch)
    shutil.copy("BENCHMARK.json", bare)
    copy = os.path.join(bare, os.path.basename(HERE))
    shutil.copytree(HERE, copy)
    proc = run(bench["workloads"][0]["name"], 0, "bare.json",
               script=os.path.join(copy, "run.py"), cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("bare checkout: expected a failure without output")
    else:
        print("bare checkout: fails as expected", flush=True)
    shutil.rmtree(bare)

    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
