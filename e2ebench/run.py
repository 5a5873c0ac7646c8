#!/usr/bin/env python3
"""End-to-end benchmark of ehpsim.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the simulator and the benchmark
driver from source into .bench_build/e2ebench (first run only), then
repeats one workload in fresh driver processes for S seconds. Every
repetition simulates the same seeded inputs, so the simulated outputs
must be bit-identical across repetitions; each repetition also checks
its own outputs against invariants (see README.md).

A run covers SCENARIOS seeded scenarios derived from --seed, cycling
through them until S seconds have passed and every scenario has run
in each mode. A metric is the mean over scenarios of the per-scenario
median over repetitions: the median absorbs host noise, the mean over
scenarios keeps one seed's traffic pattern from setting the host cost.

With --trace 0 the last line of stdout is a JSON object whose metrics
are the end-to-end ones (medians over repetitions); with --trace 1 it
holds the per-layer ones, from traced repetitions alternated with
untraced ones so the tracing overhead is measured in the same run.
The lines before it are a human-readable report, including the
workload-specific simulated results.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("collectives_octo", "serving_tp8", "serving_kv", "apu_coupled")
SCENARIOS = 8           # seeded scenarios per run
REP_TIMEOUT_S = 150

# Host times are CPU seconds at a reference host speed. On a shared
# machine the wall clock also counts time spent waiting for a CPU, and
# the CPU time of fixed work drifts by +-20% over minutes with the
# neighbours' load. Each repetition therefore also times fixed
# reference kernels (driver.cc hostSpeed()) and scales its CPU time by
# REF_S / (their CPU time), REF_S being their median CPU time on the
# host the benchmark was defined on (Intel Xeon, 4 vCPUs at 2.0 GHz).
# Total CPU time is scaled as one: the kernel's user/system split of
# it is sampled per tick and too coarse to scale separately. Raw CPU
# and wall seconds are reported per layer (host.*).
REF_S = 0.087

END_TO_END = (
    ("cpu_ref_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_s", "s"),
)

# Spans the driver records, in the order they are reported.
SPANS = (
    "bench.setup", "bench.run", "soc.build", "comm.build", "comm.issue",
    "comm.drain", "fault.arm", "mem.hbm_build", "workloads.gen",
    "serve.build", "serve.run", "core.build", "core.run",
)
# Spans that run inside the measured phase (wall_s).
RUN_SPANS = ("comm.issue", "comm.drain", "fault.arm", "serve.run",
             "core.run")
SPAN_FIELDS = (("_s", "s", "s"), ("_user_s", "user_s", "s"),
               ("_sys_s", "sys_s", "s"), ("_faults", "faults", "count"))

COUNTERS = (
    ("comm.ops", "count"), ("comm.tasks", "count"),
    ("comm.chunk_retries", "count"), ("fabric.transfers", "count"),
    ("fabric.bytes_moved", "B"), ("fabric.busy_frac_max", "frac"),
    ("mem.mall_hit_ratio", "frac"), ("mem.hbm_bytes", "B"),
    ("sim.events", "count"), ("sim.peak_live", "count"),
    ("fault.injected", "count"), ("serve.iterations", "count"),
    ("serve.comm_iterations", "count"),
    ("serve.kv_reserve_failures", "count"), ("serve.evictions", "count"),
    ("serve.recompute_tokens", "count"), ("hsa.dispatches", "count"),
    ("coherence.probes", "count"),
)

# Workload-specific simulated results: (driver key, metric, unit).
SIM_RESULTS = (
    ("algbw_gbps", "comm.algbw_gbps", "GB/s"),
    ("ttft_p50_s", "serve.ttft_p50_s", "s"),
    ("ttft_tail_s", "serve.ttft_tail_s", "s"),
    ("tpot_p50_s", "serve.tpot_p50_s", "s"),
    ("tpot_tail_s", "serve.tpot_tail_s", "s"),
    ("tokens_per_s", "serve.tokens_per_s", "1/s"),
    ("slo_attainment", "serve.slo_attainment", "frac"),
    ("tail_pct", "serve.tail_pct", "%"),
    ("samples", "serve.samples", "count"),
    ("energy_j", "core.energy_j", "J"),
)

DERIVED = (
    ("host.cpu_s", "s"),
    ("host.wall_s", "s"),
    ("host.setup_cpu_s", "s"),
    ("host.setup_wall_s", "s"),
    ("host.cpu_per_wall", "ratio"),
    ("host.ref_user_s", "s"),
    ("host.ref_fault_s", "s"),
    ("sim.events_per_s", "1/s"),
    ("serve.iter_host_us", "us"),
    ("bench.fail_frac", "frac"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage", "frac"),
)


def per_layer_units():
    units = {}
    for span in SPANS:
        for suffix, _, unit in SPAN_FIELDS:
            units[span + suffix] = unit
    units.update(COUNTERS)
    units.update({m: u for _, m, u in SIM_RESULTS})
    units.update(DERIVED)
    return units


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(root):
    """Configure (once) and build the driver; return its path."""
    build_dir = os.path.join(root, ".bench_build", "e2ebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs,
           "--target", "e2e_driver"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "e2e_driver")


def scenario_seed(seed, k):
    return seed * SCENARIOS + k


def run_rep(driver, args, k, traced):
    """One repetition of scenario @p k in a fresh process: (result
    dict or None, attempts planned before a failure)."""
    cmd = [driver, "--workload", args.workload,
           "--seed", str(scenario_seed(args.seed, k)),
           "--trace", "1" if traced else "0", "--size", args.size]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("repetition timed out after", REP_TIMEOUT_S, "s")
        return None, 1
    lines = proc.stdout.strip().splitlines()
    planned = 1
    if lines:
        try:
            planned = json.loads(lines[0]).get("planned_attempts", 1)
        except ValueError:
            pass
    if proc.returncode != 0 or len(lines) < 2:
        log(proc.stderr.strip())
        log("repetition failed with exit code", proc.returncode)
        return None, planned
    return json.loads(lines[-1]), planned


def median(values):
    return statistics.median(values) if values else 0.0


def scenario_mean(reps, value):
    """Mean over scenarios of the per-scenario median of value(rep)."""
    by_seed = {}
    for r in reps:
        by_seed.setdefault(r["seed"], []).append(value(r))
    return statistics.fmean(median(v) for v in by_seed.values())


def deterministic_part(rep):
    return rep["sim"], rep["counters"]


def add_host_times(rep):
    """Raw and reference-speed CPU seconds of one repetition."""
    scale = REF_S / (rep["ref_user_s"] + rep["ref_fault_s"])
    rep["cpu_s"] = rep["user_s"] + rep["sys_s"]
    rep["cpu_ref_s"] = rep["cpu_s"] * scale
    rep["setup_cpu_s"] = rep["setup_user_s"] + rep["setup_sys_s"]
    rep["setup_s"] = rep["setup_cpu_s"] * scale


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True,
                    help="0 <= seed < 2**60")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long smoke size for self-tests")
    ap.add_argument("--report", help="also write the full report here")
    args = ap.parse_args()
    if not 0 <= args.seed < 2**60:
        ap.error("--seed out of range")

    driver = build(os.getcwd())
    if driver is None:
        log("e2ebench: build failed")
        return 1

    # Untraced repetitions give the end-to-end numbers. A traced run
    # alternates traced and untraced ones, so its overhead is measured
    # against the same conditions.
    modes = (True, False) if args.trace else (False,)
    cycle = [(k, m) for k in range(SCENARIOS) for m in modes]
    reps = {True: [], False: []}
    attempted = failed = 0
    ok = True
    deadline = time.monotonic() + args.seconds
    i = 0
    while True:
        k, traced = cycle[i % len(cycle)]
        i += 1
        rep, planned = run_rep(driver, args, k, traced)
        if rep is None:
            attempted += planned
            failed += planned
            ok = False
            break
        attempted += rep["attempted"]
        failed += rep["failed"]
        add_host_times(rep)
        reps[traced].append(rep)
        if i % len(cycle) == 0 and time.monotonic() >= deadline:
            break

    everything = reps[True] + reps[False]
    # Same scenario, same simulated results: traced or not, every time.
    reference = {}
    for r in everything:
        if reference.setdefault(r["seed"], deterministic_part(r)) != \
                deterministic_part(r):
            log("simulated results differ between repetitions of seed",
                r["seed"])
            ok = False
    ok = ok and failed == 0
    for rep in everything:
        for name, passed in rep["checks"].items():
            if not passed:
                log("check failed:", name)

    untraced = reps[False]
    metrics = {}
    if args.trace == 0 and untraced:
        for name, unit in END_TO_END:
            if name == "sim_s":
                value = scenario_mean(untraced, lambda r: r["sim"]["sim_s"])
            else:
                value = scenario_mean(untraced, lambda r, n=name: r[n])
            metrics[name] = {"value": value, "unit": unit}
    elif args.trace == 1 and reps[True] and untraced:
        metrics = layer_metrics(reps[True], untraced, attempted, failed)

    report_lines(args, everything, reps, metrics)
    if args.report:
        with open(args.report, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "reps": everything, "metrics": metrics}, f,
                      indent=1, sort_keys=True)

    if not metrics:
        return 1
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(traced, untraced, attempted, failed):
    units = per_layer_units()
    values = {}
    for span in SPANS:
        for suffix, field, _ in SPAN_FIELDS:
            values[span + suffix] = scenario_mean(
                traced,
                lambda r, s=span, f=field: r["spans"].get(s, {}).get(f, 0.0))
    for name, _ in COUNTERS:
        values[name] = scenario_mean(
            traced, lambda r, n=name: r["counters"].get(n, 0.0))
    for key, name, _ in SIM_RESULTS:
        values[name] = scenario_mean(
            traced, lambda r, k=key: r["sim"].get(k, 0.0))

    for name in ("cpu_s", "wall_s", "setup_cpu_s", "setup_wall_s",
                 "ref_user_s", "ref_fault_s"):
        values["host." + name] = scenario_mean(
            untraced, lambda r, n=name: r[n])
    wall = values["host.wall_s"]
    values["host.cpu_per_wall"] = values["host.cpu_s"] / wall
    cpu = scenario_mean(untraced, lambda r: r["cpu_ref_s"])
    values["sim.events_per_s"] = values["sim.events"] / cpu
    iterations = values["serve.iterations"]
    values["serve.iter_host_us"] = (
        values["serve.run_s"] / iterations * 1e6 if iterations else 0.0)
    values["bench.fail_frac"] = failed / max(attempted, 1)
    values["trace.wall_s"] = scenario_mean(traced, lambda r: r["wall_s"])
    values["trace.overhead_frac"] = (
        scenario_mean(traced, lambda r: r["cpu_ref_s"]) / cpu - 1.0)
    # Share of the traced measured phase the layer spans account for;
    # the rest is the benchmark's own glue (bench.run self time).
    values["trace.coverage"] = scenario_mean(
        traced,
        lambda r: sum(r["spans"].get(s, {}).get("s", 0.0)
                      for s in RUN_SPANS) / r["wall_s"])
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def report_lines(args, everything, reps, metrics):
    print(f"e2ebench {args.workload} seed={args.seed} "
          f"reps={len(reps[False])} untraced + {len(reps[True])} traced "
          f"over {SCENARIOS} scenarios")
    if not everything:
        return
    first = everything[0]
    print(f"simulated, scenario seed {first['seed']} (deterministic):")
    for key, value in first["sim"].items():
        print(f"  {key:<16} {value!r}")
    print("checks:")
    for name, passed in first["checks"].items():
        print(f"  {'PASS' if passed else 'FAIL'} {name}")
    print("metrics:")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']!r} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
