#!/usr/bin/env python3
"""Measure how steady the benchmark is: run workloads over several seeds.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 [--seconds 10] [workload ...]

For each workload (default: all in BENCHMARK.json) the untraced run is
repeated once per seed. For each end-to-end metric the script prints
the median and the spread, the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json. The wall-clock metrics
each run records beside them (ops_per_s, p50_ms, tail_ms; not gated)
get the same summary. Each run's line shows the CPU metric and the
wall-clock ones side by side with the host steal share of the run,
since on a shared host the two drift apart under steal, and with the
run's duration, build and input generation included.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with exit code {r.returncode}")
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return env, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [m["name"] for m in spec["end_to_end"]]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    walls = ["ops_per_s", "p50_ms", "tail_ms"]
    for wl in workloads:
        values = {n: [] for n in names + walls}
        print(f"== {wl}")
        for seed in parse_seeds(args.seeds):
            start = time.monotonic()
            env, res = run_once(wl, seed, seconds)
            took = time.monotonic() - start
            row = {n: res["metrics"][n]["value"] for n in names}
            row.update({n: env["wall"][n] for n in walls})
            for n, v in row.items():
                values[n].append(v)
            print(f"seed {seed:3d}  {took:5.1f}s  steal {env['steal_share']:.3f}  "
                  + "  ".join(f"{n} {row[n]:.4g}" for n in ["cpu_ms_per_op"] + walls)
                  + "  |  " + "  ".join(f"{n} {row[n]:.4g}" for n in names if n != "cpu_ms_per_op"),
                  flush=True)
        print(f"{'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for n in names + walls:
            v = values[n]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = f"{bounds[n]:6.2f}" if n in bounds else "  wall"
            print(f"{n:16s} {med:12.5g} {spread:8.3f} {bound}")

if __name__ == "__main__":
    main()
