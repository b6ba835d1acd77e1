#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload N times and summarise.

Run from the root of a source checkout:

    python3 perfbench/steady.py --runs 10                 # seeds 1..10
    python3 perfbench/steady.py --runs 5 --workloads nsf_crash_resume
    python3 perfbench/steady.py --runs 5 --trace 1        # per-layer metrics

Run i uses seed i and lasts run_seconds of BENCHMARK.json.
For every figure a run prints (its metrics, the end-to-end ones too in a
traced run, and the reference write percentiles) it prints the median,
the quartiles (as statistics.quantiles(values, n=4) gives them), min and
max, and the spread: (Q3 - Q1) / median. An end-to-end metric whose spread exceeds a
third of its bound in BENCHMARK.json is marked '!', and one over its bound
'!!' (setup_s is exempt from the spread rule but still shown). Each run
goes through perfbench/run.py, exactly as a single benchmark run does.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    wall = time.monotonic() - t0
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode())
        sys.exit("steady.py: %s seed %d failed (exit %d)"
                 % (workload, seed, done.returncode))
    lines = done.stdout.decode().rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    # every printed figure: the JSON's metrics, the other mode's metrics
    # (a traced run prints the end-to-end ones too) and the references
    shown = {}
    for line in lines[:-1]:
        f = line.split()
        if len(f) >= 4 and f[0] in ("metric", "reference"):
            shown[f[1]] = {"value": float(f[2]), "unit": f[3]}
    shown.update(result["metrics"])
    result["shown"] = shown
    return result, wall


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print("date %s  host %s  nproc %d  runs %d  seconds %d  trace %d"
          % (time.strftime("%Y-%m-%d %H:%M"), platform.machine(),
             os.cpu_count(), a.runs, seconds, a.trace))
    for w in a.workloads.split(","):
        results = []
        walls = []
        for seed in range(1, a.runs + 1):
            r, wall = run_once(w, seed, seconds, a.trace)
            results.append((seed, r))
            walls.append(wall)
        shares = sorted({r["failed"] / r["attempted"] for _, r in results})
        print("\n%s  seeds %s  wall per run %.1f-%.1f s  failed share %s"
              % (w, ",".join(str(s) for s, _ in results), min(walls),
                 max(walls), shares))
        print("  %-34s %12s %12s %12s %12s %12s %8s"
              % ("metric", "median", "q1", "q3", "min", "max", "spread"))
        for name in results[0][1]["shown"]:
            vals = [r["shown"][name]["value"] for _, r in results]
            unit = results[0][1]["shown"][name]["unit"]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            mark = ""
            b = bounds.get(name)
            if a.trace == 0 and b is not None and name != "setup_s":
                mark = "!!" if spread > b else ("!" if spread > b / 3 else "")
            print("  %-34s %12.6g %12.6g %12.6g %12.6g %12.6g %7.3f%s  %s"
                  % (name, med, q1, q3, min(vals), max(vals), spread, mark,
                     unit))


if __name__ == "__main__":
    main()
