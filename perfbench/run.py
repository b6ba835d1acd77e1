#!/usr/bin/env python3
"""Build the online-index-build benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sf_build --seed 1 --seconds 35 --trace 0

It builds perfbench/oibbench.exe with dune (the first build compiles the
engine, later ones are incremental), runs it with the given arguments and
passes its output through. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Before passing
that line on, the wrapper checks that its metric names are exactly those
BENCHMARK.json lists for the run's mode (end_to_end for --trace 0,
per_layer for --trace 1). Any failure exits non-zero without printing a
result.

    python3 perfbench/run.py --selftest

runs the benchmark's own self-test instead (planted faults, determinism,
a held-out seed; a tiny table, a few seconds).
"""

import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "oibbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def die(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            die("%s not found: run from the root of a source checkout" % needed)
    if not shutil.which("dune"):
        die("dune is not on PATH")
    cmd = ["dune", "build", "--root", ".", "./perfbench/oibbench.exe"]
    try:
        # build chatter goes to stderr: stdout ends with the result line
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if done.returncode != 0:
        die("build failed", done.returncode)


def arg_value(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def expected_metrics(args):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if arg_value(args, "--trace", "0") == "1" else "end_to_end"
    return {m["name"] for m in bench[key]}


def pin_to_last_cpu():
    """Keep the single-threaded benchmark on one CPU, the highest-numbered
    one it may use (CPU 0 also takes most interrupts): migrating between
    CPUs of unequal speed adds run-to-run noise."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main():
    args = sys.argv[1:]
    build()
    try:
        done = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=pin_to_last_cpu)
    except subprocess.TimeoutExpired:
        die("benchmark ran over %d s" % RUN_TIMEOUT_S, 3)
    out = done.stdout.decode()
    if done.returncode != 0:
        sys.stdout.write(out)
        die("benchmark failed (exit %d)" % done.returncode, done.returncode)
    if "--selftest" in args:
        sys.stdout.write(out)
        return
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("the last output line is not a JSON result")
    got = set(result.get("metrics", {}))
    want = expected_metrics(args)
    if got != want:
        die("metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(want - got), sorted(got - want)))
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
