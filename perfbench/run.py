#!/usr/bin/env python3
"""End-to-end DBRE benchmark: the one command that builds, generates and runs.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the benchmark from source
(dune, the benchmark's own "perfbench" profile, no shared cache), then
for each workload:

1. set-up: generates the workload's inputs from the seed three times
   with gen.exe (the median counts toward setup_s) and, for
   analyze-wide-ooc, computes the sequential unbudgeted reference in a
   process of its own;
2. runs bench.exe on them in a fresh process (which never generates),
   relaying its summary line; bench.exe times its own set-up, measures a
   closed loop for --seconds and checks every output.

setup_s is reported at a nominal host speed. Before and after each
set-up phase run.py outside bench.exe, a short process (bench.exe
--calibrate) times a fixed calibration task; the set-up wall time is
scaled by NOMINAL_CALIBRATION_S over the median of those times. The
host this was built on changes speed in stretches of seconds to
minutes; the raw wall time is kept in the result file.

The last stdout line is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1). With
--workload all, the three workloads run in turn and the metrics are keyed
"<workload>/<metric>". Result files, with the host, the sizes and (traced)
every span, go to perfbench/results/. Exits nonzero when a build, a
process or a correctness check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ["analyze-narrow", "analyze-wide-ooc", "serve-refresh"]
GEN_REPEATS = 3
# the calibration task's time at the nominal host speed setup_s is given at
NOMINAL_CALIBRATION_S = 0.010
HERE = "perfbench"
BUILD = os.path.join("_build", "default", HERE)


def die(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, capture=False):
    proc = subprocess.run(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        timeout=timeout,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    return proc


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a full checkout (dune-project and lib/ not found)")
    targets = ["./%s/gen.exe" % HERE, "./%s/bench.exe" % HERE]
    proc = run(["dune", "build", "--root", ".", "--profile", "perfbench"] + targets, 880)
    if proc.returncode != 0:
        die("build failed")


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def calibration():
    """The calibration task's time now, in seconds."""
    proc = run([os.path.join(BUILD, "bench.exe"), "--calibrate"], 30, capture=True)
    if proc.returncode != 0:
        die("bench.exe --calibrate failed", 1)
    return float(proc.stdout.strip())


class Setup:
    """Set-up phases timed in turn, with a calibration before and after each."""

    def __init__(self):
        self.calibrations = [calibration()]

    def timed(self, cmd, timeout):
        """Wall seconds of one command."""
        t0 = time.monotonic()
        proc = run(cmd, timeout)
        if proc.returncode != 0:
            die("%s failed" % " ".join(cmd), 1)
        wall = time.monotonic() - t0
        self.calibrations.append(calibration())
        return wall

    def scale(self):
        """Nominal over current host speed."""
        return NOMINAL_CALIBRATION_S / statistics.median(self.calibrations)


def one(workload, args, declared):
    work = os.path.join(HERE, "_work", "%s-s%d" % (workload, args.seed))
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, "%s-s%d-trace%d.json" % (workload, args.seed, args.trace))
    try:
        gen = [os.path.join(BUILD, "gen.exe"), "--workload", workload,
               "--seed", str(args.seed), "--out", work]
        setup = Setup()
        pre = statistics.median(setup.timed(gen, 60) for _ in range(GEN_REPEATS))
        bench = os.path.join(BUILD, "bench.exe")
        if workload == "analyze-wide-ooc":
            pre += setup.timed([bench, "--reference", "--workload", workload, "--data", work], 60)
        proc = run([bench, "--workload", workload, "--data", work,
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--seed", str(args.seed), "--pre-setup-s", repr(pre),
                    "--setup-scale", repr(setup.scale()),
                    "--nproc", str(len(os.sched_getaffinity(0))),
                    "--commit", commit(), "--out", out],
                   150, capture=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("%s printed no result" % workload, 1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if set(result["metrics"]) != declared:
        die("%s reported metrics other than BENCHMARK.json declares" % workload, 1)
    if proc.returncode != 0 and result["correct"]:
        die("bench.exe exited %d" % proc.returncode, 1)
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        die("BENCHMARK.json not found at the checkout root")
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: one(w, args, declared) for w in names}
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final), flush=True)
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
