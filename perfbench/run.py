#!/usr/bin/env python3
"""Builds and runs the Sato serving benchmark for one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark program is built from source
into .bench_build/perfbench (CMake, Release), a bundle is trained from the
seed (input preparation, never timed), and the workload runs for the given
seconds. The program's last stdout line is the result JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
when the build, the run or a correctness check fails.

Per-workload constants that BENCHMARK.json states in each workload's
"why" (the open-loop arrival rate "rate=<n>/s" and the latency limit
"slo=<n>ms") are read from there, so the file and the runs cannot drift.
"""

import argparse
import fcntl
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def workload_params(name):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    for workload in spec.get("workloads", []):
        if workload.get("name") == name:
            why = workload.get("why", "")
            slo = re.search(r"\bslo=([0-9.]+)ms\b", why)
            rate = re.search(r"\brate=([0-9.]+)/s\b", why)
            if slo is None:
                fail("workload %s states no slo=<n>ms" % name)
            return float(slo.group(1)), float(rate.group(1)) if rate else 0.0
    fail("unknown workload %s" % name)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.h")):
        fail("Sato sources (src/) not found under %s" % ROOT)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not os.path.isfile(
                os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure += ["-G", "Ninja"]
        jobs = str(os.cpu_count() or 1)
        for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "sato_perfbench")


def run(cmd):
    """Runs cmd to completion (killing it on timeout); returns (code, out)."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail("timed out: " + " ".join(cmd))
        return proc.returncode, out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    slo_ms, rate = workload_params(args.workload)
    binary = build()
    work_dir = os.path.join(BUILD_ROOT, "perfbench-run-%d" % os.getpid())
    os.makedirs(work_dir)
    try:
        bundle = os.path.join(work_dir, "model.sato")
        code, _ = run([binary, "prepare", "--seed", str(args.seed),
                       "--bundle", bundle])
        if code != 0:
            fail("bundle preparation failed")
        cmd = [binary, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--bundle", bundle,
               "--work-dir", work_dir, "--slo-ms", str(slo_ms),
               "--rate", str(rate)]
        if args.trace:
            traces = os.path.join(BUILD_ROOT, "perfbench-traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.tsv" % (args.workload, args.seed))]
        code, out = run(cmd)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line (exit code %d)" % code)
    if set(result) != RESULT_KEYS:
        fail("malformed result line")
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0 or not result["correct"]:
        sys.exit(code or 1)


if __name__ == "__main__":
    main()
