#!/usr/bin/env python3
"""The coDB benchmark: builds codb_perfbench from ../src and runs it.

One run (the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics):

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Ten runs of every workload at BENCHMARK.json's run_seconds, summarised per
workload and end-to-end metric (median, quartiles, spread against the
bound); with --against the runs alternate with another checkout (the
parent) and each metric gets a verdict by the paired rule: improved, no
worse, worse or unresolved. --seed0 picks the first of the ten seeds:

  python3 perfbench/run.py summary [--seed0 N] [--against DIR]

Everything the benchmark builds or writes stays under .bench_build/ in the
checkout it runs from.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
BINARY = os.path.join(BUILD, "codb_perfbench")
# A run must end within 180 s; stop the binary with some time to spare.
RUN_TIMEOUT_S = 170
# Runs per side and workload in `summary`: the paired rule needs ten pairs.
SUMMARY_RUNS = 10


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds codb_perfbench; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no coDB sources at %s" % os.path.join(ROOT, "src"))
        sys.exit(2)
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target",
                      "codb_perfbench", "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log("perfbench: build step failed: %s" % " ".join(step))
                sys.exit(done.returncode or 1)


def run_once(workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, stdout text)."""
    scratch = os.path.join(WORK, "scratch", "%s-%d" % (workload, os.getpid()))
    traces = os.path.join(WORK, "traces")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scratch", scratch]
    if trace:
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (workload, seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
        code, out = done.returncode, done.stdout
    except subprocess.TimeoutExpired as expired:
        code, out = 124, expired.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return code, out


def result_of(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def main_run(argv):
    parser = argparse.ArgumentParser(description="one benchmark run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    build()
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    if code != 0:
        sys.stderr.write(out)
        log("perfbench: run failed with exit code %d" % code)
        return code
    sys.stdout.write(out)
    return 0


# -- repeated runs -----------------------------------------------------------


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as spec:
        return json.load(spec)


def run_checkout(root, workload, seed, seconds):
    """One end-to-end run of the benchmark in checkout `root`."""
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        log("perfbench: run failed in %s (%s, seed %d)"
            % (root, workload, seed))
        return None
    return result_of(done.stdout)


def quartiles(values):
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_summary(label, runs, spec):
    print("== %s" % label)
    print("  %-12s %-20s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for workload, records in runs.items():
        good = [r for r in records if r and r.get("correct")]
        if len(good) != len(records):
            print("  %-12s %d of %d runs failed or were incorrect"
                  % (workload, len(records) - len(good), len(records)))
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in good
                      if metric["name"] in r["metrics"]]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else 0.0
            mark = "" if spread <= metric["bound"] else "  over bound"
            print("  %-12s %-20s %12.6g %12.6g %12.6g %8.4f %6.3f%s" % (
                workload, metric["name"], median, q1, q3, spread,
                metric["bound"], mark))


def verdict(parent, change, better, bound):
    """The paired rule: parent[i] and change[i] ran as one pair."""
    sign = 1.0 if better == "higher" else -1.0
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gain = sign * (change_median - parent_median)
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        return "improved"
    every_better = all(sign * (c - p) > 0 for c in change for p in parent)
    spread = (q3 - q1) / abs(parent_median) if parent_median else 0.0
    if spread > bound and not every_better:
        return "unresolved"
    if -gain <= bound * abs(parent_median):
        return "no worse"
    return "worse"


def print_comparison(parent_runs, change_runs, spec):
    print("== paired comparison (parent vs change)")
    for workload in parent_runs:
        pairs = [(p, c) for p, c in zip(parent_runs[workload],
                                        change_runs.get(workload, []))
                 if p and c and p.get("correct") and c.get("correct")]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            kept = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                    for p, c in pairs
                    if name in p["metrics"] and name in c["metrics"]]
            if not kept:
                continue
            parent = [p for p, _ in kept]
            change = [c for _, c in kept]
            print("  %-12s %-20s %12.6g -> %12.6g  %s (%d pairs)" % (
                workload, name, statistics.median(parent),
                statistics.median(change),
                verdict(parent, change, metric["better"], metric["bound"]),
                len(kept)))


def main_summary(argv):
    parser = argparse.ArgumentParser(description="repeated runs")
    parser.add_argument("--seed0", type=int, default=1,
                        help="first seed; pass a fresh one to re-check a "
                             "claim on inputs not used while writing it")
    parser.add_argument("--against", default="",
                        help="another checkout (the parent); runs alternate")
    args = parser.parse_args(argv)
    spec = load_spec(ROOT)
    names = [w["name"] for w in spec["workloads"]]
    other = os.path.abspath(args.against) if args.against else ""
    mine = {name: [] for name in names}
    theirs = {name: [] for name in names}
    for index in range(SUMMARY_RUNS):
        seed = args.seed0 + index
        for name in names:
            # Alternate which side runs first.
            order = [(ROOT, mine), (other, theirs)] if other else [
                (ROOT, mine)]
            if index % 2 == 1:
                order.reverse()
            for root, sink in order:
                sink[name].append(
                    run_checkout(root, name, seed, spec["run_seconds"]))
            log("perfbench: run %d/%d %s done"
                % (index + 1, SUMMARY_RUNS, name))
    print_summary("this checkout", mine, spec)
    if other:
        print_summary("against: %s" % other, theirs, spec)
        print_comparison(theirs, mine, spec)
    return 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "summary":
        return main_summary(argv[1:])
    return main_run(argv)


if __name__ == "__main__":
    sys.exit(main())
