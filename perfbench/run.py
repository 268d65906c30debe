#!/usr/bin/env python3
"""Builds and runs the end-to-end pipeline benchmark.

One run of one workload (the last stdout line is the result JSON, with
the metrics BENCHMARK.json declares):

    python3 perfbench/run.py --workload serve_fleet --seed 1 --seconds 10 --trace 0

All three workloads at BBV_THREADS=4, printing the ten headline metrics
by name with units (add --traced for the per-layer breakdown too):

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--traced]

The program is built from the repository sources into .bench_build (or
$CARGO_TARGET_DIR) under the repository root. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_fleet", "serve_monitored", "meta_train")
THREADS = "4"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
REPORT_PREFIX = "perfbench-report "
# The headline metrics, plus set-up wall time; each workload reports the
# ones defined on it (see README.md for why the BENCHMARK.json metrics
# differ).
HEADLINE_METRICS = (
    ("rows_per_s", "1/s"),
    ("flush_p50_ms", "ms"),
    ("flush_p99_ms", "ms"),
    ("train_s_p50", "s"),
    ("abs_err_p50", "acc"),
    ("detect_delay_batches", "batches"),
    ("false_alarm_rate", "ratio"),
    ("failed_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_wall_s", "s"),
)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "bbv_perfbench",
                  "-j", THREADS])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step failed: %s" % error)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "bbv_perfbench")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return {
        "0": {m["name"]: m["unit"] for m in declared["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in declared["per_layer"]},
    }


def run_binary(binary, workload, seed, seconds, trace, extra):
    """Runs one workload; returns (exit code, stdout lines)."""
    env = dict(os.environ, BBV_THREADS=THREADS, BBV_TELEMETRY="off")
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)] + extra
    if trace == "1":
        command += ["--trace-out", os.path.join(
            build_dir(), "perfbench-trace-%s.csv" % workload)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return done.returncode, done.stdout.splitlines()


def check_result(line, expected):
    """The result line must carry exactly the declared keys and metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not JSON: " + line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("unexpected result keys %s" % sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(expected.items())))
    return result


def single(args, extra):
    if args.workload not in WORKLOADS:
        fail("unknown workload %r" % args.workload)
    expected = declared_metrics()[args.trace]
    binary = build()
    code, lines = run_binary(binary, args.workload, args.seed, args.seconds,
                             args.trace, extra)
    if not lines:
        fail("no output (exit code %d)" % code)
    for line in lines[:-1]:
        print(line)
    result = check_result(lines[-1], expected)
    print(lines[-1])
    sys.stdout.flush()
    if code != 0 or not result["correct"]:
        sys.exit(1)


def run_all(args, extra):
    declared = declared_metrics()
    binary = build()
    reports = {}
    traces = {}
    for workload in WORKLOADS:
        for trace in ("0", "1") if args.traced else ("0",):
            code, lines = run_binary(binary, workload, args.seed, args.seconds,
                                     trace, extra)
            if code != 0 or not lines:
                fail("%s --trace %s failed (exit code %d)" %
                     (workload, trace, code))
            result = check_result(lines[-1], declared[trace])
            if not result["correct"] or result["failed"] != 0:
                fail("%s --trace %s: correctness gate or failed ops" %
                     (workload, trace))
            if trace == "0":
                report = [l for l in lines if l.startswith(REPORT_PREFIX)]
                reports[workload] = json.loads(
                    report[-1][len(REPORT_PREFIX):])["metrics"]
            else:
                traces[workload] = result["metrics"]
    width = max(len(name) + len(unit) + 3 for name, unit in HEADLINE_METRICS)
    print("%-*s" % (width, "metric") +
          "".join("%18s" % w for w in WORKLOADS))
    for name, unit in HEADLINE_METRICS:
        cells = []
        for workload in WORKLOADS:
            metric = reports[workload].get(name)
            cells.append("%18.6g" % metric["value"] if metric else
                         "%18s" % "-")
        print("%-*s" % (width, "%s [%s]" % (name, unit)) + "".join(cells))
    if args.traced:
        print()
        for name, unit in sorted(declared["1"].items()):
            print("%-*s" % (width + 22, "%s [%s]" % (name, unit)) + "".join(
                "%18.6g" % traces[w][name]["value"] for w in WORKLOADS))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print the headline table")
    parser.add_argument("--traced", action="store_true",
                        help="with --all: also print the per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="minimal sizes (the benchmark's own test)")
    parser.add_argument("--plant-mismatch", action="store_true",
                        help="corrupt one response; the gate must fail")
    args = parser.parse_args()
    extra = []
    if args.tiny:
        extra.append("--tiny")
    if args.plant_mismatch:
        extra.append("--plant-mismatch")
    if args.all:
        run_all(args, extra)
    elif args.workload:
        single(args, extra)
    else:
        parser.error("give --workload or --all")


if __name__ == "__main__":
    main()
