#!/usr/bin/env python3
"""End-to-end benchmark for nsrel: build, then run one workload.

Run from the repository root:

    python3 perf_e2e/run.py --workload paper_figures --seed 1 --seconds 10 --trace 0

Workloads: paper_figures, highft_sweep, mc_accel, repair_online (see
perf_e2e/NOTES.md). The library and the benchmark binary are built from
source with CMake into $CARGO_TARGET_DIR (default .bench_build) on every
call; an up-to-date tree rebuilds in about a second. The last line of standard
output is the JSON result; the report lines above it name the host, the
build, the inputs and every metric. Build output goes to standard error.

    python3 perf_e2e/run.py --self-test    # unit tests of the arithmetic

Exit codes: 0 = ran and every correctness check passed; 1 = a check
failed, the build failed or the run timed out; 2 = usage error or no
source tree to build.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = "perf_e2e"
WORKLOADS = ("paper_figures", "highft_sweep", "mc_accel", "repair_online")
MAX_THREADS = 4
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("perf_e2e: " + message, file=sys.stderr)
    return code


def threads_available():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def source_digest():
    """SHA-256 over the sources the build reads: identifies the tree when
    it is not a git checkout."""
    digest = hashlib.sha256()
    paths = ["CMakeLists.txt"]
    for top in ("src", BENCH_DIR):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            paths.extend(os.path.join(root, name) for name in sorted(files))
    for path in paths:
        digest.update(path.encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def build(build_dir, targets):
    jobs = str(max(1, min(threads_available(), 8)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                 + targets)
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None when
    the file is absent."""
    if not os.path.exists("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    key = "per_layer" if trace else "end_to_end"
    return [metric["name"] for metric in spec[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        return fail(2, "--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        return fail(2, "--seed must be >= 0 and --seconds > 0")
    if not (os.path.isfile(os.path.join("src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join(BENCH_DIR, "CMakeLists.txt"))):
        return fail(2, "run from the repository root: no src/ tree to build")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if args.self_test:
        if not build(build_dir, ["perf_e2e_stats_test"]):
            return fail(1, "build failed")
        return subprocess.run(
            [os.path.join(build_dir, "perf_e2e_stats_test")]).returncode
    if not build(build_dir, ["perf_e2e"]):
        return fail(1, "build failed")

    threads = max(1, min(threads_available(), MAX_THREADS))
    command = [os.path.join(build_dir, "perf_e2e"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--threads", str(threads),
               "--reference-dir", os.path.join(BENCH_DIR, "reference"),
               "--source-digest", source_digest()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(1, "run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        return fail(1, "perf_e2e exited %d without a result" % done.returncode)

    # The result must carry exactly the metrics BENCHMARK.json declares.
    result = json.loads(lines[-1])
    declared = expected_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(result["metrics"]):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return fail(1, "result metrics do not match BENCHMARK.json")
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
