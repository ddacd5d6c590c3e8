#!/usr/bin/env python3
"""Compare two nsrel-bench-v1 documents: baseline vs current run.

Counters are deterministic facts about the work performed (solve-cache
hits/misses, sweep cell counts, problem sizes), so any counter change is
a HARD FAILURE — the benchmark did different work than the baseline
recorded, which is either an intentional change (re-generate the
baseline) or a regression in the caching/fan-out machinery.

Timings are machine-dependent, so they only WARN: a benchmark slower
than baseline by more than --warn-factor prints a warning but does not
affect the exit code. When both documents name their host and the hosts
differ, one NOTE line says so, so a timing warning can be read against
the hardware change. CI uploads both documents as artifacts so a human
can look at the trajectory.

Exit codes: 0 clean (warnings allowed), 1 counter mismatch or
missing/extra benchmark, 2 usage or unreadable/invalid input.

Usage: bench_diff.py BASELINE.json CURRENT.json [--warn-factor 1.5]
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot read '{path}': {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "nsrel-bench-v1":
        print(f"bench_diff: '{path}' is not an nsrel-bench-v1 document",
              file=sys.stderr)
        sys.exit(2)
    return doc


def describe_host(host):
    return (f"{host.get('hardware_threads', '?')} threads, "
            f"cpu \"{host.get('cpu_model', '?')}\"")


def by_name(doc):
    out = {}
    for entry in doc.get("benchmarks", []):
        out[entry["name"]] = entry
    return out


# The whole-binary "total" entry accumulates cache traffic across every
# bench in the binary, including benches whose iteration counts are
# chosen dynamically by google-benchmark — so its counters are NOT
# run-to-run deterministic and its wall clock is the binary's, not a
# benchmark's. Skip it for counter comparison.
NONDETERMINISTIC = {"total"}

# Counters that scale with google-benchmark's dynamically chosen
# iteration count (or with hardware concurrency) rather than with the
# benchmark's definition. Everything else must match exactly.
ITERATION_SCALED = {"cache_hits", "cache_misses"}

# Rate counters are derived from wall clock (bytes / elapsed time), so
# they are machine-dependent like timings: excluded from the exact
# comparison (the timing WARN path covers the same regression).
TIMING_DERIVED = {"bytes_per_second", "items_per_second"}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--warn-factor", type=float, default=1.5,
                        help="warn when current real time exceeds "
                             "baseline by this factor (default 1.5)")
    args = parser.parse_args()

    base_doc = load(args.baseline)
    cur_doc = load(args.current)
    if base_doc.get("binary") != cur_doc.get("binary"):
        print(f"bench_diff: binary mismatch: baseline is "
              f"'{base_doc.get('binary')}', current is "
              f"'{cur_doc.get('binary')}'", file=sys.stderr)
        sys.exit(1)

    base_host = base_doc.get("host")
    cur_host = cur_doc.get("host")
    if base_host is not None and cur_host is not None and base_host != cur_host:
        print(f"NOTE: host differs: baseline {describe_host(base_host)}, "
              f"current {describe_host(cur_host)}; timings compare across "
              f"machines")

    base = by_name(base_doc)
    cur = by_name(cur_doc)
    failures = 0
    warnings = 0

    missing = sorted(set(base) - set(cur))
    extra = sorted(set(cur) - set(base))
    for name in missing:
        print(f"FAIL: benchmark '{name}' in baseline but not in current run")
        failures += 1
    for name in extra:
        print(f"FAIL: benchmark '{name}' in current run but not in baseline "
              f"(re-generate the baseline)")
        failures += 1

    for name in sorted(set(base) & set(cur)):
        if name in NONDETERMINISTIC:
            continue
        b, c = base[name], cur[name]
        b_counters = dict(b.get("counters", {}))
        c_counters = dict(c.get("counters", {}))
        keys = set(b_counters) | set(c_counters)
        for key in sorted(keys - ITERATION_SCALED - TIMING_DERIVED):
            bv = b_counters.get(key)
            cv = c_counters.get(key)
            if bv != cv:
                print(f"FAIL: {name}: counter '{key}' changed: "
                      f"baseline {bv}, current {cv}")
                failures += 1
        # Iteration-scaled counters must still agree per iteration.
        b_iters = b.get("iterations", 1) or 1
        c_iters = c.get("iterations", 1) or 1
        for key in sorted(keys & ITERATION_SCALED):
            bv = b_counters.get(key, 0.0) / b_iters
            cv = c_counters.get(key, 0.0) / c_iters
            if abs(bv - cv) > 1e-9 * max(abs(bv), abs(cv), 1.0):
                print(f"FAIL: {name}: per-iteration counter '{key}' "
                      f"changed: baseline {bv:.6g}, current {cv:.6g}")
                failures += 1

        b_ns = b.get("real_ns", 0.0)
        c_ns = c.get("real_ns", 0.0)
        if b_ns > 0 and c_ns > args.warn_factor * b_ns:
            print(f"WARN: {name}: real time {c_ns / b_ns:.2f}x baseline "
                  f"({b_ns:.0f} ns -> {c_ns:.0f} ns)")
            warnings += 1

    total = len(set(base) & set(cur))
    print(f"bench_diff: {total} benchmarks compared, "
          f"{failures} failures, {warnings} timing warnings")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
