#!/usr/bin/env python3
"""Regenerate the golden-result corpus under tests/golden/.

The corpus pins the simulator's RunResult for nineteen (workload,
preset) cells covering every preset (see tests/golden_cells.h);
tests/test_golden.cpp asserts that re-simulating each cell reproduces
its committed JSON byte for byte.

Regeneration is deliberately guarded:

- it REFUSES to run over a dirty git tree, so new goldens can only
  ever appear in a commit whose diff shows exactly which counters
  changed -- accepting new results is a reviewed decision, never a
  side effect of a local build;
- it REFUSES to run when this machine's context (CPU model, core
  count, cpufreq governor) differs from the one recorded in the
  committed perf baseline (tests/perf/BENCH_perf_baseline.json), so a
  re-baselining commit is not a mix of reference-runner perf numbers
  and foreign-machine goldens.  Pass --force to override when the
  context change is intentional (e.g. adopting a new runner class) --
  then re-measure the perf baseline in the same commit.

Usage:
  scripts/update_golden.py [--build-dir build/release] [--force-build]
                           [--force]
"""

import argparse
import json
import pathlib
import subprocess
import sys

import machine_context

REPO = pathlib.Path(__file__).resolve().parent.parent
PERF_BASELINE = REPO / "tests" / "perf" / "BENCH_perf_baseline.json"


def run(cmd, **kwargs):
    print("  $", " ".join(str(c) for c in cmd))
    return subprocess.run(cmd, check=True, cwd=REPO, **kwargs)


def dirty_paths():
    out = subprocess.run(
        ["git", "status", "--porcelain"],
        cwd=REPO, check=True, capture_output=True, text=True).stdout
    return [line for line in out.splitlines() if line.strip()]


def context_mismatches():
    """Differences between this machine and the committed perf context."""
    if not PERF_BASELINE.exists():
        return []
    try:
        doc = json.load(open(PERF_BASELINE))
    except (OSError, json.JSONDecodeError):
        return []
    return machine_context.diff(doc.get("meta", {}).get("machine"))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build/release",
                    help="CMake build directory (default: build/release)")
    ap.add_argument("--force-build", action="store_true",
                    help="configure the build directory if it is missing")
    ap.add_argument("--force", action="store_true",
                    help="re-baseline despite a machine-context mismatch "
                         "with tests/perf/BENCH_perf_baseline.json")
    args = ap.parse_args()

    dirty = dirty_paths()
    if dirty:
        print("refusing to regenerate goldens over a dirty git tree:",
              file=sys.stderr)
        for line in dirty:
            print("  " + line, file=sys.stderr)
        print("commit or stash first, so the corpus diff stands alone.",
              file=sys.stderr)
        return 1

    mismatches = context_mismatches()
    if mismatches:
        if not args.force:
            print("refusing to re-baseline on a machine that does not "
                  "match the committed perf context:", file=sys.stderr)
            for m in mismatches:
                print("  " + m, file=sys.stderr)
            print("pass --force if the context change is intentional, "
                  "and re-measure the perf baseline in the same commit.",
                  file=sys.stderr)
            return 1
        print("machine-context mismatch overridden by --force:")
        for m in mismatches:
            print("  " + m)

    build = REPO / args.build_dir
    if not (build / "CMakeCache.txt").exists():
        if not args.force_build:
            print(f"no build at {build}; run cmake there or pass "
                  "--force-build", file=sys.stderr)
            return 1
        run(["cmake", "-S", ".", "-B", str(build), "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"])

    run(["cmake", "--build", str(build), "--target", "dcfb-golden"])
    run([str(build / "bin" / "dcfb-golden"), "tests/golden"])

    changed = dirty_paths()
    if changed:
        print("\ncorpus changed; review and commit:")
        for line in changed:
            print("  " + line)
    else:
        print("\ncorpus unchanged: results are bit-identical.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
