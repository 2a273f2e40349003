#!/usr/bin/env python3
"""Build and run the DCFB performance benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload figure-grid [--seed 42]
                             [--seconds 20] [--trace 0|1]
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the dcfb library from
src/ plus the benchmark programs) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set.  Later calls rebuild incrementally.
Build output goes to stderr.

Each workload runs in a fresh dcfb_perfbench process, so its peak RSS is
its own.  The program prints a metric table and a JSON line with every
metric it measured; this script passes the table through and prints, as
its last stdout line, the JSON result restricted to the metrics declared
in BENCHMARK.json (end_to_end for --trace 0, per_layer for --trace 1).
A declared metric the program did not report is an error.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figure-grid", "long-cell", "seed-sweep")
RUN_TIMEOUT_S = 170


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configure (once) and build; return False on failure."""
    steps = []
    if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        cfg = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=840, check=False)
        except (OSError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return False
        if res.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def machine_context():
    """One line from scripts/machine_context.py, when the repo has it."""
    sys.path.insert(0, str(ROOT / "scripts"))
    sys.dont_write_bytecode = True
    try:
        import machine_context  # pylint: disable=import-outside-toplevel
        return json.dumps(machine_context.collect(), sort_keys=True)
    except ImportError:
        return "unknown"
    finally:
        sys.path.pop(0)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(out, workload, args):
    """Run one workload; return its parsed result line or None."""
    cmd = [str(out / "dcfb_perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--digests", str(HERE / "digests.txt"),
           "--trace-out", str(out / f"perfbench-{workload}")]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = res.stdout.splitlines()
    if res.returncode != 0 or not lines:
        print(f"perfbench: {workload} exited with {res.returncode}",
              file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def select(result, names):
    """Restrict result metrics to @names; None when one is missing."""
    if names is None:
        return result
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        print(f"perfbench: metrics not reported: {', '.join(missing)}",
              file=sys.stderr)
        return None
    return dict(result, metrics={n: result["metrics"][n] for n in names})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-test")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        return 1
    if args.selftest:
        return subprocess.run([str(out / "perfbench_selftest"), "--digests",
                               str(HERE / "digests.txt")],
                              timeout=RUN_TIMEOUT_S, check=False).returncode

    print(f"machine: {machine_context()}")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    names = declared_metrics(args.trace)
    results = {}
    for workload in workloads:
        result = run_workload(out, workload, args)
        result = result and select(result, names)
        if result is None:
            return 1
        results[workload] = result

    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
