#!/usr/bin/env python3
"""Build the phisched benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first call configures and builds
perfbench/ (the phisched library compiled from src/ plus the benchmark
program) into .bench_build/perfbench with CMake; later calls only re-check
the build. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. A traced run (--trace 1) also writes its spans to
.bench_build/spans/. The exit status is non-zero when the build or any
output check fails. `--workload all` runs every workload in turn, each in
its own process, and prints each one's result. perfbench/README.md
documents workloads and metrics.
"""

import argparse
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SPANS_DIR = ROOT / ".bench_build" / "spans"
BINARY = BUILD_DIR / "phisched_perfbench"
WORKLOADS = ("table2", "scale1k", "service_long", "fleet_batch")
BUILD_JOBS = "4"


def run_quietly(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not (BUILD_DIR / "Makefile").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if not run_quietly(configure):
            return False
    return run_quietly(["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        cmd = [str(BINARY), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            SPANS_DIR.mkdir(parents=True, exist_ok=True)
            spans = SPANS_DIR / f"{name}-seed{args.seed}.json"
            cmd += ["--spans-out", str(spans)]
        if len(names) > 1:
            print(f"== {name}")
        sys.stdout.flush()
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
