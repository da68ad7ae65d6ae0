#!/usr/bin/env python3
"""Builds memfront's pipeline benchmark from source and runs it.

Run from the repository root:

    python3 pipeline_bench/run.py --workload uns-circuit --seed 1 --seconds 20 --trace 0
    python3 pipeline_bench/run.py --self-test

The build and the run's work files (spill files, span traces) go to
$CARGO_TARGET_DIR, or .bench_build when it is unset, under the current
directory. Every argument is passed to the benchmark program; the last line of
standard output is the JSON summary. Build output goes to standard error.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(HERE)
# The program's own runs end well within this; a run past it is killed.
RUN_TIMEOUT_S = 170


def main(argv):
    if not os.path.isfile(os.path.join(SOURCE_ROOT, "src", "memfront", "solver", "analysis.hpp")):
        print("run.py: memfront sources not found next to the benchmark", file=sys.stderr)
        return 2
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.join(out, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build, "-j", jobs, "--target", "pipeline_bench"],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    try:
        return subprocess.run([os.path.join(build, "pipeline_bench"), *argv, "--work-dir", work],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
