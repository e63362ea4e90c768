#!/usr/bin/env python3
"""Build and run the dlscale benchmark.

    python3 dlbench/run.py --workload train-dp4|serve-http|sim-summit132 \
        --seed N --seconds S --trace 0|1

Run from the root of a dlscale checkout. The first run configures and
builds dlbench/ (Release, the dlscale libraries plus the dlbench binary)
into .bench_build/dlbench; later runs only let CMake confirm it is up to
date. Build output goes to stderr. The binary's stdout is passed through;
its last line is the result object. Traces and per-process scratch files go
to .bench_out/ (scratch files are removed when the run ends).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "dlbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "dlbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "dlbench"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def main():
    if not build():
        print("dlbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ)
    # One intra-op thread: the rank and worker threads are the parallelism.
    env["DLSCALE_NUM_THREADS"] = "1"
    cmd = [BINARY] + sys.argv[1:] + ["--out-dir", OUT, "--git-sha", git_sha()]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
