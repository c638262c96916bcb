#!/usr/bin/env python3
"""Builds the lakehouse benchmark from source and runs one workload.

    python3 perfbench/run.py --workload adhoc_query --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ (CMake, RelWithDebInfo, Ninja when
available) and the benchmark runs in the repository root, where traced
runs write their spans to .bench_out/. Everything printed before the
benchmark's own output goes to stderr, so the last stdout line is the
benchmark's result object. All flags are passed to the benchmark binary,
which rejects unknown ones with exit code 2; see perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lakebench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

USAGE = """usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds N]
                              [--trace 0|1]

  --workload  adhoc_query | dev_loop | ingest_refresh
  --seed      input seed (default 1)
  --seconds   run length; sets the op count (default 10)
  --trace     1 = per-layer metrics from a traced pass (default 0)
"""


def run(cmd, timeout):
    """Runs cmd with its stdout sent to our stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out after {timeout} s: {cmd[0]}",
              file=sys.stderr)
        return 1


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", PACKAGE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, BUILD_TIMEOUT_S) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run(["cmake", "--build", BUILD, "--target", "lakebench",
                "-j", jobs], BUILD_TIMEOUT_S) == 0


def git_commit():
    # Only ask git when the checkout itself is a repository, so the
    # lookup never wanders into parent directories.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(args):
    if "--help" in args or "-h" in args:
        print(USAGE, end="")
        return 0
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY] + args + ["--git-commit", git_commit()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark timed out after {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
