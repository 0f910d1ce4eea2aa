#!/usr/bin/env python3
"""Builds the gprsim benchmark from the enclosing checkout and runs it.

Run from the root of a gprsim checkout:

    python3 perfbench/run.py --workload cell_sweep --seed 1 --seconds 25 --trace 0

Workloads: cell_sweep, lattice_fp, serve_mix (see perfbench/README.md).
The build goes to $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset. Build output and diagnostics go to stderr;
standard output ends with one JSON result line. The benchmark's
self-tests run before every measurement.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "gprsim_perfbench",
                    "-j", str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "gprsim_perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"run.py: no gprsim sources under {ROOT}; run from a gprsim checkout",
              file=sys.stderr)
        return 2
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(os.path.join(build_root, "perfbench"))
        subprocess.run([binary, "--self-test"], check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build or self-test failed: {error}", file=sys.stderr)
        return 1
    # A relative scratch path keeps the serve_mix socket path short.
    command = [binary, *argv, "--data", os.path.relpath(HERE, ROOT),
               "--work", os.path.relpath(build_root, ROOT), "--git-sha", git_sha()]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
