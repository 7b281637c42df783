#!/usr/bin/env python3
"""Build the wisp end-to-end benchmark from source and run one workload.

Usage (from the root of a wisp checkout):
    python3 e2ebench/run.py --workload exec|startup|serve --seed N \
        --seconds S --trace 0|1

The first run configures and builds the benchmark package (e2ebench/, which
pulls in the wisp libraries from the checkout) into .bench_build, or into
$CARGO_TARGET_DIR when that is set; later runs rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Scratch files (disk caches, generated modules, traces) go to
.bench_work/.
"""

import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", "4"]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(build_dir, "e2ebench")
    cmd = [exe, *sys.argv[1:], "--bench-dir", BENCH_DIR,
           "--work-dir", ".bench_work"]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
