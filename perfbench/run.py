#!/usr/bin/env python3
"""Build and run the end-to-end simulator benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig4_sweep --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the pcs library from ../src. It is configured once and rebuilt
incrementally on every call, under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Workloads and metrics are described
in BENCHMARK.json and perfbench/BENCHMARK.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, targets):
    env = dict(os.environ)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # keep compiler temporaries inside the checkout
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"] +
                 targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build", "perfbench")
    if argv == ["--selftest"]:
        if not build(build_dir, ["perfbench_selftest"]):
            return 1
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")]).returncode
    if not build(build_dir, ["perfbench"]):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    cmd = [os.path.join(build_dir, "perfbench")] + argv + [
        "--work-dir", os.path.join(build_dir, "work"), "--git-sha", git_sha()]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
