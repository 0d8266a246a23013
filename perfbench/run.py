#!/usr/bin/env python3
"""Builds and runs the served-path benchmark.

    python3 perfbench/run.py --workload cold-walk|hot-repeat|swap-churn \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of the source tree. The benchmark is its own CMake
package (perfbench/CMakeLists.txt) on top of the repo's library; it is
built in $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
Generated graphs are cached in perfbench/.inputs, keyed by seed. The
last line of stdout is the result object; build output goes to stderr.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir, targets):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    *targets], check=True, stdout=sys.stderr)


def git(*args):
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over the files the benchmark builds from."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no hkpr source tree around {HERE}; nothing to build")
        return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    try:
        build(build_dir, ["bench_lib_test"] if args.selftest
              else ["served_bench"])
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 2

    if args.selftest:
        work_dir = os.path.join(build_dir, "selftest")
        os.makedirs(work_dir, exist_ok=True)
        return subprocess.run([os.path.join(build_dir, "bench_lib_test"),
                               work_dir]).returncode

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    commit = git("rev-parse", "HEAD") or "none"
    status = git("status", "--porcelain", "--untracked-files=no")
    dirty = "unknown" if status is None else ("1" if status else "0")
    cmd = [os.path.join(build_dir, "served_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", os.path.join(HERE, ".inputs"), "--out", out_dir,
           "--commit", commit, "--dirty", dirty, "--source", source_digest()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1


if __name__ == "__main__":
    sys.exit(main())
