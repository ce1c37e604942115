#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds skynet_perfbench from this checkout's sources with CMake (into
.bench_build/perfbench) and runs one workload:

    python3 perfbench/run.py --workload flood_seq --seed 1 --seconds 20 --trace 0

Workloads: flood_seq, storm_guarded, serve_flood (see BENCHMARK.json at
the repository root for why each exists and which metrics it reports).
Run files (checkpoints, sockets, traces) go to .bench_out/, relative to
the repository root so unix socket paths stay short. The last line of
standard output is the result JSON; build output goes to stderr. The
default and held-out seeds are in perfbench/seeds.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "skynet_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no skynet sources beside perfbench/ (src/CMakeLists.txt is missing)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "skynet_perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def revision():
    """Git revision and dirty flag of the checkout, when it is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "none", False
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_CONFIG_NOSYSTEM="1",
               GIT_CONFIG_GLOBAL=os.devnull)

    def git(*args):
        done = subprocess.run(["git", "-C", ROOT, *args], env=env, capture_output=True,
                              text=True, check=False)
        return done.stdout.strip() if done.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    if rev is None:
        return "none", False
    status = git("status", "--porcelain", "--untracked-files=no")
    return rev, bool(status)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["flood_seq", "storm_guarded", "serve_flood"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    rev, dirty = revision()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--revision", rev, "--dirty", "1" if dirty else "0"]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
