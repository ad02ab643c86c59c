#!/usr/bin/env python3
"""Builds and runs the Turnstile end-to-end benchmark.

    python3 e2ebench/run.py --workload stream|chatter|deploy --seed N \
        --seconds S --trace 0|1

Configures e2ebench/ as a standalone CMake package (Release, build tree
.bench_build/ at the repository root), builds the e2e_bench binary from the
repository's src/ (a no-op when it is up to date) and runs it. The binary's
standard output passes through unchanged, and its last line is the JSON
result; build output goes to standard error. The exit code is the binary's:
0 when every operation and output check passed.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2e_bench")


def parse_args():
    parser = argparse.ArgumentParser(description="Turnstile end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=["stream", "chatter", "deploy"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    return parser.parse_args()


def run_to_stderr(command):
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit("run.py: '%s' failed with exit code %d" % (" ".join(command), result.returncode))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no Turnstile sources at %s; run from a full checkout"
                 % os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_to_stderr(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_to_stderr(["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", jobs])


def revision():
    """The git commit of a repository checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    args = parse_args()
    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--revision", revision()]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
