#!/usr/bin/env python3
"""Runs one workload of the XSACT repository benchmark.

    python3 perfbench/run.py --workload http_light --seed 1 --seconds 40 --trace 0

Run it from the root of a source tree. It builds perfbench/ (which pulls
in the XSACT libraries from the tree) into .bench_build/, generates the
workload's corpora from the seed in a process of its own, then runs the
measuring process on them. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}. The line before it records
the seed, the source revision and the core count. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Workloads and metrics are
described in perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
BINARY = os.path.join(CMAKE_DIR, "xsact_perfbench")
WORKLOADS = ("http_light", "engine_large")
# Everything after the build must end within this many seconds.
RUN_BUDGET_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no XSACT sources (CMakeLists.txt, src/) next to perfbench/")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "--build", CMAKE_DIR, "--target", "xsact_perfbench",
              "-j", jobs]]
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", CMAKE_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def git_revision():
    """HEAD's commit, read from .git without leaving the tree; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the files the benchmark builds from."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, name) for name in filenames)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    started = time.monotonic()
    corpora = os.path.join(BUILD_DIR, "corpora",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(corpora)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", corpora]
        gen = subprocess.run([BINARY, "gen"] + common, stdout=sys.stderr,
                             timeout=RUN_BUDGET_S)
        if gen.returncode != 0:
            fail("corpus generation failed")
        remaining = RUN_BUDGET_S - (time.monotonic() - started)
        run = subprocess.run(
            [BINARY, "run"] + common +
            ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, timeout=max(1, remaining), text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_BUDGET_S)
    finally:
        shutil.rmtree(corpora, ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    try:
        result = check_result(lines[-1])
        detail = json.loads(lines[-2])["detail"]
    except (IndexError, KeyError, ValueError) as e:
        fail("no result from the measuring process (exit %d): %s" %
             (run.returncode, e))
    if run.returncode != 0 and result["correct"]:
        fail("measuring process exited %d" % run.returncode)
    print(json.dumps({"run": {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "detail": detail,
    }}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
