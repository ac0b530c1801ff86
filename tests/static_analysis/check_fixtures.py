#!/usr/bin/env python3
"""Proves the static-analysis gates bite: every negative fixture in
tests/static_analysis/fixtures/ must be REJECTED by its gate, and the
well_locked.cc control must PASS — a gate that accepts a known-bad file
(or rejects a known-good one) is dead and this script fails the build.

Two gate families:

  clang -Wthread-safety -Werror  (unguarded_field_write.cc,
      requires_without_lock.cc; well_locked.cc as the positive control).
      Needs a clang++ on PATH (or $CLANGXX); skipped with a notice when
      absent — pass --require-clang (the CI mode) to make absence fatal.

  tools/lint/run_lint.py  (raw_mutex.cc, blocking_event_loop.{h,cc},
      polling_event_loop.{h,cc}, default_memory_order.cc; well_locked.cc
      as the positive control).
      Pure stdlib — always runs.

Exit status: 0 = all gates bite, 1 = a gate is dead, 2 = harness error.
"""

import argparse
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
FIXTURES = HERE / "fixtures"
RUN_LINT = REPO_ROOT / "tools" / "lint" / "run_lint.py"

THREAD_SAFETY_FLAGS = [
    "-std=c++17", "-fsyntax-only", "-Wthread-safety", "-Werror",
    "-I", str(REPO_ROOT / "src"),
]

failures = []


def fail(message):
    print(f"FAIL: {message}")
    failures.append(message)


def ok(message):
    print(f"  ok: {message}")


def clang_rejects(clangxx, fixture):
    result = subprocess.run(
        [clangxx] + THREAD_SAFETY_FLAGS + [str(fixture)],
        capture_output=True, text=True)
    return result.returncode != 0, result.stderr


def check_thread_safety(clangxx):
    accepted, stderr = clang_rejects(clangxx, FIXTURES / "well_locked.cc")
    if accepted:  # rejected the control → harness is broken
        fail("thread-safety gate rejected the well_locked.cc control:\n"
             + stderr)
        return
    ok("well_locked.cc compiles clean (control)")
    for name in ("unguarded_field_write.cc", "requires_without_lock.cc"):
        rejected, stderr = clang_rejects(clangxx, FIXTURES / name)
        if not rejected:
            fail(f"thread-safety gate ACCEPTED {name} — the gate is dead")
        elif "-Wthread-safety" not in stderr and "thread-safety" not in stderr:
            fail(f"{name} was rejected, but not by the thread-safety "
                 f"analysis:\n{stderr}")
        else:
            ok(f"{name} rejected by -Wthread-safety")


def lint(paths):
    result = subprocess.run(
        [sys.executable, str(RUN_LINT), "--skip-fault-docs"]
        + [str(p) for p in paths],
        capture_output=True, text=True)
    return result.returncode, result.stdout


def check_lint():
    code, out = lint([FIXTURES / "well_locked.cc"])
    if code != 0:
        fail(f"lint rejected the well_locked.cc control:\n{out}")
        return
    ok("well_locked.cc lints clean (control)")
    expectations = [
        ([FIXTURES / "raw_mutex.cc"], "[raw-mutex]"),
        ([FIXTURES / "blocking_event_loop.h",
          FIXTURES / "blocking_event_loop.cc"], "[blocking-call]"),
        ([FIXTURES / "polling_event_loop.h",
          FIXTURES / "polling_event_loop.cc"], "[blocking-call]"),
        ([FIXTURES / "default_memory_order.cc"], "[memory-order]"),
    ]
    for paths, tag in expectations:
        names = ", ".join(p.name for p in paths)
        code, out = lint(paths)
        if code == 0:
            fail(f"lint ACCEPTED {names} — the {tag} check is dead")
        elif tag not in out:
            fail(f"lint rejected {names}, but without a {tag} finding:\n{out}")
        else:
            ok(f"{names} rejected with {tag}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--require-clang", action="store_true",
        help="fail (instead of skip) when no clang++ is available — "
             "the CI static-analysis job sets this")
    parser.add_argument(
        "--clangxx", default=None,
        help="clang++ binary to use (default: $CLANGXX, then PATH)")
    args = parser.parse_args(argv)

    if not FIXTURES.is_dir():
        print(f"harness error: no fixtures dir at {FIXTURES}")
        return 2

    import os
    clangxx = args.clangxx or os.environ.get("CLANGXX") or shutil.which(
        "clang++")
    if clangxx:
        print(f"thread-safety fixtures (compiler: {clangxx}):")
        check_thread_safety(clangxx)
    elif args.require_clang:
        print("harness error: --require-clang set but no clang++ found")
        return 2
    else:
        print("thread-safety fixtures: SKIPPED (no clang++ on this "
              "machine; the CI static-analysis job runs them)")

    print("lint fixtures:")
    check_lint()

    if failures:
        print(f"{len(failures)} dead gate(s)")
        return 1
    print("all gates bite")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
