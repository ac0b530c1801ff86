#!/usr/bin/env python3
"""XSACT project lint: concurrency-discipline checks the compiler can't do.

Four checks, each cheap enough to run on every commit (pure stdlib, no
third-party deps, no compiler needed):

  raw-mutex       No raw std::mutex / std::lock_guard / std::unique_lock /
                  std::condition_variable / std::once_flag outside
                  src/common/mutex.h. All locking goes through the
                  annotated xsact::Mutex so the clang -Wthread-safety CI
                  gate sees every acquisition (a raw mutex is invisible
                  to it). Waiver: // LINT:ALLOW(raw-mutex): <reason>

  blocking-call   Functions marked XSACT_EVENT_LOOP_THREAD in a header
                  must not block in their .cc definitions: no sleeps, no
                  file streams, no future waits of any kind (wait(),
                  wait_for(), wait_until()) — one stalled callback stalls
                  every connection the loop serves, and a loop that polls
                  futures is a loop that should be woken by completions.
                  Waiver (same line or up to 3 lines above):
                  // LINT:ALLOW(blocking-call): <reason>

  fault-docs      Every fault::RegisterFaultPoint("name") site in src/
                  must be documented in docs/robustness.md, and every
                  fault-point name the doc mentions must still exist in
                  the code — the chaos-testing table is the operator
                  contract and silently drifting names break soak runs.

  memory-order    Atomic operations (.load/.store/.exchange/fetch_*/
                  compare_exchange_*, std::atomic_load/atomic_store) must
                  pass an explicit std::memory_order argument. Defaulted
                  seq_cst on hot paths hides both cost and intent; the
                  codebase spells ordering out everywhere.
                  Waiver: // LINT:ALLOW(memory-order): <reason>

Exit status: 0 clean, 1 findings, 2 usage/internal error.

Usage:
  tools/lint/run_lint.py                    # lint src/ (the CI mode)
  tools/lint/run_lint.py path [path...]     # lint specific files/dirs
  tools/lint/run_lint.py --skip-fault-docs  # e.g. for fixture subsets
"""

import argparse
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

# The one file allowed to name raw standard-library primitives: it wraps
# them in the annotated capability types everything else must use.
RAW_MUTEX_ALLOWED = {"src/common/mutex.h"}

RAW_MUTEX_TOKENS = [
    "std::mutex",
    "std::timed_mutex",
    "std::recursive_mutex",
    "std::shared_mutex",
    "std::lock_guard",
    "std::unique_lock",
    "std::scoped_lock",
    "std::shared_lock",
    "std::condition_variable",
    "std::once_flag",
    "std::call_once",
]

# Tokens that block (or can block unboundedly) inside an event-loop
# function. Timed waits count too: even a zero-timeout wait_for() is the
# polling pattern — the loop learns of finished work from completions
# (engine::Completion) that wake it, never by sweeping futures.
BLOCKING_TOKENS = [
    "sleep_for",
    "sleep_until",
    "::usleep",
    "::nanosleep",
    "std::ifstream",
    "std::ofstream",
    "std::fstream",
    "fopen(",
    "::system(",
    ".wait()",
    ".wait_for(",
    ".wait_until(",
    ".join(",
]

CXX_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}

# File extensions that make a backticked `a.b` token in the docs a file
# name, not a fault-point name.
DOC_FILE_SUFFIXES = {
    "cc", "h", "hpp", "cpp", "py", "md", "xml", "json", "yml", "yaml", "txt",
}


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving newlines.

    Keeps byte offsets stable so line numbers computed on the stripped
    text match the original file.
    """
    out = list(text)
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = i
            while j < n and text[j] != "\n":
                out[j] = " "
                j += 1
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = i
            while j + 1 < n and not (text[j] == "*" and text[j + 1] == "/"):
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            if j + 1 < n:
                out[j] = " "
                out[j + 1] = " "
                j += 2
            i = j
        elif c == '"' or c == "'":
            quote = c
            out[i] = " "
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\" and j + 1 < n:
                    if text[j] != "\n":
                        out[j] = " "
                    j += 1
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            if j < n:
                out[j] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def waived(lines, lineno, tag, window=3):
    """True if a LINT:ALLOW(tag) comment covers 1-based line `lineno`."""
    needle = f"LINT:ALLOW({tag})"
    lo = max(0, lineno - 1 - window)
    return any(needle in line for line in lines[lo:lineno])


def iter_cxx_files(paths):
    for path in paths:
        if path.is_file():
            if path.suffix in CXX_SUFFIXES:
                yield path
        else:
            for child in sorted(path.rglob("*")):
                if child.is_file() and child.suffix in CXX_SUFFIXES:
                    yield child


def rel(path):
    try:
        return str(path.resolve().relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def check_raw_mutex(files, findings):
    for path in files:
        if rel(path) in RAW_MUTEX_ALLOWED:
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        stripped = strip_comments_and_strings(text)
        for token in RAW_MUTEX_TOKENS:
            for match in re.finditer(re.escape(token), stripped):
                lineno = line_of(stripped, match.start())
                if waived(lines, lineno, "raw-mutex"):
                    continue
                findings.append(
                    f"{rel(path)}:{lineno}: [raw-mutex] {token} outside "
                    "src/common/mutex.h — use xsact::Mutex/MutexLock/CondVar "
                    "(common/mutex.h) so -Wthread-safety sees the acquisition"
                )


def marked_function_names(header_text):
    """Function names declared with the XSACT_EVENT_LOOP_THREAD marker."""
    names = []
    for match in re.finditer(r"XSACT_EVENT_LOOP_THREAD\b", header_text):
        paren = header_text.find("(", match.end())
        if paren < 0:
            continue
        idents = re.findall(r"[A-Za-z_]\w*", header_text[match.end():paren])
        if idents:
            names.append(idents[-1])
    return names


def function_body_span(text, name):
    """(start, end) offsets of the body of `name`'s definition, or None.

    Matches `Qualifier::name(` or a line-initial `name(` and brace-matches
    from the first '{' after the parameter list.
    """
    pattern = re.compile(r"(?:[\w>]+::|^|\n)\s*~?" + re.escape(name) + r"\s*\(")
    for match in pattern.finditer(text):
        i = text.find("(", match.start() + 1)
        depth = 0
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        # Skip declarations: the next non-space char after the parameter
        # list (and any const/noexcept/attributes) must be '{'.
        j = i + 1
        while j < len(text) and text[j] not in "{;":
            j += 1
        if j >= len(text) or text[j] == ";":
            continue
        start = j
        depth = 0
        while j < len(text):
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
                if depth == 0:
                    return (start, j + 1)
            j += 1
    return None


def check_event_loop(files, findings):
    files = list(files)
    headers = [p for p in files if p.suffix in {".h", ".hpp"}]
    for header in headers:
        header_text = strip_comments_and_strings(
            header.read_text(encoding="utf-8"))
        names = marked_function_names(header_text)
        if not names:
            continue
        source = header.with_suffix(".cc")
        if not source.is_file():
            continue
        text = source.read_text(encoding="utf-8")
        lines = text.splitlines()
        stripped = strip_comments_and_strings(text)
        for name in names:
            span = function_body_span(stripped, name)
            if span is None:
                continue  # defined inline in the header or renamed
            body = stripped[span[0]:span[1]]
            for token in BLOCKING_TOKENS:
                for match in re.finditer(re.escape(token), body):
                    lineno = line_of(stripped, span[0] + match.start())
                    if waived(lines, lineno, "blocking-call"):
                        continue
                    findings.append(
                        f"{rel(source)}:{lineno}: [blocking-call] {token} "
                        f"inside event-loop function {name}() — marked "
                        "XSACT_EVENT_LOOP_THREAD; a blocked callback stalls "
                        "every connection this loop serves"
                    )


def check_fault_docs(findings):
    doc = REPO_ROOT / "docs" / "robustness.md"
    if not doc.is_file():
        findings.append("docs/robustness.md: [fault-docs] file missing")
        return
    registered = {}
    for path in iter_cxx_files([REPO_ROOT / "src"]):
        text = path.read_text(encoding="utf-8")
        for match in re.finditer(
                r"RegisterFaultPoint\(\s*\"([^\"]+)\"", text):
            if rel(path).startswith("src/common/faultpoint"):
                continue  # the registry itself (doc comments, not sites)
            registered.setdefault(match.group(1), []).append(
                f"{rel(path)}:{line_of(text, match.start())}")
    doc_text = doc.read_text(encoding="utf-8")
    documented = set()
    for match in re.finditer(r"`([a-z_]+\.[a-z_]+)`", doc_text):
        name = match.group(1)
        if name.rsplit(".", 1)[1] in DOC_FILE_SUFFIXES:
            continue  # a file name, not a fault-point name
        documented.add(name)
    for name, sites in sorted(registered.items()):
        if name not in documented:
            findings.append(
                f"{sites[0]}: [fault-docs] fault point \"{name}\" is "
                "registered but not documented in docs/robustness.md — "
                "add it to the fault-point table"
            )
    for name in sorted(documented - set(registered)):
        findings.append(
            f"docs/robustness.md: [fault-docs] fault point \"{name}\" is "
            "documented but no RegisterFaultPoint site in src/ registers "
            "it — stale name breaks chaos soak configs"
        )


ATOMIC_OP = re.compile(
    r"(?:\.\s*(?:load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)"
    r"|std::atomic_(?:load|store))\s*\(")


def check_memory_order(files, findings):
    for path in files:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        stripped = strip_comments_and_strings(text)
        for match in ATOMIC_OP.finditer(stripped):
            i = stripped.find("(", match.start())
            depth = 0
            j = i
            while j < len(stripped):
                if stripped[j] == "(":
                    depth += 1
                elif stripped[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            argtext = stripped[i:j + 1]
            if "memory_order" in argtext:
                continue
            lineno = line_of(stripped, match.start())
            if waived(lines, lineno, "memory-order"):
                continue
            op = match.group(0).strip().rstrip("(").strip()
            findings.append(
                f"{rel(path)}:{lineno}: [memory-order] {op} without an "
                "explicit std::memory_order argument — spell the ordering "
                "out (defaulted seq_cst hides cost and intent)"
            )


def main(argv):
    parser = argparse.ArgumentParser(
        description="XSACT concurrency-discipline lint")
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: src/)")
    parser.add_argument(
        "--skip-fault-docs", action="store_true",
        help="skip the fault-point/doc cross-check (for partial file sets)")
    args = parser.parse_args(argv)

    if args.paths:
        roots = [pathlib.Path(p) for p in args.paths]
        for root in roots:
            if not root.exists():
                print(f"run_lint.py: no such path: {root}", file=sys.stderr)
                return 2
    else:
        roots = [REPO_ROOT / "src"]

    files = list(iter_cxx_files(roots))
    findings = []
    check_raw_mutex(files, findings)
    check_event_loop(files, findings)
    if not args.skip_fault_docs:
        check_fault_docs(findings)
    check_memory_order(files, findings)

    for finding in findings:
        print(finding)
    if findings:
        print(f"run_lint.py: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"run_lint.py: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
