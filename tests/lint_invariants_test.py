#!/usr/bin/env python3
"""Unit tests for scripts/lint_invariants.py.

Runs the linter over pass/fail fixtures (tests/lint/) and asserts that every
fail fixture fires exactly its rule and every pass fixture is clean. Finally
asserts the real src/ tree is clean — the same gate scripts/check.sh runs.

Usage: lint_invariants_test.py <repo_root>
"""

import os
import subprocess
import sys


def run_linter(repo, *paths):
    return subprocess.run(
        [sys.executable, os.path.join(repo, "scripts", "lint_invariants.py"),
         *paths],
        capture_output=True, text=True, cwd=repo)


def main():
    repo = sys.argv[1] if len(sys.argv) > 1 else "."
    fixtures = os.path.join(repo, "tests", "lint")
    cases = [
        ("fail_cache_key.h", "cache-key-governance"),
        ("fail_key_function.cc", "cache-key-governance"),
        ("service/fail_unordered_iter.cc", "unordered-iter"),
        ("whatif/fail_steady_clock.cc", "steady-clock"),
        ("whatif/fail_raw_atomic.cc", "raw-atomic-partition"),
        ("fail_void_cast.cc", "void-cast"),
    ]
    failures = []

    for rel, rule in cases:
        r = run_linter(repo, os.path.join(fixtures, rel))
        if r.returncode != 1:
            failures.append(f"{rel}: expected exit 1, got {r.returncode}\n"
                            f"{r.stdout}{r.stderr}")
        elif f"[{rule}]" not in r.stdout:
            failures.append(f"{rel}: expected rule [{rule}] to fire, got:\n"
                            f"{r.stdout}")
        else:
            print(f"ok: {rel} fires [{rule}]")

    for rel in ("pass_cache_key.h", "pass_key_function.cc",
                "service/pass_unordered_iter.cc",
                "whatif/pass_steady_clock.cc", "whatif/pass_raw_atomic.cc",
                "pass_void_cast.cc"):
        r = run_linter(repo, os.path.join(fixtures, rel))
        if r.returncode != 0:
            failures.append(f"{rel}: expected clean, got exit "
                            f"{r.returncode}:\n{r.stdout}{r.stderr}")
        else:
            print(f"ok: {rel} clean")

    r = run_linter(repo, os.path.join(repo, "src"))
    if r.returncode != 0:
        failures.append(f"src/ must be lint-clean:\n{r.stdout}{r.stderr}")
    else:
        print("ok: src/ clean")

    if failures:
        print("\n".join(["FAIL:"] + failures))
        return 1
    print("lint_invariants_test: all cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
