#!/usr/bin/env python3
"""Unit tests for scripts/lint_invariants.py.

Runs the linter over pass/fail fixtures (tests/lint/) and asserts that every
fail fixture fires exactly its rule and every pass fixture is clean. Then
compiles the `unreferenced` fixtures (tests/lint/unreferenced/) with the
system compiler into a temp dir and checks that rule against them. Finally
asserts the real src/ tree is clean — the same gate scripts/check.sh runs.

Usage: lint_invariants_test.py <repo_root>
"""

import os
import shutil
import subprocess
import sys
import tempfile


def run_linter(repo, *paths):
    return subprocess.run(
        [sys.executable, os.path.join(repo, "scripts", "lint_invariants.py"),
         *paths],
        capture_output=True, text=True, cwd=repo)


def check_unreferenced(repo, failures):
    """The `unreferenced` rule over a library object defining Used and
    Unused and a caller object calling Used: it flags Unused alone, passes
    once Unused is annotated, and fails on an annotation over Used."""
    sys.dont_write_bytecode = True  # no __pycache__ in the source tree
    sys.path.insert(0, os.path.join(repo, "scripts"))
    import lint_invariants  # noqa: E402

    cxx = os.environ.get("CXX") or shutil.which("c++")
    tools = ("nm", "readelf", "c++filt")
    if not cxx or not all(shutil.which(t) for t in tools):
        print("skip: unreferenced cases (no c++, nm, readelf or c++filt)")
        return
    fixtures = os.path.join(repo, "tests", "lint", "unreferenced")
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(fixtures, src)
        objects = {}
        for name in ("lib", "caller"):
            objects[name] = os.path.join(tmp, name + ".o")
            # -O0 keeps Unused's call to itself a relocation in lib.o.
            subprocess.run([cxx, "-std=c++17", "-O0", "-c",
                            os.path.join(src, name + ".cc"), "-o",
                            objects[name]], check=True)
        header = os.path.join(src, "lib.h")
        with open(header, encoding="utf-8") as f:
            original = f.read()

        def run(annotate):
            text = original
            for name in annotate:
                text = text.replace(
                    f"int {name}(int x);",
                    "// lint:allow(unreferenced): test-hook — fixture\n"
                    f"int {name}(int x);")
            with open(header, "w", encoding="utf-8") as f:
                f.write(text)
            return [msg for _, _, _, msg in lint_invariants.find_unreferenced(
                [objects["lib"]], [objects["caller"]], [src], [src])]

        cases = [
            ((), lambda m: len(m) == 1 and m[0].startswith("fixture::Unused ")
             and "no caller outside tests" in m[0],
             "flag Unused alone"),
            (("Unused",), lambda m: m == [], "pass once Unused is annotated"),
            (("Unused", "Used"),
             lambda m: len(m) == 1 and "stale annotation: 'Used'" in m[0],
             "fail on an annotation over Used"),
        ]
        for annotate, ok, what in cases:
            messages = run(annotate)
            if ok(messages):
                print(f"ok: unreferenced: {what}")
            else:
                failures.append(f"unreferenced: expected to {what}; got "
                                f"{messages}")


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
        ("whatif/fail_ast_interpreter.cc", "ast-interpreter"),
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
                "pass_void_cast.cc", "whatif/pass_ast_interpreter.cc",
                "whatif/naive.cc"):
        r = run_linter(repo, os.path.join(fixtures, rel))
        if r.returncode != 0:
            failures.append(f"{rel}: expected clean, got exit "
                            f"{r.returncode}:\n{r.stdout}{r.stderr}")
        else:
            print(f"ok: {rel} clean")

    check_unreferenced(repo, failures)

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
