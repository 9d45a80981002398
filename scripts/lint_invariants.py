#!/usr/bin/env python3
"""Project-specific invariant linters for the HypeR serving layer.

Five rules, each encoding a contract the type system cannot express and a
bug class this codebase has to actively defend against:

  cache-key-governance   Cache keys must not carry governance state. The
                         rule scans every struct/class whose name ends in
                         `Key` and every function whose name ends in `Key`
                         (its parameters and body — the stage-cache keys
                         are strings built in such functions), comments and
                         string literals excluded, for governance types
                         (QueryBudget, CancelToken, ExecGuard, deadlines)
                         and the governance option fields (budget,
                         cancel_token, exec_guard). Keys are shared across
                         requests; a budget in the key either fragments the
                         cache (per-request keys never hit) or leaks one
                         request's governance into another's plan.

  unordered-iter         Serving-path code (whatif/ howto/ service/ net/
                         relational/ prob/) must not range-iterate a
                         same-file std::unordered_map/set: iteration order
                         is hash-seed dependent, and anything it feeds into
                         a merged or served result breaks the bit-identical
                         determinism contract. Sites that are provably
                         order-independent annotate the loop line (or the
                         line above) with:  // lint:allow(unordered-iter): why

  steady-clock           Hot evaluation loops (whatif/ howto/) must not call
                         steady_clock::now() directly — per-row clock reads
                         are the regression governance::LoopCheck exists to
                         prevent (it amortizes the clock over N iterations).
                         Annotate deliberate sites with
                         // lint:allow(steady-clock): why

  raw-atomic-partition   Partitioned-evaluation code (whatif/ howto/ learn/
                         relational/ storage/) must not accumulate results
                         through raw atomic read-modify-writes (.fetch_add /
                         .fetch_sub / .compare_exchange_*). Cross-thread RMW
                         folds are order-nondeterministic (fatal for the
                         bit-identical merge contract when doubles are
                         involved) and serialize on the contended cache
                         line; partial results belong in per-block or
                         per-index slots merged in order. The morsel cursor
                         in common/thread_pool.h is the sanctioned home for
                         scheduling atomics. Annotate deliberate sites
                         (e.g. monotonic counters never folded into served
                         values) with
                         // lint:allow(raw-atomic-partition): why

  void-cast              `(void)Foo(...)` silences [[nodiscard]] (see
                         common/status.h). A bare cast with no explanation
                         is an error swallowed without an argument; require
                         a comment on the same line or within the two lines
                         above saying why dropping the result is correct.

Usage: lint_invariants.py [paths...]   (default: src/)
Exit 0 when clean, 1 when any rule fired, 2 on usage errors.
"""

import os
import re
import sys

GOVERNANCE = re.compile(
    r"\b(QueryBudget|CancelToken|ExecGuard|Deadline|time_point|"
    r"budget|cancel_token|exec_guard)\b")
KEY_STRUCT = re.compile(r"\b(?:struct|class)\s+(\w*Key)\b[^;{()]*\{")
KEY_NAME = re.compile(r"\b(\w*Key)\s*\(")
# Comments and string/char literals, blanked (newlines kept) before the
# cache-key scan so prose and messages never trip it.
COMMENT_OR_LITERAL = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'",
    re.S)
NOT_A_RETURN_TYPE = {"return", "else", "case", "throw", "new", "delete",
                     "sizeof", "co_return", "co_yield"}
UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set)<[^;\n]*>\s+(\w+)\s*(?:;|=|\{|\bGUARDED_BY)")
UNORDERED_DECL_CONT = re.compile(r"^\s*(\w+)\s*(?:;|=|\{|\bGUARDED_BY)")
RANGE_FOR = re.compile(r"for\s*\([^;)]*?:\s*(\w+)\s*\)")
STEADY_CLOCK = re.compile(r"steady_clock::now\s*\(")
VOID_CAST = re.compile(r"^\s*\(void\)\s*[\w.\->:]+\s*\(")
RAW_ATOMIC = re.compile(
    r"(?:\.|->)\s*(fetch_add|fetch_sub|compare_exchange_weak|"
    r"compare_exchange_strong)\s*\(")
ALLOW = "lint:allow"

SERVING_DIRS = ("whatif", "howto", "service", "net", "relational", "prob")
HOT_DIRS = ("whatif", "howto")
PARTITION_DIRS = ("whatif", "howto", "learn", "relational", "storage")


def has_comment_justification(lines, idx):
    """True when lines[idx] or the two lines above carry a comment."""
    if "//" in lines[idx]:
        return True
    for back in (1, 2):
        if idx - back >= 0 and lines[idx - back].lstrip().startswith("//"):
            return True
    return False


def blank_comments_and_literals(text):
    """`text` with comments and literals replaced by spaces, same offsets."""
    return COMMENT_OR_LITERAL.sub(
        lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)


def matching(code, open_idx, open_ch, close_ch):
    """Index of the bracket closing the one at `open_idx`, or -1."""
    depth = 0
    for k in range(open_idx, len(code)):
        if code[k] == open_ch:
            depth += 1
        elif code[k] == close_ch:
            depth -= 1
            if depth == 0:
                return k
    return -1


def key_scopes(code):
    """Yields (name, start, end) spans of `code` (comments and literals
    blanked) that build or hold a cache key: the body of every struct/class
    named *Key, and the parameters + body of every function named *Key.
    Calls and declarations of such functions are not scopes."""
    for m in KEY_STRUCT.finditer(code):
        end = matching(code, m.end() - 1, "{", "}")
        if end != -1:
            yield m.group(1), m.end(), end
    for m in KEY_NAME.finditer(code):
        # A definition names its return type (or its class, `T::`) right
        # before the function name; a call follows an operator, a bracket,
        # a comma or a keyword such as `return`.
        before = code[max(0, m.start() - 200):m.start()].rstrip()
        if not before or not re.search(r"[\w&*>:]$", before):
            continue
        last_word = re.search(r"(\w*)$", before).group(1)
        if last_word in NOT_A_RETURN_TYPE:
            continue
        close = matching(code, m.end() - 1, "(", ")")
        if close == -1:
            continue
        tail = re.match(r"(?:\s|\bconst\b|\bnoexcept\b|\boverride\b|"
                        r"\bfinal\b)*\{", code[close + 1:])
        if not tail:
            continue  # a declaration or a call
        body_open = close + tail.end() - 1
        end = matching(code, body_open, "{", "}")
        if end != -1:
            yield m.group(1), m.start(), end


def lint_file(path, findings):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        findings.append((path, 0, "io", str(e)))
        return
    lines = text.split("\n")
    parts = os.path.normpath(path).split(os.sep)
    in_serving = any(d in parts for d in SERVING_DIRS)
    in_hot = any(d in parts for d in HOT_DIRS)

    # --- cache-key-governance ---
    code = blank_comments_and_literals(text)
    flagged = set()
    for name, start, end in key_scopes(code):
        for gm in GOVERNANCE.finditer(code, start, end):
            line = code.count("\n", 0, gm.start())
            if line in flagged or ALLOW in lines[line]:
                continue
            flagged.add(line)
            findings.append(
                (path, line + 1, "cache-key-governance",
                 f"cache key {name} reads governance state "
                 f"({gm.group(1)}); keys must be request-independent"))

    # --- unordered-iter (serving dirs only) ---
    if in_serving:
        unordered_names = set()
        for i, line in enumerate(lines):
            dm = UNORDERED_DECL.search(line)
            if dm:
                unordered_names.add(dm.group(1))
            elif (i > 0 and "unordered_" in lines[i - 1]
                  and lines[i - 1].rstrip().endswith(">")):
                cm = UNORDERED_DECL_CONT.match(line)
                if cm:
                    unordered_names.add(cm.group(1))
        for i, line in enumerate(lines):
            fm = RANGE_FOR.search(line)
            if not fm or fm.group(1) not in unordered_names:
                continue
            window = lines[max(0, i - 1):i + 1]
            if any(ALLOW in w and "unordered-iter" in w for w in window):
                continue
            findings.append(
                (path, i + 1, "unordered-iter",
                 f"range-for over unordered container '{fm.group(1)}' on a "
                 "serving path; hash order is nondeterministic — sort "
                 "before merging/serving, or annotate "
                 "// lint:allow(unordered-iter): <why order cannot matter>"))

    # --- steady-clock (hot dirs only) ---
    if in_hot:
        for i, line in enumerate(lines):
            if STEADY_CLOCK.search(line) and not (
                    ALLOW in line and "steady-clock" in line):
                findings.append(
                    (path, i + 1, "steady-clock",
                     "naked steady_clock::now() in an evaluation hot path; "
                     "use governance::LoopCheck (amortized) or annotate "
                     "// lint:allow(steady-clock): <why>"))

    # --- raw-atomic-partition (partition-evaluation dirs only) ---
    if any(d in parts for d in PARTITION_DIRS):
        for i, line in enumerate(lines):
            am = RAW_ATOMIC.search(line)
            if not am:
                continue
            window = lines[max(0, i - 1):i + 1]
            if any(ALLOW in w and "raw-atomic-partition" in w
                   for w in window):
                continue
            findings.append(
                (path, i + 1, "raw-atomic-partition",
                 f"raw atomic RMW ({am.group(1)}) in partitioned-evaluation "
                 "code; fold into per-block partials merged in block order "
                 "(order-deterministic, contention-free), or annotate "
                 "// lint:allow(raw-atomic-partition): <why the fold order "
                 "cannot reach a served value>"))

    # --- void-cast ---
    for i, line in enumerate(lines):
        if VOID_CAST.match(line) and not has_comment_justification(lines, i):
            findings.append(
                (path, i + 1, "void-cast",
                 "(void)-discarded call with no justification comment; say "
                 "why dropping the result is correct (same line or the two "
                 "lines above)"))


def collect_files(paths):
    exts = (".h", ".cc", ".cpp", ".hpp")
    out = []
    for p in paths:
        if os.path.isfile(p):
            out.append(p)
        elif os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                for name in sorted(names):
                    if name.endswith(exts):
                        out.append(os.path.join(root, name))
        else:
            print(f"lint_invariants: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return out


def main(argv):
    paths = argv[1:] or ["src"]
    findings = []
    files = collect_files(paths)
    for path in files:
        lint_file(path, findings)
    for path, line, rule, msg in findings:
        print(f"{path}:{line}: [{rule}] {msg}")
    if findings:
        print(f"lint_invariants: {len(findings)} finding(s) "
              f"in {len(files)} file(s)")
        return 1
    print(f"lint_invariants: clean ({len(files)} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
