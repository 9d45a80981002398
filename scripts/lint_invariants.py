#!/usr/bin/env python3
"""Project-specific invariant linters for the HypeR serving layer.

Seven rules, each encoding a contract the type system cannot express and a
bug class this codebase has to actively defend against. The first six
read source files; `unreferenced` reads a built tree.

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

  ast-interpreter        The AST interpreter (relational/eval.h) is the
                         oracles' independent reference: only
                         relational/eval.cc, whatif/naive.cc and files under
                         baselines/ may include it. An engine path on the
                         interpreter would check the engine against itself;
                         engine code evaluates through relational/compiled.h.

  unreferenced           Every out-of-line function of the core library
                         (hyper_core) has a caller outside tests/. Run with
                         --unreferenced <build-dir> after a full build.
                         Candidates are the global text (`T`) symbols of
                         the library's objects that no other library object
                         and no example or bench object lists as undefined
                         (`nm -u`), and that their own object does not
                         reference through a relocation (an out-of-line
                         call or a vtable slot; debug and unwind sections
                         and a function's call to itself do not count).
                         Each candidate is then confirmed in the sources,
                         comments and literals blanked: a call `name(`
                         anywhere under src/ examples/ bench/ perfbench/,
                         other than the function's declarations and its own
                         body, is a use. That covers calls inlined at -O2
                         and perfbench, which the main build does not
                         compile. Calls in tests/ never count. Constructors,
                         destructors and operators are out of scope. A
                         callerless function is deleted, or its declaration
                         carries
                           // lint:allow(unreferenced): <kind> — why
                         where <kind> is one of
                           oracle      a reference implementation that
                                       tests compare against;
                           test-hook   an entry point only tests drive;
                           paper       a paper formulation with no serving
                                       caller;
                           durability  a durability path kept without a
                                       caller today.
                         An annotation over a function the rule does not
                         flag also fails, so stale annotations cannot pile
                         up. Deleting a function can strand its callees:
                         re-run until clean. Blind spots: a call written
                         without a qualifier (`x.name(`, `name(`) counts
                         for every function of that name (ToString, count,
                         sql::Lexer::Advance for net::HttpParser::Advance,
                         overloads of one name), and one annotation covers
                         every flagged function of its name; header-inline
                         functions have no out-of-line symbol and are never
                         candidates. Without nm, readelf or c++filt on the
                         host the rule exits 77 (a ctest SKIP); a missing or
                         stale object is an error, never a pass.

Usage: lint_invariants.py [paths...]   (default: src/)
       lint_invariants.py --unreferenced <build-dir>
Exit 0 when clean, 1 when any rule fired, 2 on usage errors, 77 when the
unreferenced rule's tools are missing.
"""

import bisect
import os
import re
import shutil
import subprocess
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
EVAL_INCLUDE = re.compile(r'^\s*#\s*include\s*"relational/eval\.h"')
RAW_ATOMIC = re.compile(
    r"(?:\.|->)\s*(fetch_add|fetch_sub|compare_exchange_weak|"
    r"compare_exchange_strong)\s*\(")
ALLOW = "lint:allow"

SERVING_DIRS = ("whatif", "howto", "service", "net", "relational", "prob")
HOT_DIRS = ("whatif", "howto")
PARTITION_DIRS = ("whatif", "howto", "learn", "relational", "storage")
# The AST interpreter itself and the oracles that use it as a reference.
INTERPRETER_FILES = (("relational", "eval.cc"), ("whatif", "naive.cc"))
INTERPRETER_DIRS = ("baselines",)


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

    # --- ast-interpreter ---
    if not (tuple(parts[-2:]) in INTERPRETER_FILES
            or any(d in parts for d in INTERPRETER_DIRS)):
        for i, line in enumerate(lines):
            if EVAL_INCLUDE.match(line):
                findings.append(
                    (path, i + 1, "ast-interpreter",
                     "relational/eval.h is the oracles' reference "
                     "interpreter; engine code evaluates through "
                     "relational/compiled.h"))

    # --- void-cast ---
    for i, line in enumerate(lines):
        if VOID_CAST.match(line) and not has_comment_justification(lines, i):
            findings.append(
                (path, i + 1, "void-cast",
                 "(void)-discarded call with no justification comment; say "
                 "why dropping the result is correct (same line or the two "
                 "lines above)"))


# --- unreferenced (over a built tree) ---

UNREFERENCED_KINDS = ("oracle", "test-hook", "paper", "durability")
ALLOW_UNREFERENCED = re.compile(
    r"lint:allow\(unreferenced\):\s*([\w-]*)\s*(?:—|--|-)?\s*(.*)")
NAME_CALL = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
QUALIFIER_CHAIN = re.compile(r"((?:[A-Za-z_]\w*\s*::\s*)*)$")
# What may follow the parameter list of a declaration: qualifiers,
# attribute macros (EXCLUDES(mu_)) and __attribute__((...)), a pure or
# defaulted body, then `;` or the opening brace of a definition.
DECL_TAIL = re.compile(
    r"(?:\s|\bconst\b|\bnoexcept\b|\boverride\b|\bfinal\b|&|"
    r"\b[A-Z][A-Z_]*\b(?:\([^()]*\))?|"
    r"\b__attribute__\s*\(\((?:[^()]|\([^()]*\))*\)\))*"
    r"(?:=\s*(?:0|default|delete)\s*)?([;{])")
CALLER_DIRS = ("src", "examples", "bench", "perfbench")
SKIP = 77


def run_tool(args, stdin=None):
    return subprocess.run(args, input=stdin, capture_output=True, text=True,
                          check=True).stdout


def function_symbols(objects):
    """{object: [(name, class, section, start, end)]} of every function the
    object defines (`nm -f sysv`); class `T` is a global text symbol."""
    out = {obj: [] for obj in objects}
    for line in run_tool(["nm", "-A", "-f", "sysv", "--defined-only",
                          *objects]).splitlines():
        path, _, rest = line.partition(":")
        fields = [f.strip() for f in rest.split("|")]
        if path not in out or len(fields) < 7 or fields[3] != "FUNC":
            continue
        start = int(fields[1], 16)
        out[path].append((fields[0], fields[2], fields[6], start,
                          start + int(fields[4] or "0", 16)))
    return out


def undefined_symbols(objects):
    """Every symbol some object in `objects` lists as undefined."""
    names = set()
    for line in run_tool(["nm", "-A", "-P", "-u", *objects]).splitlines():
        fields = line.partition(": ")[2].split()
        if fields:
            names.add(fields[0])
    return names


def relocated_symbols(objects, functions):
    """{object: symbols its code or data references through a relocation}.
    Debug and unwind sections do not count: they describe a function, they
    do not call it. Nor does a function's call to itself, from its body or
    from a clone of it (`name.cold`, `name.part.0`)."""
    spans = {}  # (object, section) -> sorted [(start, end, function)]
    for obj, funcs in functions.items():
        for name, _cls, section, start, end in funcs:
            spans.setdefault((obj, section), []).append((start, end, name))
    for span in spans.values():
        span.sort()

    def enclosing(obj, section, offset):
        span = spans.get((obj, section), [])
        k = bisect.bisect_right(span, (offset, float("inf"))) - 1
        if k >= 0 and span[k][0] <= offset < span[k][1]:
            return span[k][2].split(".")[0]
        return None

    out = {obj: set() for obj in objects}
    current = objects[0] if len(objects) == 1 else None
    section = None
    for line in run_tool(["readelf", "-rW", *objects]).splitlines():
        if line.startswith("File: "):
            current = line[len("File: "):].strip()
        elif line.startswith("Relocation section '"):
            name = line.split("'")[1]
            section = (None if name.startswith((".rela.debug", ".rel.debug",
                                                 ".rela.eh_frame"))
                       else name[len(".rela"):])
        elif section is not None and current is not None:
            fields = line.split()
            if len(fields) >= 5 and re.fullmatch(r"[0-9a-f]+", fields[0]):
                symbol = fields[4]
                if enclosing(current, section, int(fields[0], 16)) != symbol:
                    out[current].add(symbol)
    return out


def split_function_name(demangled):
    """(qualifiers, name) of a demangled function, or None when it is out
    of the rule's scope: constructors, destructors, operators, thunks and
    local functions."""
    if (demangled.startswith(("non-virtual thunk", "virtual thunk",
                              "covariant return thunk"))
            or "(anonymous namespace)" in demangled or "{lambda" in demangled
            or re.search(r"(?:^|::)operator\W", demangled)):
        return None
    depth = 0
    for i, ch in enumerate(demangled):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            break
    else:
        return None
    qualified = re.sub(r"\[abi:\w+\]", "", demangled[:i])
    while "<" in qualified:
        stripped = re.sub(r"<[^<>]*>", "", qualified)
        if stripped == qualified:
            return None
        qualified = stripped
    parts = qualified.split("::")
    name = parts[-1]
    if name.startswith("~") or (len(parts) > 1 and parts[-2] == name):
        return None
    return parts[:-1], name


def classify_site(code, start, open_paren):
    """(kind, qualifiers, body) of the `name(` at `start`: kind is "call",
    "decl" or "def", qualifiers the `a::b::` chain written before the name,
    and body the (open, close) braces of a definition. A declaration names
    a type right before the (qualified) name — a word, or `>`, `*` or `&`
    attached to one — and its parameter list ends in `;` or a body."""
    chain = QUALIFIER_CHAIN.search(code, max(0, start - 300), start)
    qualifiers = [q.strip() for q in chain.group(1).split("::") if q.strip()]
    call = ("call", qualifiers, None)
    before = code[max(0, chain.start(1) - 200):chain.start(1)].rstrip()
    if not before or before.endswith((".", "->", "&&")):
        return call
    ptr = re.search(r"(\S?)([*&>]+)$", before)
    if ptr:
        if not ptr.group(1) or ptr.group(1).isspace():
            return call  # a binary operator, not a type
        if ptr.group(2)[0] in "*&":
            before = before[:ptr.start(2)]
    word = re.search(r"(\w+)$", before)
    if not (ptr and ptr.group(2).endswith(">")):
        if (not word or word.group(1)[0].isdigit()
                or word.group(1) in NOT_A_RETURN_TYPE):
            return call
    close = matching(code, open_paren, "(", ")")
    tail = DECL_TAIL.match(code, close + 1) if close != -1 else None
    if not tail:
        return call
    if tail.group(1) == ";":
        return "decl", qualifiers, None
    body_open = tail.end() - 1
    return "def", qualifiers, (body_open,
                               matching(code, body_open, "{", "}"))


def source_sites(dirs):
    """{name: [(path, line, offset, kind, qualifiers, body)]} for every
    `name(` in the C++ sources under `dirs`, comments and literals blanked
    (see classify_site)."""
    sites = {}
    for path in collect_files(dirs):
        with open(path, encoding="utf-8", errors="replace") as f:
            code = blank_comments_and_literals(f.read())
        for m in NAME_CALL.finditer(code):
            kind, qualifiers, body = classify_site(code, m.start(1),
                                                   m.end() - 1)
            line = code.count("\n", 0, m.start(1)) + 1
            sites.setdefault(m.group(1), []).append(
                (path, line, m.start(1), kind, qualifiers, body))
    return sites


def unreferenced_annotations(dirs):
    """[(path, line, name, kind, reason)] for every
    `// lint:allow(unreferenced): <kind> — why`. The annotation covers the
    function named by the first `name(` after it: on its own line when code
    precedes the comment, else on the next lines of code."""
    out = []
    for path in collect_files(dirs):
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        raw = text.split("\n")
        code = blank_comments_and_literals(text).split("\n")
        for i, line in enumerate(raw):
            if "//" not in line:
                continue
            am = ALLOW_UNREFERENCED.search(line, line.index("//"))
            if not am:
                continue
            target = NAME_CALL.search(code[i])
            k = i + 1
            while not target and k < min(len(code), i + 8):
                target = NAME_CALL.search(code[k])
                k += 1
            out.append((path, i + 1, target.group(1) if target else None,
                        am.group(1), am.group(2).strip()))
    return out


def find_unreferenced(lib_objects, caller_objects, caller_dirs,
                      annotation_dirs):
    """Findings of the `unreferenced` rule: callerless library functions
    without an annotation, annotations on functions with a caller, and
    annotations without a valid kind or a reason."""
    functions = function_symbols(lib_objects)
    referenced = undefined_symbols(lib_objects + caller_objects)
    relocated = relocated_symbols(lib_objects, functions)
    candidates = [(obj, sym) for obj in lib_objects
                  for sym, cls, _, _, _ in functions[obj]
                  if cls == "T" and sym not in referenced
                  and sym not in relocated[obj]]
    demangled = run_tool(["c++filt"],
                         "\n".join(sym for _, sym in candidates) + "\n")
    sites = source_sites(caller_dirs)

    flagged = {}  # name -> [(path:line, qualified name)]
    for (obj, _sym), pretty in zip(candidates, demangled.splitlines()):
        split = split_function_name(pretty)
        if split is None:
            continue
        scope, name = split
        # A site written with qualifiers (`Foo::name(`, `ns::name(`) names
        # this function only when they end its scope.
        mine = [(path, line, pos, kind, body)
                for path, line, pos, kind, qualifiers, body
                in sites.get(name, [])
                if qualifiers == scope[len(scope) - len(qualifiers):]]
        own_bodies = [(path, body) for path, _, _, kind, body in mine
                      if kind == "def"]
        where = next((f"{path}:{line}" for path, line, _, kind, _ in mine
                      if kind == "def"), f"{obj}:0")
        used = any(kind == "call" and not any(
            path == p and lo < pos < hi for p, (lo, hi) in own_bodies)
            for path, _, pos, kind, _ in mine)
        if not used:
            flagged.setdefault(name, []).append(
                (where, "::".join(scope + [name])))

    findings = []
    annotated = set()
    for path, line, name, kind, reason in unreferenced_annotations(
            annotation_dirs):
        if kind not in UNREFERENCED_KINDS or not reason:
            findings.append(
                (path, line, "unreferenced",
                 "annotation needs a kind and a reason: // lint:allow("
                 f"unreferenced): <{'|'.join(UNREFERENCED_KINDS)}> — why"))
        elif name not in flagged:
            findings.append(
                (path, line, "unreferenced",
                 f"stale annotation: '{name}' is not a callerless library "
                 "function (something outside tests/ calls it); drop the "
                 "annotation"))
        annotated.add(name)
    for name in flagged:
        if name in annotated:
            continue
        for where, qualified in flagged[name]:
            path, _, line = where.rpartition(":")
            findings.append(
                (path, int(line), "unreferenced",
                 f"{qualified} has no caller outside tests/; delete it, or "
                 "annotate its declaration with // lint:allow(unreferenced): "
                 f"<{'|'.join(UNREFERENCED_KINDS)}> — why"))
    return sorted(findings)


def built_objects(build_dir, root, rel_dir, target):
    """(objects, problems) for every .cc under `rel_dir`, as CMake lays
    them out: the library's objects under one target, each example or
    bench its own target named after its file (`target` None)."""
    objects, problems = [], []
    base = os.path.join(root, rel_dir)
    if target:
        sources = [os.path.relpath(p, root) for p in collect_files([base])
                   if p.endswith(".cc")]
    else:
        sources = [os.path.join(rel_dir, n) for n in sorted(os.listdir(base))
                   if n.endswith(".cc")]
    for rel in sources:
        owner = target or os.path.splitext(os.path.basename(rel))[0]
        obj = os.path.join(build_dir, "CMakeFiles", f"{owner}.dir",
                           rel + ".o")
        if not os.path.isfile(obj):
            problems.append(f"missing object {obj} (build every target)")
        elif os.path.getmtime(obj) < os.path.getmtime(
                os.path.join(root, rel)):
            problems.append(f"stale object {obj} (rebuild)")
        else:
            objects.append(obj)
    return objects, problems


def lint_unreferenced(build_dir):
    missing = [t for t in ("nm", "readelf", "c++filt") if not shutil.which(t)]
    if missing:
        print(f"lint_invariants: unreferenced SKIPPED (no {', '.join(missing)}"
              " on PATH)")
        return SKIP
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    lib, problems = built_objects(build_dir, root, "src", "hyper_core")
    callers = []
    for rel_dir in ("examples", "bench"):
        objs, more = built_objects(build_dir, root, rel_dir, None)
        callers += objs
        problems += more
    if problems or not lib:
        for problem in problems or ["no library objects"]:
            print(f"lint_invariants: unreferenced: {problem}")
        return 1
    findings = find_unreferenced(
        lib, callers, [os.path.join(root, d) for d in CALLER_DIRS],
        [os.path.join(root, "src")])
    for path, line, rule, msg in findings:
        print(f"{os.path.relpath(path, root)}:{line}: [{rule}] {msg}")
    if findings:
        print(f"lint_invariants: {len(findings)} unreferenced finding(s) over "
              f"{len(lib)} library object(s)")
        return 1
    print(f"lint_invariants: unreferenced clean ({len(lib)} library and "
          f"{len(callers)} example/bench object(s))")
    return 0


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
    if len(argv) > 1 and argv[1] == "--unreferenced":
        if len(argv) != 3 or not os.path.isdir(argv[2]):
            print("usage: lint_invariants.py --unreferenced <build-dir>",
                  file=sys.stderr)
            return 2
        return lint_unreferenced(argv[2])
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
