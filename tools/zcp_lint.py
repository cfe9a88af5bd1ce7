#!/usr/bin/env python3
"""zcp_lint: Tier 1 static conformance checks for the Zero-Coordination
Principle — the fast, intra-function pre-commit pass.

SCOPE: this linter inspects each marked function body IN ISOLATION. It does
not build a call graph, so a blocking lock (or allocation, or cross-partition
access) hidden even one call deep is invisible to it. The interprocedural
closure — plus lock-order cycle detection and the atomic-order inventory —
is Tier 2: tools/zcp_analyzer.py. Run this tier as the pre-commit/first-CI
gate (sub-second, pure stdlib); run the analyzer before merging.

The Meerkat fast path (functions marked ZCP_FAST_PATH) must stay free of
cross-core coordination. Clang's thread-safety analysis proves lock discipline
(see docs/STATIC_ANALYSIS.md); this linter enforces the ZCP-specific rules
that no general-purpose analysis knows about:

  ZCP001  fast-path function acquires a blocking mutex (Mutex, RecursiveMutex,
          SharedMutex, std::mutex, MutexLock, ...). Per-key spinlocks
          (KeyLock) are the ONE sanctioned lock on the fast path: they guard
          single-key critical sections of a few instructions and preserve DAP.
  ZCP002  fast-path function calls an allocating API (new, malloc,
          make_unique, make_shared). Allocation takes a process-wide heap
          lock on common allocators — a hidden cross-core serialization
          point. (Container operations that may allocate are out of scope:
          flat vectors on the fast path reuse capacity in steady state.)
  ZCP003  fast-path function touches another partition's trecord
          (Partition(expr) where expr is not the handler's `core`
          parameter), or calls a cross-partition helper (SnapshotAll,
          ReplaceAll, TrimFinalizedAll, ClearPendingAll, ClearAll,
          ForEachCommitted). Cross-partition access breaks DAP.
  ZCP004  std::atomic operation without an explicit std::memory_order
          argument. Implicit seq_cst both hides the author's intent and
          costs a full fence on weakly-ordered hardware; DESIGN.md §8
          requires every ordering to be spelled and justified.
  ZCP005  new writable global / static variable outside the allowlist.
          Writable process-globals are cross-core shared state by
          construction. Allowlisted: const/constexpr/constinit-immutable
          data, thread_local slabs, and sites carrying an inline
          `// zcp-lint: allow(ZCP005)` comment with a rationale nearby.

Findings are compared against a committed baseline (tools/
zcp_lint_baseline.json, schema shared with Tier 2 via tools/zcp_baseline.py);
new findings fail the build, fixed findings are reported so the baseline can
shrink. `--update-baseline` rewrites it; `--self-test` runs the linter over
tools/zcp_lint_fixtures/ and asserts each planted violation is caught and
the clean fixture stays clean.

A ZCP_FAST_PATH marker on a *declaration* (class body or header prototype)
promotes every definition of that name in the scanned set, so marking the
prototype no longer silently skips the body scan.

Coverage guard: the files in EXPECTED_FAST_PATH_FILES must keep at least
their recorded number of ZCP_FAST_PATH-marked definitions. The rules above
only bind where the marker is present, so deleting a marker would silently
drop e.g. the ZCP002 zero-allocation guard from the UDP wire path; the
guard turns that into a lint failure instead.

Suppression: append `// zcp-lint: allow(ZCPxxx)` to a line to waive one rule
there (use sparingly; say why in a nearby comment).

Pure stdlib Python; no clang bindings required.
"""

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import zcp_baseline  # noqa: E402  (shared Tier 1 / Tier 2 baseline schema)

RULES = {
    "ZCP001": "fast-path function acquires a blocking mutex",
    "ZCP002": "fast-path function calls an allocating API",
    "ZCP003": "fast-path function performs cross-partition access",
    "ZCP004": "atomic operation without explicit std::memory_order",
    "ZCP005": "writable global/static outside the allowlist",
}

# Lock types/guards whose appearance inside a fast-path body is a ZCP001.
BLOCKING_LOCK_RE = re.compile(
    r"\b(?:MutexLock|RecursiveMutexLock|std::lock_guard|std::unique_lock|"
    r"std::scoped_lock|std::shared_lock)\b"
    r"|\bLockGuard<\s*(?!KeyLock\b)\w+\s*>"
    r"|\b(?:mu_|mutex_|timer_mu_|endpoints_mu_|backups_mu_|ec_mu_|record_mutex_)\.lock\(\)"
)

ALLOC_RE = re.compile(
    r"(?<![\w.])new\b(?!\s*\()"          # new T (placement new `new (p) T` allowed)
    r"|(?<![\w.])(?:std::)?(?:malloc|calloc|realloc)\s*\("
    r"|\bstd::make_unique\b|\bstd::make_shared\b"
    r"|(?<!std::)(?<![\w.])make_unique\s*<|(?<!std::)(?<![\w.])make_shared\s*<"
)

# Cross-partition helpers a fast-path body must not call.
CROSS_PARTITION_CALLS_RE = re.compile(
    r"\b(?:SnapshotAll|ReplaceAll|TrimFinalizedAll|ClearPendingAll|ClearAll|"
    r"ForEachCommitted)\s*\("
)
PARTITION_CALL_RE = re.compile(r"\bPartition\s*\(\s*([^()]*?)\s*\)")

# Atomic member operations that default to seq_cst when no order is passed.
ATOMIC_OP_RE = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|test_and_set|test|clear|wait|notify_one|notify_all|"
    r"compare_exchange_weak|compare_exchange_strong)\s*\("
)
ATOMIC_CONTEXT_RE = re.compile(
    r"(pub_seq|pub_len|pub_wts_time|pub_wts_client|pub_words|approx_size_|"
    r"closed_flag_|flag_|value_|down_mask_|recovering_|owner_|g_mode|"
    r"g_violations|g_next_token|table|slots?\b|\batomic\b|_atomic)",
    re.IGNORECASE,
)

GLOBAL_DECL_RE = re.compile(
    r"^\s*(?:static\s+)?"
    r"(?!.*\b(?:const|constexpr|constinit|thread_local|typedef|using|return|"
    r"class|struct|enum|namespace|template|if|for|while|switch|case|extern)\b)"
    r"(?:std::)?(?:atomic<[^>]+>|atomic_\w+|int|unsigned|long|bool|char|float|"
    r"double|size_t|uint\d+_t|int\d+_t|string|vector<[^>]*>|map<[^>]*>)\s*&?\s*"
    r"g?_?\w+\s*(?:=[^=]|\{|;)"
)

SUPPRESS_RE = re.compile(r"//\s*zcp-lint:\s*allow\((ZCP\d{3})\)")

# Files whose writable globals are sanctioned shared state (each carries an
# inline allow comment too; the list documents them in one place).
ZCP005_FILE_ALLOWLIST = {
    "src/common/stats.cc",      # counter-slab registry (snapshot-only mutex)
    "src/common/dap_check.cc",  # detector mode/violation counters
    "src/common/metrics.cc",    # metrics-slab registry (same pattern as stats.cc)
    "src/common/trace.cc",      # trace-ring registry (same pattern as stats.cc)
}

DEFAULT_SRC_GLOBS = ["src/**/*.h", "src/**/*.cc"]

# Minimum count of ZCP_FAST_PATH-marked *definitions* per file. These are the
# hot paths the repo makes zero-coordination claims about; the markers are
# what puts them under ZCP001-ZCP003, so their disappearance must fail the
# lint rather than silently shrink coverage. Raise a count when marking a new
# hot path; never lower one without a design-level justification.
EXPECTED_FAST_PATH_FILES = {
    # 6 original handlers + ShouldShed/ShedHintNanos (the overload-control
    # shedding decision runs on the validate fast path) + NoteClientMark/
    # MaybeRunGc (the watermark-GC bookkeeping on the dispatch path).
    "src/protocol/replica.cc": 10,
    "src/store/occ.cc": 4,
    "src/store/trecord.cc": 3,
    "src/store/vstore.cc": 8,
    # MsgBatch codec (EncodeBatchInto / DecodeBatch): the coalesced-frame
    # wire format of the batched delivery pipeline.
    "src/transport/serialization.cc": 2,
    # Encode/send (WireSend) + recv/decode/dispatch (DispatchRound): the
    # allocation-free wire path of the UDP transport.
    "src/transport/udp_transport.cc": 2,
}


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line structure and
    keeping `// zcp-lint:` suppression comments visible."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            comment = text[i:j]
            if "zcp-lint:" in comment:
                out.append(comment)
            else:
                out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join("\n" if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                if text[j] == "\n":  # unterminated (raw string etc.) — bail
                    break
                j += 1
            out.append(quote + " " * max(0, j - i - 2) + (quote if j <= n else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def collect_marked_declarations(text):
    """Names whose ZCP_FAST_PATH marker sits on a *declaration* (prototype
    or class-body signature ending in ';'). Historically these were silently
    skipped — the marker looked applied but no body was ever scanned; now
    every definition of the name is promoted to a fast-path body."""
    names = set()
    for m in re.finditer(r"\bZCP_FAST_PATH\b", text):
        line_start = text.rfind("\n", 0, m.start()) + 1
        if text[line_start:m.start()].lstrip().startswith("#"):
            continue
        brace = text.find("{", m.end())
        semi = text.find(";", m.end())
        if semi != -1 and (brace == -1 or semi < brace):
            d = re.search(r"([A-Za-z_]\w*)\s*\(", text[m.end():semi])
            if d:
                names.add(d.group(1))
    return names


def _body_at(text, brace):
    depth, j = 0, brace
    while j < len(text):
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            depth -= 1
            if depth == 0:
                break
        j += 1
    return text[brace:j + 1], text.count("\n", 0, brace) + 1, \
        text.count("\n", 0, j) + 1


def find_fast_path_bodies(text, marked_decls=()):
    """Yields (start_line, end_line, body, header) for every function whose
    definition is marked ZCP_FAST_PATH, plus definitions of any name in
    `marked_decls` (markers found on declarations elsewhere)."""
    bodies = []
    seen_braces = set()
    for m in re.finditer(r"\bZCP_FAST_PATH\b", text):
        line_start = text.rfind("\n", 0, m.start()) + 1
        if text[line_start:m.start()].lstrip().startswith("#"):
            continue  # the macro's own #define
        brace = text.find("{", m.end())
        semi = text.find(";", m.end())
        if brace == -1 or (semi != -1 and semi < brace):
            continue  # declaration: handled via collect_marked_declarations
        header = " ".join(text[m.end():brace].split())
        body, start_line, end_line = _body_at(text, brace)
        seen_braces.add(brace)
        bodies.append((start_line, end_line, body, header))
    for name in sorted(marked_decls):
        for m in re.finditer(r"\b(?:[A-Za-z_]\w*::)?" + re.escape(name) +
                             r"\s*\(", text):
            brace = text.find("{", m.end())
            semi = text.find(";", m.end())
            if brace == -1 or brace in seen_braces or \
                    (semi != -1 and semi < brace):
                continue  # call or declaration, not a definition
            # A definition's signature starts a statement: between the
            # previous ';'/'}'/'{' and the name there is only a return type
            # (identifiers, ::, <>, &*). Calls (`obj.Foo(`, `if (Foo(`) and
            # expressions fail this shape test.
            seg_start = max(text.rfind(";", 0, m.start()),
                            text.rfind("}", 0, m.start()),
                            text.rfind("{", 0, m.start()))
            pre = text[seg_start + 1:m.start()]
            if not re.fullmatch(r"[\w\s:<>,&*~\[\]]*", pre) or \
                    re.search(r"\b(?:if|while|for|switch|return|else|new|"
                              r"delete|case|using|typedef)\b", pre):
                continue
            intro = text[m.start():brace]
            if re.search(r"[=;]", intro):
                continue
            header = " ".join(intro.split())
            body, start_line, end_line = _body_at(text, brace)
            seen_braces.add(brace)
            bodies.append((start_line, end_line, body, header))
    return bodies


def line_suppressed(line, rule):
    m = SUPPRESS_RE.search(line)
    return m is not None and m.group(1) == rule


def core_param_names(header):
    """Parameter names a Partition() argument may legally use: the handler's
    own core/partition parameter (DAP: core i touches partition i)."""
    names = set()
    for m in re.finditer(r"\b(?:CoreId|uint32_t|size_t|int)\s+(\w*core\w*|\w*partition\w*)\b",
                         header):
        names.add(m.group(1))
    names.update({"core", "core_", "dap_index_", "partition", "partition_index"})
    return names


def check_fast_path_rules(path, text, findings, marked_decls=()):
    lines = text.split("\n")
    for start, _end, body, header in find_fast_path_bodies(text, marked_decls):
        allowed_cores = core_param_names(header)
        for off, line in enumerate(body.split("\n")):
            lineno = start + off
            raw = lines[lineno - 1] if lineno - 1 < len(lines) else line
            if BLOCKING_LOCK_RE.search(line) and not line_suppressed(raw, "ZCP001"):
                findings.append((path, lineno, "ZCP001", line.strip()))
            if ALLOC_RE.search(line) and not line_suppressed(raw, "ZCP002"):
                findings.append((path, lineno, "ZCP002", line.strip()))
            if not line_suppressed(raw, "ZCP003"):
                if CROSS_PARTITION_CALLS_RE.search(line):
                    findings.append((path, lineno, "ZCP003", line.strip()))
                for pm in PARTITION_CALL_RE.finditer(line):
                    arg = pm.group(1).strip()
                    if arg and arg not in allowed_cores and not re.fullmatch(
                            r"(?:\w+\s*%\s*)?(?:\w*core\w*|\w*partition\w*|dap_index_)",
                            arg):
                        findings.append((path, lineno, "ZCP003", line.strip()))


def check_atomic_orders(path, text, findings):
    for lineno, line in enumerate(text.split("\n"), 1):
        if line_suppressed(line, "ZCP004"):
            continue
        for m in ATOMIC_OP_RE.finditer(line):
            # Only flag receivers that look atomic: cheap heuristic that keeps
            # vector.clear()/map.load() style false positives out.
            prefix = line[:m.start() + 1]
            if not ATOMIC_CONTEXT_RE.search(prefix):
                continue
            op = m.group(1)
            if op in ("notify_one", "notify_all"):
                continue  # no order parameter exists
            if op in ("clear", "test", "wait", "test_and_set") and \
                    not re.search(r"flag", prefix, re.IGNORECASE):
                continue  # container/condvar methods share these names
            # Find the call's argument list (balance parens from the match).
            j = m.end() - 1
            depth, k = 0, j
            while k < len(line):
                if line[k] == "(":
                    depth += 1
                elif line[k] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            argtext = line[j:k + 1] if k < len(line) else line[j:]
            if "memory_order" in argtext:
                continue
            if k >= len(line) and "memory_order" in text.split("\n")[lineno:lineno + 2].__str__():
                continue  # order on a continuation line
            findings.append((path, lineno, "ZCP004", line.strip()))


def check_globals(path, text, findings):
    if path in ZCP005_FILE_ALLOWLIST:
        return
    depth = 0
    for lineno, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        # Track namespace/class depth crudely: globals live at depth where the
        # only enclosing braces are namespaces.
        opens = line.count("{")
        closes = line.count("}")
        ns_line = bool(re.match(r"\s*(?:inline\s+)?namespace\b", line))
        at_global = depth == 0 or (depth > 0 and ns_line)
        if at_global and GLOBAL_DECL_RE.match(line) and "(" not in stripped.split("=")[0]:
            if not line_suppressed(line, "ZCP005"):
                findings.append((path, lineno, "ZCP005", stripped))
        if not ns_line:
            depth += opens
        depth -= closes
        depth = max(depth, 0)


def scan_file(root, rel, marked_decls=None):
    findings = []
    text = strip_comments_and_strings((root / rel).read_text(errors="replace"))
    if marked_decls is None:
        marked_decls = collect_marked_declarations(text)
    check_fast_path_rules(rel, text, findings, marked_decls)
    check_atomic_orders(rel, text, findings)
    check_globals(rel, text, findings)
    return findings


def fingerprint(f):
    path, _lineno, rule, snippet = f
    return f"{path}:{rule}:{' '.join(snippet.split())}"


def run_scan(root, globs):
    # Pass 1: collect names whose ZCP_FAST_PATH marker sits on a
    # declaration anywhere in the scanned set (typically a header), so the
    # definition in another file is promoted too.
    rels = []
    seen = set()
    marked_decls = set()
    for pattern in globs:
        for p in sorted(root.glob(pattern)):
            rel = p.relative_to(root).as_posix()
            if rel in seen or not p.is_file():
                continue
            seen.add(rel)
            rels.append(rel)
            marked_decls |= collect_marked_declarations(
                strip_comments_and_strings(p.read_text(errors="replace")))
    findings = []
    for rel in rels:
        findings.extend(scan_file(root, rel, frozenset(marked_decls)))
    return findings


def check_fast_path_coverage(root):
    """Returns error strings for files that lost ZCP_FAST_PATH coverage."""
    errors = []
    for rel, minimum in sorted(EXPECTED_FAST_PATH_FILES.items()):
        p = root / rel
        if not p.exists():
            errors.append(f"{rel}: expected fast-path file is missing")
            continue
        text = strip_comments_and_strings(p.read_text(errors="replace"))
        count = len(find_fast_path_bodies(text))
        if count < minimum:
            errors.append(
                f"{rel}: {count} ZCP_FAST_PATH-marked definition(s), expected >= "
                f"{minimum} — hot-path code lost its zero-coordination guard")
    return errors


def self_test(root):
    fixtures = root / "tools" / "zcp_lint_fixtures"
    failures = []
    expectations = {
        "bad_fast_path_lock.cc": {"ZCP001"},
        "bad_fast_path_alloc.cc": {"ZCP002"},
        "bad_cross_partition.cc": {"ZCP003"},
        "bad_implicit_seq_cst.cc": {"ZCP004"},
        "bad_writable_global.cc": {"ZCP005"},
        "bad_decl_marker.cc": {"ZCP001"},
        "clean.cc": set(),
    }
    for name, expected in sorted(expectations.items()):
        rel = (fixtures / name).relative_to(root).as_posix()
        if not (root / rel).exists():
            failures.append(f"missing fixture {rel}")
            continue
        got = {rule for (_p, _l, rule, _s) in scan_file(root, rel)}
        missing = expected - got
        extra = got - expected
        if missing:
            failures.append(f"{name}: expected {sorted(missing)} not reported")
        if extra:
            failures.append(f"{name}: unexpected {sorted(extra)} reported")
    if failures:
        for f in failures:
            print(f"zcp_lint self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"zcp_lint self-test: {len(expectations)} fixtures OK")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="zcp_lint: Tier 1 (intra-function) ZCP conformance "
                    "checks — fast regex pass over ZCP_FAST_PATH bodies. "
                    "It cannot see coordination hidden behind a call; for "
                    "the interprocedural closure, lock-order cycles and "
                    "the atomic-order inventory run Tier 2: "
                    "tools/zcp_analyzer.py.")
    ap.add_argument("--root", type=Path, default=Path("."))
    ap.add_argument("--baseline", type=Path, default=None,
                    help="baseline JSON (relative to --root unless absolute)")
    ap.add_argument("--update-baseline", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--glob", action="append", default=None,
                    help="file globs to scan (default: src/**/*.h, src/**/*.cc)")
    args = ap.parse_args()

    root = args.root.resolve()
    if args.self_test:
        return self_test(root)

    coverage_errors = check_fast_path_coverage(root)
    for err in coverage_errors:
        print(f"zcp_lint coverage: {err}", file=sys.stderr)

    findings = run_scan(root, args.glob or DEFAULT_SRC_GLOBS)
    fps = {fingerprint(f): f for f in findings}

    baseline_path = None
    baseline = set()
    if args.baseline is not None:
        baseline_path = args.baseline if args.baseline.is_absolute() else root / args.baseline
        baseline = set(zcp_baseline.load_baseline(baseline_path))

    if args.update_baseline:
        if baseline_path is None:
            print("--update-baseline requires --baseline", file=sys.stderr)
            return 2
        zcp_baseline.save_baseline(baseline_path, sorted(fps.keys()))
        print(f"baseline updated: {len(fps)} findings -> {baseline_path}")
        return 0

    new = {fp: f for fp, f in fps.items() if fp not in baseline}
    fixed = baseline - set(fps.keys())

    for fp in sorted(new):
        path, lineno, rule, snippet = new[fp]
        print(f"{path}:{lineno}: {rule}: {RULES[rule]}\n    {snippet}", file=sys.stderr)
    if fixed:
        print(f"zcp_lint: {len(fixed)} baselined finding(s) no longer present; "
              f"run --update-baseline to shrink the baseline.")
    if new:
        print(f"zcp_lint: {len(new)} new violation(s) "
              f"({len(fps)} total, {len(baseline)} baselined)", file=sys.stderr)
        return 1
    if coverage_errors:
        print(f"zcp_lint: {len(coverage_errors)} fast-path coverage error(s)",
              file=sys.stderr)
        return 1
    print(f"zcp_lint: clean ({len(fps)} baselined finding(s), 0 new)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
