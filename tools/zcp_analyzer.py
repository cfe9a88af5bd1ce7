#!/usr/bin/env python3
"""zcp_analyzer: interprocedural semantic ZCP conformance analysis (Tier 2).

tools/zcp_lint.py (Tier 1) is a fast regex pass over the *bodies* of
functions marked ZCP_FAST_PATH — it cannot see a blocking lock hidden one
call deep. This analyzer closes that gap: it builds the interprocedural
call graph of src/, computes the transitive closure of every ZCP_FAST_PATH
root, and audits everything reachable. Zero-coordination is a whole-program
property (paper §3); this is the tool that makes it machine-checked.

Rules (fingerprints never embed line numbers, so baselines survive churn):

  ZCPA001  a blocking mutex acquisition (Mutex, RecursiveMutex, SharedMutex,
           std::mutex guards) is reachable from a fast-path root. KeyLock
           (the per-key/structural spinlock) is sanctioned, as in Tier 1.
  ZCPA002  an allocating call (new, malloc, make_unique, make_shared) is
           reachable from a fast-path root. Container ops that may allocate
           are out of scope (steady-state capacity reuse), as in Tier 1.
  ZCPA003  a cross-partition trecord access is reachable from a fast-path
           root (Partition(expr) with a non-self core, or the *All helpers).
  ZCPA004  std::atomic operation without an explicit memory order, anywhere
           in src/. Unlike Tier 1's name heuristic, receivers are resolved
           through the class member-type map, so any atomic member is
           covered no matter what it is called.
  ZCPA005  a writable (non-const, non-atomic) global is referenced from the
           fast-path closure. Atomic globals with explicit orders are the
           sanctioned pattern for process-wide flags (dap_check mode);
           non-atomic writable globals reachable from the hot path are
           cross-core shared state by construction.
  ZCPA010  lock-order cycle: the lock-order graph extracted from nested
           guard scopes (including locks acquired by callees while a guard
           is held) contains a cycle — a static deadlock.
  ZCPA020  atomic-order inventory drift: the set of atomic operations and
           their explicit orders no longer matches the committed audit
           baseline (tools/atomic_order_baseline.json). Run with
           --update-inventory after updating DESIGN.md §8.

Backends (--backend auto|libclang|ast-json|internal):

  libclang   clang.cindex over compile_commands.json (-p DIR). Preferred
             when the Python bindings and libclang are installed.
  ast-json   `clang++ -Xclang -ast-dump=json -fsyntax-only` per TU, flags
             taken from compile_commands.json. Needs only a clang binary.
  internal   pure-stdlib C++ source model: scope-aware function extraction,
             class member-type maps for receiver resolution, brace-matched
             guard scopes. The reference backend — always available, used
             by the ctest entries, and the cross-check in CI.

  `auto` picks the best available and falls back to internal (with a
  warning) if a clang backend is missing or crashes; --strict-backend makes
  such a fallback fatal (CI uses it so a broken clang setup cannot
  silently weaken the job).

Boundaries: a function marked ZCP_SLOW_PATH (src/common/annotations.h) is
an explicit fast/slow boundary — its caller provably leaves the fast path
before invoking it (the dispatch loop releases the shared gate and flushes
staged replies before maintenance handling). Closure traversal stops there;
--list-roots prints every boundary so the set stays reviewable. Calls
inside lambda bodies are treated as deferred (thread entry functions,
stored callbacks) and are not attributed to the enclosing function's locks
or call edges — the one known soundness gap, shared with the guard-scope
extraction, for immediately-invoked lambdas.

Baselines share the schema in tools/zcp_baseline.py with Tier 1; entries
should carry a per-entry "why". Suppression: append
`// zcp-analyzer: allow(ZCPAxxx) <reason>` to the offending line, or put
it in a standalone comment block directly above it. Lines already carrying
the Tier 1 spelling `// zcp-lint: allow(ZCPxxx)` are honoured for the
matching ZCPA rule so the two tiers never demand duplicate waivers.

--self-test runs the fixture corpus in tools/zcp_analyzer_fixtures/: one
known-bad TU per rule asserting the rule fires (with the full call chain),
plus a clean TU asserting silence.
"""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import zcp_baseline  # noqa: E402  (shared baseline JSON schema)

RULES = {
    "ZCPA001": "blocking mutex acquisition reachable from fast-path root",
    "ZCPA002": "allocating call reachable from fast-path root",
    "ZCPA003": "cross-partition access reachable from fast-path root",
    "ZCPA004": "atomic operation without explicit memory order",
    "ZCPA005": "writable global referenced from fast-path closure",
    "ZCPA010": "lock-order cycle (static deadlock)",
    "ZCPA020": "atomic-order inventory drift vs committed baseline",
}

# Tier 1 rule ids whose `zcp-lint: allow(...)` suppressions this tool honours
# for the matching ZCPA rule (same semantic rule, different tier).
LINT_RULE_ALIAS = {"ZCP001": "ZCPA001", "ZCP002": "ZCPA002",
                   "ZCP003": "ZCPA003", "ZCP004": "ZCPA004",
                   "ZCP005": "ZCPA005"}

DEFAULT_SRC_GLOBS = ["src/**/*.h", "src/**/*.cc"]
MAX_CHAIN_DEPTH = 32

BLOCKING_GUARD_TYPES = {"Mutex", "RecursiveMutex", "SharedMutex", "std::mutex",
                        "std::recursive_mutex", "std::shared_mutex"}
SPIN_GUARD_TYPES = {"KeyLock"}

ALLOC_RE = re.compile(
    r"(?<![\w.])new\b(?!\s*\()"
    r"|(?<![\w.])(?:std::)?(?:malloc|calloc|realloc)\s*\("
    r"|\bstd::make_unique\b|\bstd::make_shared\b"
    r"|(?<!std::)(?<![\w.])make_unique\s*<|(?<!std::)(?<![\w.])make_shared\s*<")

CROSS_PARTITION_CALLS_RE = re.compile(
    r"\b(?:SnapshotAll|ReplaceAll|TrimFinalizedAll|ClearPendingAll|ClearAll|"
    r"ForEachCommitted)\s*\(")
PARTITION_CALL_RE = re.compile(r"\bPartition\s*\(\s*([^()]*?)\s*\)")
PARTITION_SELF_ARG_RE = re.compile(
    r"(?:\w+\s*%\s*)?(?:\w*core\w*|\w*partition\w*|dap_index_)")

ATOMIC_OPS = ("load", "store", "exchange", "fetch_add", "fetch_sub",
              "fetch_and", "fetch_or", "fetch_xor", "compare_exchange_weak",
              "compare_exchange_strong", "test_and_set", "clear", "test",
              "wait", "notify_one", "notify_all")
ATOMIC_OP_RE = re.compile(
    r"([A-Za-z_][\w\[\]>.()-]*?)\s*(?:\.|->)\s*(" + "|".join(ATOMIC_OPS) +
    r")\s*\(")
FENCE_RE = re.compile(r"\b(?:std::)?atomic_thread_fence\s*\(")
ORDER_RE = re.compile(r"memory_order(?:_|::\s*)(\w+)")
NO_ORDER_PARAM_OPS = {"notify_one", "notify_all"}
# Method names shared with containers (clear), futures/condvars (wait,
# notify_*) or bitsets (test): never attributed to an atomic by name-match
# fallback alone — the receiver's type must resolve.
GENERIC_NAME_OPS = {"clear", "test", "wait", "notify_one", "notify_all"}

SUPPRESS_RE = re.compile(r"//\s*zcp-(lint|analyzer):\s*allow\((ZCPA?\d{3})\)")

CALL_RE = re.compile(r"(?<![\w.>:])((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\s*\(")
MEMBER_CALL_RE = re.compile(
    r"([A-Za-z_]\w*(?:\[[^\]]*\])?)\s*(?:\.|->)\s*([A-Za-z_]\w*)\s*\(")
NOT_CALLS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "alignas",
    "catch", "new", "delete", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "decltype", "defined", "assert", "static_assert",
    "noexcept", "throw", "operator", "typeid", "co_await", "co_return",
    "REQUIRES", "EXCLUDES", "ACQUIRE", "RELEASE", "GUARDED_BY", "CAPABILITY",
}

GUARD_DECL_RE = re.compile(
    r"\b(LockGuard|MutexLock|RecursiveMutexLock|std::lock_guard|"
    r"std::unique_lock|std::scoped_lock|std::shared_lock)\b"
    r"\s*(?:<\s*([\w:]+)\s*>)?\s+\w+\s*[({]\s*([^;{}]*?)\s*[)}]\s*;")
MANUAL_LOCK_RE = re.compile(r"([\w.>\[\]-]+?)\s*(?:\.|->)\s*lock\s*\(\s*\)")

GLOBAL_DECL_RE = re.compile(
    r"^\s*(?:static\s+)?"
    r"(?!.*\b(?:const|constexpr|constinit|thread_local|typedef|using|return|"
    r"class|struct|enum|namespace|template|if|for|while|switch|case|extern)\b)"
    r"(?P<type>(?:std::)?(?:atomic\s*<[^;=]+>|atomic_\w+|int|unsigned|long|"
    r"bool|char|float|double|size_t|uint\d+_t|int\d+_t|string|vector\s*<[^;=]*>|"
    r"map\s*<[^;=]*>))\s*&?\s*"
    r"(?P<name>\w+)\s*(?:=[^=]|\{|;|$)")

FUNC_NAME_RE = re.compile(
    r"((?:[A-Za-z_]\w*::)*(?:~?[A-Za-z_]\w*|operator\s*(?:\(\)|\[\]|[^\s(]{1,3})))\s*\($")


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line structure.
    Comments carrying `zcp-lint:`/`zcp-analyzer:` markers stay visible so
    suppressions survive the strip."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            comment = text[i:j]
            out.append(comment if "zcp-" in comment else " " * (j - i))
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
                if text[j] == "\n":
                    break
                j += 1
            out.append(quote + " " * max(0, j - i - 2) + (quote if j <= n else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


PREPROC_RE = re.compile(r"^[ \t]*#.*$", re.MULTILINE)


def blank_preprocessor(text):
    """Blanks preprocessor directives (incl. backslash continuations) so
    they cannot corrupt scope-introducer classification. Keeps ZCP_FAST_PATH
    uses visible — only lines *starting* with '#' are blanked."""
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        if lines[i].lstrip().startswith("#"):
            while lines[i].rstrip().endswith("\\") and i + 1 < len(lines):
                lines[i] = " " * len(lines[i])
                i += 1
            lines[i] = " " * len(lines[i])
        i += 1
    return "\n".join(lines)


LAMBDA_INTRO_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\)\s*)?(?:mutable\s*|noexcept\s*|"
    r"->\s*[\w:<>&*\s]+?\s*)*\{")


def blank_lambda_bodies(body):
    """Blanks the interior of lambda bodies (preserving newlines and
    offsets) so deferred work — thread entry functions, callbacks stored
    for later — is not attributed to the enclosing function's lock scopes
    or call edges. A lambda invoked immediately still runs on this thread,
    but treating it as deferred only loses findings inside the lambda, it
    never fabricates a lock-order edge that cannot happen. Documented
    limitation: calls made *inside* lambdas are invisible to the closure."""
    out = body
    while True:
        changed = False
        for m in LAMBDA_INTRO_RE.finditer(out):
            # Reject subscripts: `arr[i] {` — the capture list must not be
            # preceded by an identifier char, `)` or `]`.
            j = m.start() - 1
            while j >= 0 and out[j] in " \t\n":
                j -= 1
            if j >= 0 and (out[j].isalnum() or out[j] in "_)]"):
                continue
            open_brace = m.end() - 1
            depth = 0
            for i in range(open_brace, len(out)):
                if out[i] == "{":
                    depth += 1
                elif out[i] == "}":
                    depth -= 1
                    if depth == 0:
                        interior = out[open_brace + 1:i]
                        if interior.strip():
                            blanked = "".join(
                                c if c == "\n" else " " for c in interior)
                            out = out[:open_brace + 1] + blanked + out[i:]
                            changed = True
                        break
            if changed:
                break
        if not changed:
            return out


class Op:
    """A coordination-relevant operation inside a function body."""
    __slots__ = ("kind", "file", "line", "snippet", "detail")

    def __init__(self, kind, file, line, snippet, detail=""):
        self.kind = kind          # lock | alloc | cross_partition | global_ref
        self.file = file
        self.line = line
        self.snippet = " ".join(snippet.split())[:160]
        self.detail = detail


class Call:
    __slots__ = ("name", "receiver", "line", "pos")

    def __init__(self, name, receiver, line, pos):
        self.name = name          # bare or Class::Method qualified text
        self.receiver = receiver  # receiver expression text or None
        self.line = line
        self.pos = pos            # offset within the function body


class LockAcq:
    __slots__ = ("lock_id", "kind", "line", "pos", "scope_end")

    def __init__(self, lock_id, kind, line, pos, scope_end):
        self.lock_id = lock_id    # normalized Class::member identity
        self.kind = kind          # blocking | spin
        self.line = line
        self.pos = pos
        self.scope_end = scope_end  # offset within body where the guard dies


class AtomicSite:
    __slots__ = ("file", "line", "object", "op", "order", "implicit",
                 "suppressed", "func")

    def __init__(self, file, line, object_, op, order, implicit, suppressed,
                 func):
        self.file = file
        self.line = line
        self.object = object_     # Class::member / file-scope name / <fence>
        self.op = op
        self.order = order        # e.g. "release", "acq_rel/acquire", "n/a"
        self.implicit = implicit
        self.suppressed = suppressed
        self.func = func


class Func:
    __slots__ = ("qual", "name", "cls", "file", "line", "fast_path",
                 "slow_path", "calls", "ops", "lock_acqs", "param_types",
                 "local_types")

    def __init__(self, qual, name, cls, file, line, fast_path,
                 slow_path=False):
        self.qual = qual
        self.name = name
        self.cls = cls
        self.file = file
        self.line = line
        self.fast_path = fast_path
        self.slow_path = slow_path
        self.calls = []
        self.ops = []
        self.lock_acqs = []
        self.param_types = {}
        self.local_types = {}


class Model:
    """Backend-independent program model the analyses run on."""

    def __init__(self):
        self.funcs = []                       # all Func definitions
        self.by_qual = defaultdict(list)      # "Class::Name" and "Name" tails
        self.by_name = defaultdict(list)
        self.class_members = defaultdict(dict)   # cls -> member -> base type
        self.atomic_members = defaultdict(set)   # cls -> {member}
        self.atomic_globals = set()
        self.writable_globals = {}            # name -> (file, line, snippet)
        self.atomic_sites = []
        self.marked_decl_names = set()        # ZCP_FAST_PATH on declarations
        self.slow_decl_names = set()          # ZCP_SLOW_PATH on declarations
        self.backend = "internal"
        self.notes = []

    def add_func(self, f):
        self.funcs.append(f)
        self.by_name[f.name].append(f)
        self.by_qual[f.qual].append(f)
        if f.cls:
            self.by_qual[f.cls + "::" + f.name].append(f)

    def finalize(self):
        # A ZCP_FAST_PATH marker on a declaration promotes every definition
        # of that name to a root (the Tier 1 linter historically missed
        # this; the analyzer handles it natively).
        for f in self.funcs:
            key = (f.cls + "::" + f.name) if f.cls else f.name
            if key in self.marked_decl_names or f.name in self.marked_decl_names:
                f.fast_path = True
            if key in self.slow_decl_names or f.name in self.slow_decl_names:
                f.slow_path = True
        # A function cannot be both a root and a boundary; the root marker
        # wins (losing the boundary keeps findings, never hides them).
        for f in self.funcs:
            if f.fast_path and f.slow_path:
                self.notes.append(
                    f"{f.file}:{f.line}: {f.qual} carries both ZCP_FAST_PATH "
                    "and ZCP_SLOW_PATH; treating it as a fast-path root")
                f.slow_path = False


def line_suppressions(line):
    """Rules waived on this (stripped) source line, with lint aliases
    mapped onto their ZCPA equivalents."""
    out = set()
    for tier, rule in SUPPRESS_RE.findall(line):
        out.add(rule)
        if tier == "lint" and rule in LINT_RULE_ALIAS:
            out.add(LINT_RULE_ALIAS[rule])
    return out


# ---------------------------------------------------------------------------
# Internal backend: scope-aware pure-Python C++ source model.
# ---------------------------------------------------------------------------

MEMBER_DECL_RE = re.compile(
    r"^(?P<type>(?:[\w:]+\s*<[^;]*>|[\w:]+))\s*[&*]*\s*"
    r"(?P<name>[A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:\{[^;]*\}|=[^;]*)?$")
DECL_QUALIFIERS_RE = re.compile(
    r"\b(?:mutable|static|inline|constexpr|constinit|volatile|alignas\s*\([^)]*\)|"
    r"GUARDED_BY\s*\([^)]*\)|PT_GUARDED_BY\s*\([^)]*\)|"
    r"ACQUIRED_BEFORE\s*\([^)]*\)|ACQUIRED_AFTER\s*\([^)]*\))\s*")
LOCAL_DECL_RE = re.compile(
    r"\b([A-Z]\w*(?:::\w+)*)\s*[&*]*\s+([a-z_]\w*)\s*(?:=|\(|\{|;)")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?([\w:]+(?:\s*<[^;()]*?>)?)\s*[&*]*\s*"
    r"(\w+)\s*:")
ATOMIC_TYPE_RE = re.compile(r"^(?:std::)?atomic")
# Containers whose elements are the atomics: `arr[i].store(...)` is an op on
# the member `arr` (std::array<std::atomic<T>, N>, unique_ptr<atomic<T>[]>).
ATOMIC_ARRAY_RE = re.compile(
    r"^(?:std::)?(?:array|unique_ptr)\s*<\s*(?:std::)?atomic\b")


# Element-holding templates: `v[i].x` and `p->x` reach a member of the
# first template argument.
ELEMENT_HOLDER_RE = re.compile(
    r"^(?:std::)?(?:vector|array|deque|unique_ptr|shared_ptr)\s*<\s*([\w:]+)")


def class_of_type(t):
    m = ELEMENT_HOLDER_RE.match(t)
    if m:
        t = m.group(1)
    return t.split("<")[0].split("::")[-1]


def is_atomic_type(t):
    return bool(ATOMIC_TYPE_RE.match(t) or "atomic" in t.split("<")[0] or
                ATOMIC_ARRAY_RE.match(t))
LOCK_MEMBER_TYPES = {"Mutex", "RecursiveMutex", "SharedMutex", "KeyLock",
                     "std::mutex", "std::recursive_mutex", "std::shared_mutex"}


def classify_introducer(intro):
    """Classifies the text before a `{` at namespace/class level."""
    s = " ".join(intro.split())
    if not s:
        return ("block", "")
    if re.match(r"^(?:inline\s+)?namespace\b", s):
        m = re.match(r"^(?:inline\s+)?namespace\s+([\w:]+)?", s)
        return ("namespace", (m.group(1) or "") if m else "")
    if s.startswith('extern "C"') or s.startswith("extern"):
        return ("namespace", "")
    m = re.search(r"\b(class|struct|union)\b(?:\s+\[\[[^\]]*\]\])?"
                  r"(?:\s+(?:alignas\s*\([^)]*\)|CAPABILITY\s*\([^)]*\)|"
                  r"SCOPED_CAPABILITY|\w+\s*\([^)]*\)))*"
                  r"\s+([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^;{]*)?$", s)
    if m and "=" not in s.split(m.group(1))[0]:
        return ("class", m.group(2))
    if re.search(r"\benum\b", s):
        return ("enum", "")
    name = extract_func_name(s)
    if name is not None and "=" not in s.split(name.split("::")[-1] + "(")[0]:
        return ("func", name)
    return ("braceinit", "")


def extract_func_name(intro):
    """Finds the function name in a definition introducer: the first
    identifier followed by '(' at angle/paren depth 0; trailing qualifiers
    (const/noexcept/init-list) after the matching ')' are tolerated."""
    m = re.search(r"\boperator\b\s*(?:\(\)|\[\]|[^\s(]{1,3})\s*\(", intro)
    if m:
        return re.sub(r"\s+|\($", "", m.group(0)[:-1])
    depth = 0
    i = 0
    n = len(intro)
    while i < n:
        c = intro[i]
        if c in "<([":
            # Angle brackets only count as nesting when they look like
            # template args (heuristic: previous char is ident or '>').
            if c == "<" and (i == 0 or not (intro[i - 1].isalnum()
                                            or intro[i - 1] in "_>")):
                i += 1
                continue
            if c == "(" and depth == 0:
                m = FUNC_NAME_RE.search(intro[:i + 1])
                if m:
                    name = m.group(1)
                    # Skip macro-style all-caps annotation wrappers.
                    if name.split("::")[-1].isupper():
                        depth += 1
                        i += 1
                        continue
                    return name
            depth += 1
        elif c in ">)]":
            if c == ">" and (i == 0 or intro[i - 1] in "-="):
                i += 1
                continue
            depth = max(0, depth - 1)
        i += 1
    return None


def parse_params(intro, model):
    """Best-effort parameter name -> base type map from an introducer."""
    m = re.search(r"\(", intro)
    if not m:
        return {}
    depth = 0
    start = None
    for i, c in enumerate(intro):
        if c == "(":
            if depth == 0 and start is None:
                mname = FUNC_NAME_RE.search(intro[:i + 1])
                if mname and not mname.group(1).split("::")[-1].isupper():
                    start = i + 1
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0 and start is not None:
                params = intro[start:i]
                break
    else:
        return {}
    out = {}
    for piece in split_top_level(params, ","):
        mm = re.search(r"([\w:]+(?:<[^<>]*>)?)\s*[&*]*\s+(\w+)\s*$", piece.strip())
        if mm:
            out[mm.group(2)] = mm.group(1).split("<")[0].split("::")[-1]
    return out


def split_top_level(s, sep):
    out, depth, cur = [], 0, []
    for c in s:
        if c in "<([{":
            depth += 1
        elif c in ">)]}":
            depth -= 1
        if c == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    out.append("".join(cur))
    return out


class InternalBackend:
    """Builds a Model from stripped source text, no compiler needed."""

    def __init__(self, root, files, texts=None):
        self.root = root
        self.files = files
        self.texts = texts        # rel -> source override (self-test hook)
        self.model = Model()

    def build(self):
        texts = {}
        for rel in self.files:
            raw = self.texts[rel] if self.texts else \
                (self.root / rel).read_text(errors="replace")
            texts[rel] = blank_preprocessor(strip_comments_and_strings(raw))
        # Pass 1: scopes, classes/members, globals, marked declarations.
        pending_bodies = []
        for rel, text in texts.items():
            pending_bodies.extend(self.parse_file(rel, text))
        # Pass 2: function bodies (needs the full member map for receiver
        # type resolution).
        for func, intro, body, body_start, rel, text in pending_bodies:
            func.param_types = parse_params(intro, self.model)
            self.parse_body(func, body, body_start, rel, text)
        self.model.finalize()
        return self.model

    def parse_file(self, rel, text):
        model = self.model
        pending = []
        stack = []  # (kind, name, open_pos)
        seg_start = 0
        i, n = 0, len(text)

        def scope_classes():
            return [name for kind, name, _ in stack if kind == "class"]

        while i < n:
            c = text[i]
            if c == "{":
                in_func = any(k == "func" for k, _, _ in stack)
                if in_func:
                    stack.append(("block", "", i))
                    seg_start = i + 1
                else:
                    intro = text[seg_start:i]
                    kind, name = classify_introducer(intro)
                    if kind == "func":
                        cls = name.rsplit("::", 1)[0] if "::" in name else \
                            (scope_classes()[-1] if scope_classes() else "")
                        short = name.rsplit("::", 1)[-1]
                        qual = (cls + "::" + short) if cls else short
                        line = text.count("\n", 0, seg_start) + 1 + \
                            intro[:len(intro) - len(intro.lstrip())].count("\n")
                        f = Func(qual, short, cls, rel,
                                 text.count("\n", 0, i) + 1,
                                 "ZCP_FAST_PATH" in intro,
                                 "ZCP_SLOW_PATH" in intro)
                        model.add_func(f)
                        stack.append(("func", qual, i))
                        pending.append([f, intro, None, i, rel, text])
                        seg_start = i + 1
                    elif kind == "braceinit":
                        stack.append(("braceinit", "", i))
                        # Statement continues through the brace-init.
                    else:
                        stack.append((kind, name, i))
                        seg_start = i + 1
            elif c == "}":
                if stack:
                    kind, name, open_pos = stack.pop()
                    if kind == "func" and not any(
                            k == "func" for k, _, _ in stack):
                        for p in pending:
                            if p[3] == open_pos:
                                p[2] = text[open_pos:i + 1]
                    if kind != "braceinit":
                        seg_start = i + 1
            elif c == ";":
                if not stack or stack[-1][0] in ("namespace", "class"):
                    stmt = " ".join(text[seg_start:i].split())
                    self.handle_statement(stmt, rel,
                                          text.count("\n", 0, seg_start) + 1,
                                          scope_classes(), stack)
                if not stack or stack[-1][0] != "braceinit":
                    seg_start = i + 1
            i += 1
        return [p for p in pending if p[2] is not None]

    def handle_statement(self, stmt, rel, line, classes, stack):
        model = self.model
        stmt = re.sub(r"^(?:\s*(?:public|private|protected)\s*:)+\s*", "",
                      stmt)
        if not stmt:
            return
        for marker, names in (("ZCP_FAST_PATH", model.marked_decl_names),
                              ("ZCP_SLOW_PATH", model.slow_decl_names)):
            if marker in stmt and "(" in stmt and "#define" not in stmt:
                m = re.search(r"((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\s*\(",
                              stmt.split(marker, 1)[1])
                if m:
                    short = m.group(1).rsplit("::", 1)[-1]
                    cls = classes[-1] if classes else ""
                    names.add((cls + "::" + short) if cls else short)
        at_class = bool(stack) and stack[-1][0] == "class"
        cleaned = DECL_QUALIFIERS_RE.sub("", stmt).strip()
        if at_class and "(" not in cleaned.split("=")[0].split("{")[0]:
            m = MEMBER_DECL_RE.match(cleaned)
            if m and m.group("type") not in ("public", "private", "protected",
                                             "using", "typedef", "friend",
                                             "return"):
                cls = classes[-1]
                base = m.group("type")
                model.class_members[cls][m.group("name")] = base
                if is_atomic_type(base):
                    model.atomic_members[cls].add(m.group("name"))
        elif not at_class:
            m = GLOBAL_DECL_RE.match(stmt)
            if m:
                name = m.group("name")
                if ATOMIC_TYPE_RE.match(m.group("type").replace("std::", "")):
                    model.atomic_globals.add(name)
                else:
                    model.writable_globals[name] = (rel, line, stmt[:120])

    # -- body-level extraction ---------------------------------------------

    def parse_body(self, func, body, body_start, rel, text):
        model = self.model
        base_line = text.count("\n", 0, body_start) + 1
        lines = body.split("\n")
        # Deferred work (lambda bodies handed to std::thread, stored
        # callbacks) does not run under this function's locks and is not a
        # synchronous callee; blanking preserves offsets and line numbers.
        body = blank_lambda_bodies(body)

        # Block extents for guard scopes.
        closes = {}  # open offset -> close offset
        bstack = []
        for i, c in enumerate(body):
            if c == "{":
                bstack.append(i)
            elif c == "}" and bstack:
                closes[bstack.pop()] = i

        def enclosing_close(pos):
            # Innermost block containing pos; the whole body if none.
            inner = (0, len(body) - 1)
            for o, cl in closes.items():
                if o <= pos <= cl and (cl - o) < (inner[1] - inner[0]):
                    inner = (o, cl)
            return inner[1]

        def line_at(pos):
            return base_line + body.count("\n", 0, pos)

        def raw_line(pos):
            return lines[body.count("\n", 0, pos)]

        def sup_at(pos):
            # Same-line suppressions plus a standalone justification comment
            # on the line directly above (the readable form for multi-line
            # reasons); a trailing comment on the previous statement does
            # not leak downward.
            idx = body.count("\n", 0, pos)
            s = line_suppressions(lines[idx])
            j = idx - 1
            # Comment lines without a "zcp-" directive were blanked by the
            # string/comment stripper, so the walk must cross whitespace-only
            # lines to reach the directive at the top of a comment block.
            while j >= 0 and (not lines[j].strip()
                              or lines[j].strip().startswith("//")):
                s |= line_suppressions(lines[j])
                j -= 1
            return s

        def suppressed(pos, rule):
            return rule in sup_at(pos)

        # Local declarations (for receiver type resolution).
        for m in LOCAL_DECL_RE.finditer(body):
            t = m.group(1).split("<")[0].split("::")[-1]
            if t not in ("ZCP", "NO") and m.group(2) not in func.local_types:
                func.local_types[m.group(2)] = t
        # Range-for loop variables are locals too; without this, `for
        # (auto& table : pending_) table.clear();` leaves `table` unknown
        # and the unique-atomic-member fallback can misresolve it.
        for m in RANGE_FOR_RE.finditer(body):
            t = m.group(1).split("<")[0].split("::")[-1].strip()
            if m.group(2) not in func.local_types:
                func.local_types[m.group(2)] = t

        # Calls.
        seen_spans = []
        for m in MEMBER_CALL_RE.finditer(body):
            recv, name = m.group(1), m.group(2)
            if name in NOT_CALLS or name in ATOMIC_OPS or name == "lock" \
                    or name == "unlock":
                continue
            func.calls.append(Call(name, recv, line_at(m.start()), m.start()))
            seen_spans.append((m.start(), m.end()))
        for m in CALL_RE.finditer(body):
            name = m.group(1)
            short = name.rsplit("::", 1)[-1]
            if short in NOT_CALLS or short.isupper() or short in ATOMIC_OPS:
                continue
            if any(s <= m.start(1) < e for s, e in seen_spans):
                continue
            prev = body[m.start(1) - 1] if m.start(1) > 0 else ""
            if prev in ".>":
                continue
            func.calls.append(Call(name, None, line_at(m.start()), m.start()))

        # Ops: allocation.
        for m in ALLOC_RE.finditer(body):
            if not suppressed(m.start(), "ZCPA002"):
                func.ops.append(Op("alloc", rel, line_at(m.start()),
                                   raw_line(m.start())))
        # Ops: cross-partition.
        for m in CROSS_PARTITION_CALLS_RE.finditer(body):
            if not suppressed(m.start(), "ZCPA003"):
                func.ops.append(Op("cross_partition", rel, line_at(m.start()),
                                   raw_line(m.start())))
        allowed = set(func.param_types) | {"core", "core_", "dap_index_",
                                           "partition", "partition_index"}
        for m in PARTITION_CALL_RE.finditer(body):
            arg = m.group(1).strip()
            if arg and arg not in allowed and \
                    not PARTITION_SELF_ARG_RE.fullmatch(arg) and \
                    not suppressed(m.start(), "ZCPA003"):
                func.ops.append(Op("cross_partition", rel, line_at(m.start()),
                                   raw_line(m.start()), detail=arg))

        # Ops: global references (reads or writes of writable globals).
        for g in model.writable_globals:
            for m in re.finditer(r"\b" + re.escape(g) + r"\b", body):
                if not suppressed(m.start(), "ZCPA005"):
                    func.ops.append(Op("global_ref", rel, line_at(m.start()),
                                       raw_line(m.start()), detail=g))
                break  # one finding per function per global is enough

        # Guard scopes + blocking-lock ops.
        self.parse_guards(func, body, rel, line_at, raw_line,
                          enclosing_close, sup_at)

        # Atomic sites.
        self.parse_atomics(func, body, rel, line_at, raw_line, sup_at)

    def resolve_receiver_class(self, func, recv):
        """Receiver expression -> class name, via locals/params/members."""
        recv = re.sub(r"\[[^\]]*\]", "", recv).strip()
        parts = re.split(r"\.|->", recv)
        head = parts[0].strip().lstrip("&*")
        if head in ("this",):
            cls = func.cls
            parts = parts[1:]
        elif head in func.local_types:
            cls = func.local_types[head]
            parts = parts[1:]
        elif head in func.param_types:
            cls = func.param_types[head]
            parts = parts[1:]
        elif func.cls and head in self.model.class_members.get(func.cls, {}):
            cls = class_of_type(self.model.class_members[func.cls][head])
            parts = parts[1:]
        else:
            return None
        for p in parts:
            p = p.strip()
            if not p:
                continue
            nxt = self.model.class_members.get(cls, {}).get(p)
            if nxt is None:
                return cls if p == parts[-1] else None
            cls = class_of_type(nxt)
        return cls

    def lock_identity(self, func, expr):
        """Normalizes a lock expression to an instance-insensitive
        `Class::member` identity."""
        expr = expr.strip().lstrip("&*").replace("this->", "")
        parts = re.split(r"\.|->", expr)
        member = re.sub(r"\[[^\]]*\]", "", parts[-1]).strip()
        if len(parts) == 1:
            owner = func.cls or Path(func.file).stem
            return f"{owner}::{member}"
        recv = expr[:len(expr) - len(parts[-1])].rstrip(".->")
        owner_cls = self.resolve_receiver_class(func, recv) or "?"
        return f"{owner_cls}::{member}"

    def parse_guards(self, func, body, rel, line_at, raw_line,
                     enclosing_close, sup_at):
        model = self.model
        for m in GUARD_DECL_RE.finditer(body):
            guard, tparam, expr = m.group(1), m.group(2), m.group(3)
            if guard == "MutexLock":
                ltype = "Mutex"
            elif guard == "RecursiveMutexLock":
                ltype = "RecursiveMutex"
            elif tparam:
                ltype = tparam.split("::")[-1]
            else:
                ltype = "?"
            if guard == "std::scoped_lock":
                exprs = [e.strip() for e in split_top_level(expr, ",")]
            else:
                exprs = [split_top_level(expr, ",")[0].strip()]
            exprs = [e.split(",")[0].strip() for e in exprs if e.strip()]
            kind = "spin" if ltype in SPIN_GUARD_TYPES else "blocking"
            for e in exprs:
                # std::unique_lock(mu, std::defer_lock) etc: first arg only.
                lock_id = self.lock_identity(func, e)
                if ltype == "?" and "mu" not in e and "lock" not in e.lower():
                    kind_eff = "blocking"
                else:
                    kind_eff = kind
                func.lock_acqs.append(LockAcq(
                    lock_id, kind_eff, line_at(m.start()), m.start(),
                    enclosing_close(m.start())))
                if kind_eff == "blocking" and \
                        "ZCPA001" not in sup_at(m.start()):
                    func.ops.append(Op("lock", rel, line_at(m.start()),
                                       raw_line(m.start()), detail=lock_id))
        for m in MANUAL_LOCK_RE.finditer(body):
            expr = m.group(1)
            if re.search(r"\bmu|mutex|_mu\b", expr) is None and \
                    self.resolve_receiver_class(func, expr) not in \
                    LOCK_MEMBER_TYPES:
                continue
            lock_id = self.lock_identity(func, expr)
            unlock = re.search(re.escape(expr) +
                               r"\s*(?:\.|->)\s*unlock\s*\(", body[m.end():])
            scope_end = m.end() + unlock.start() if unlock else len(body) - 1
            func.lock_acqs.append(LockAcq(lock_id, "blocking",
                                          line_at(m.start()), m.start(),
                                          scope_end))
            if "ZCPA001" not in sup_at(m.start()):
                func.ops.append(Op("lock", rel, line_at(m.start()),
                                   raw_line(m.start()), detail=lock_id))

    def parse_atomics(self, func, body, rel, line_at, raw_line, sup_at):
        model = self.model
        for m in FENCE_RE.finditer(body):
            args = balanced_args(body, m.end() - 1)
            om = ORDER_RE.search(args or "")
            model.atomic_sites.append(AtomicSite(
                rel, line_at(m.start()), "<fence>", "fence",
                om.group(1) if om else "seq_cst?", om is None,
                "ZCPA004" in sup_at(m.start()),
                func.qual))
        for m in ATOMIC_OP_RE.finditer(body):
            op = m.group(2)
            # `e->words[i].load` operates on the member `words`.
            recv = re.sub(r"\[[^\]]*\]", "", m.group(1)).strip()
            member = re.split(r"\.|->", recv)[-1].strip()
            member = re.sub(r"\(\)", "", member).strip()
            obj = self.atomic_object(func, recv, member, op)
            if obj is None:
                continue
            if op in NO_ORDER_PARAM_OPS:
                model.atomic_sites.append(AtomicSite(
                    rel, line_at(m.start()), obj, op, "n/a", False, True,
                    func.qual))
                continue
            args = balanced_args(body, m.end() - 1)
            orders = ORDER_RE.findall(args or "")
            order = "/".join(orders) if orders else "seq_cst(implicit)"
            model.atomic_sites.append(AtomicSite(
                rel, line_at(m.start()), obj, op, order, not orders,
                "ZCPA004" in sup_at(m.start()),
                func.qual))

    def atomic_object(self, func, recv, member, op=""):
        """Returns the canonical object id if the receiver is an atomic, or
        None when it is provably/probably not (vector.clear() etc.)."""
        model = self.model
        head = re.split(r"\.|->", recv)[0].strip().lstrip("&*(")
        if member in model.atomic_globals or head in model.atomic_globals:
            return f"{Path(func.file).stem}::{member if member else head}"
        # Member of the enclosing class?
        if func.cls and member in model.atomic_members.get(func.cls, set()):
            return f"{func.cls}::{member}"
        # Receiver chain resolution: owner class of the last component.
        if len(re.split(r"\.|->", recv)) > 1:
            owner = self.resolve_receiver_class(
                func, recv[:len(recv) - len(member)].rstrip(".->"))
            if owner and member in model.atomic_members.get(owner, set()):
                return f"{owner}::{member}"
        # Local atomic variable?
        t = func.local_types.get(head, "")
        if is_atomic_type(t):
            return f"{func.qual}::{head}(local)"
        # A receiver whose type we *did* resolve (local, param, member of
        # the enclosing class) and that was not atomic above is a definitive
        # negative — `for (auto& table : pending_) table.clear();` must not
        # fall through to the name-match below. A member reached through an
        # `auto` local (`slab->counters[i]`) is not resolved by it, though.
        auto_chain = func.local_types.get(head) == "auto" and member != head
        if not auto_chain and (
                head in func.local_types or head in func.param_types or
                (func.cls and head in model.class_members.get(func.cls, {}))):
            return None
        # Method names shared with containers/condvars never qualify by
        # name match alone; only unambiguous atomic ops may use it.
        if op in GENERIC_NAME_OPS:
            return None
        # Unique atomic member name anywhere in the program: accept — the
        # receiver is a pointer/ref whose static type we failed to track.
        owners = [c for c, ms in model.atomic_members.items() if member in ms]
        if len(owners) == 1:
            return f"{owners[0]}::{member}"
        return None


def balanced_args(text, open_paren_pos):
    depth = 0
    for i in range(open_paren_pos, min(len(text), open_paren_pos + 2000)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren_pos:i + 1]
    return None


# ---------------------------------------------------------------------------
# Clang backends. Both produce the same Model; the internal backend remains
# the reference (and the fallback when no clang toolchain is installed).
# ---------------------------------------------------------------------------

def load_compile_commands(cc_dir, root):
    p = Path(cc_dir) / "compile_commands.json"
    if not p.exists():
        raise RuntimeError(f"{p} not found (configure with "
                           "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)")
    entries = []
    for e in json.loads(p.read_text()):
        f = Path(e["file"])
        if not f.is_absolute():
            f = Path(e["directory"]) / f
        try:
            rel = f.resolve().relative_to(root).as_posix()
        except ValueError:
            continue
        if not rel.startswith("src/"):
            continue
        args = e.get("arguments") or shlex.split(e.get("command", ""))
        entries.append((rel, args, e["directory"]))
    return entries


def build_model_libclang(root, cc_dir, files):
    import clang.cindex as ci  # raises ImportError when unavailable
    index = ci.Index.create()
    model = Model()
    model.backend = "libclang"
    internal = InternalBackend(root, files)
    # The internal parser still supplies member maps, globals, guard scopes
    # and atomic sites (token-exact); libclang contributes the call graph,
    # which is the part regexes get wrong. This hybrid keeps the clang
    # backend's advantage (semantic call resolution) without re-deriving
    # the token-level extractors through the C API.
    model = internal.build()
    model.backend = "libclang"
    by_usr = {}
    calls = defaultdict(list)

    def qual_of(cur):
        parts = []
        c = cur
        while c is not None and c.kind != ci.CursorKind.TRANSLATION_UNIT:
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts[:2]))

    for rel, args, _d in load_compile_commands(cc_dir, root):
        clang_args = [a for a in args[1:] if a != str(root / rel)]
        tu = index.parse(str(root / rel), args=clang_args)
        stack = [(tu.cursor, None)]
        while stack:
            cur, enclosing = stack.pop()
            k = cur.kind
            if k in (ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD,
                     ci.CursorKind.CONSTRUCTOR, ci.CursorKind.DESTRUCTOR) \
                    and cur.is_definition():
                enclosing = qual_of(cur)
            elif k == ci.CursorKind.CALL_EXPR and enclosing:
                ref = cur.referenced
                if ref is not None:
                    calls[enclosing].append(qual_of(ref))
            for ch in cur.get_children():
                stack.append((ch, enclosing))
    # Merge semantic call edges into the regex-built functions.
    for f in model.funcs:
        for callee in calls.get(f.qual, []):
            f.calls.append(Call(callee, None, f.line, 0))
    return model


def build_model_ast_json(root, cc_dir, files, clangxx="clang++"):
    """`clang++ -Xclang -ast-dump=json` per TU; augments the internal model
    with semantic call edges, like the libclang backend."""
    model = InternalBackend(root, files).build()
    model.backend = "ast-json"
    entries = load_compile_commands(cc_dir, root)
    if not entries:
        raise RuntimeError("no src/ TUs in compile_commands.json")
    for rel, args, directory in entries:
        cmd = [clangxx]
        skip = False
        for a in args[1:]:
            if skip:
                skip = False
                continue
            if a in ("-o", "-c"):
                skip = a == "-o"
                continue
            if a.endswith(rel) or a == str(root / rel):
                continue
            cmd.append(a)
        cmd += ["-fsyntax-only", "-Xclang", "-ast-dump=json", str(root / rel)]
        out = subprocess.run(cmd, cwd=directory, capture_output=True,
                             text=True, timeout=600)
        if out.returncode != 0 or not out.stdout:
            raise RuntimeError(f"ast-dump failed for {rel}: "
                               f"{out.stderr.splitlines()[:3]}")
        ast = json.loads(out.stdout)
        decls = {}   # node id -> (cls, name)
        # Iterative document-order walk: clang ASTs nest deeply enough to
        # blow Python's default recursion limit on large TUs.
        stack = [(ast, None, "")]
        while stack:
            node, enclosing, cls = stack.pop()
            kind = node.get("kind", "")
            nid = node.get("id")
            name = node.get("name", "")
            if kind == "CXXRecordDecl" and name:
                cls = name
            if kind in ("FunctionDecl", "CXXMethodDecl", "CXXConstructorDecl",
                        "CXXDestructorDecl") and name:
                decls[nid] = (cls, name)
                if node.get("inner") and any(
                        ch.get("kind") == "CompoundStmt"
                        for ch in node["inner"]):
                    enclosing = (cls + "::" + name) if cls else name
            if kind in ("DeclRefExpr", "MemberExpr") and enclosing:
                ref = node.get("referencedDecl") or {}
                rid = node.get("referencedMemberDecl") or ref.get("id")
                if rid in decls:
                    rcls, rname = decls[rid]
                    for f in model.by_qual.get(enclosing, []):
                        f.calls.append(Call(
                            (rcls + "::" + rname) if rcls else rname,
                            None, f.line, 0))
                elif ref.get("kind") in ("FunctionDecl", "CXXMethodDecl"):
                    for f in model.by_qual.get(enclosing, []):
                        f.calls.append(Call(ref.get("name", ""), None,
                                            f.line, 0))
            for ch in reversed(node.get("inner", []) or []):
                stack.append((ch, enclosing, cls))
    return model


def build_model(root, backend, cc_dir, files, strict):
    """Builds the Model with the requested backend. With --strict-backend a
    missing/broken clang backend is fatal; otherwise the tool degrades to
    the internal backend with a warning (findings still gate)."""
    errors = []
    if backend in ("auto", "libclang"):
        try:
            import clang.cindex  # noqa: F401
            return build_model_libclang(root, cc_dir, files)
        except Exception as e:  # ImportError, LibclangError, parse errors
            errors.append(f"libclang: {e.__class__.__name__}: {e}")
    if backend in ("auto", "libclang", "ast-json"):
        try:
            if cc_dir is None:
                raise RuntimeError("needs -p <build-dir> for "
                                   "compile_commands.json")
            clangxx = os.environ.get("CLANGXX", "clang++")
            subprocess.run([clangxx, "--version"], capture_output=True,
                           check=True)
            return build_model_ast_json(root, cc_dir, files, clangxx)
        except Exception as e:
            errors.append(f"ast-json: {e.__class__.__name__}: {e}")
    if backend != "internal":
        msg = "clang backend(s) unavailable: " + "; ".join(errors)
        if strict:
            raise RuntimeError(msg)
        print(f"zcp_analyzer: {msg}; using internal backend",
              file=sys.stderr)
    return InternalBackend(root, files).build()


# ---------------------------------------------------------------------------
# Analyses.
# ---------------------------------------------------------------------------

class Finding:
    __slots__ = ("rule", "file", "line", "message", "fp", "chain")

    def __init__(self, rule, file, line, message, fp, chain=()):
        self.rule = rule
        self.file = file
        self.line = line
        self.message = message
        self.fp = fp
        self.chain = chain


def resolve_call(model, func, call):
    """Returns the list of Func candidates a call site may reach. Empty for
    external/library calls. Over-approximates on ambiguity, capped so a
    common method name cannot fan the closure out to everything."""
    name = call.name
    if "::" in name:
        cands = model.by_qual.get(name, [])
        if not cands:
            cands = model.by_name.get(name.rsplit("::", 1)[-1], [])
        return cands[:4]
    if call.receiver is not None:
        backend = getattr(model, "_internal_backend", None)
        if backend is not None:
            cls = backend.resolve_receiver_class(func, call.receiver)
            if cls:
                exact = model.by_qual.get(cls + "::" + name, [])
                if exact:
                    return exact
        cands = model.by_name.get(name, [])
        return cands if len(cands) <= 3 else []
    if func.cls:
        exact = model.by_qual.get(func.cls + "::" + name, [])
        if exact:
            return exact
    cands = model.by_name.get(name, [])
    if len(cands) == 1:
        return cands
    return cands if len(cands) <= 3 else []


OP_RULE = {"lock": "ZCPA001", "alloc": "ZCPA002",
           "cross_partition": "ZCPA003", "global_ref": "ZCPA005"}


def closure_findings(model):
    findings = []
    root_counts = defaultdict(set)   # fp -> {root quals}
    by_fp = {}
    roots = [f for f in model.funcs if f.fast_path]
    boundaries = set()               # ZCP_SLOW_PATH functions reached
    for root in roots:
        parent = {id(root): None}
        queue = [(root, 0)]
        seen = {id(root)}
        while queue:
            func, depth = queue.pop(0)
            if func.slow_path:
                # Explicit fast/slow boundary: the caller leaves the fast
                # path before invoking this (e.g. DispatchBatch releases
                # the gate and flushes replies ahead of maintenance
                # handling). Traversal stops; the boundary is recorded so
                # --list-roots can audit the set.
                boundaries.add(func.qual)
                continue
            for op in func.ops:
                rule = OP_RULE.get(op.kind)
                if rule is None:
                    continue
                fp = f"{rule}:{op.file}:{func.qual}:{op.snippet}"
                root_counts[fp].add(root.qual)
                if fp in by_fp:
                    continue
                chain = []
                f = func
                while f is not None:
                    chain.append(f.qual)
                    f = parent.get(id(f))
                chain.reverse()
                finding = Finding(
                    rule, op.file, op.line,
                    f"{RULES[rule]}: {op.snippet}"
                    + (f" [{op.detail}]" if op.detail else ""),
                    fp, tuple(chain))
                by_fp[fp] = finding
                findings.append(finding)
            if depth >= MAX_CHAIN_DEPTH:
                continue
            for call in func.calls:
                for cand in resolve_call(model, func, call):
                    if id(cand) not in seen:
                        seen.add(id(cand))
                        parent[id(cand)] = func
                        queue.append((cand, depth + 1))
    for f in findings:
        n = len(root_counts[f.fp])
        if n > 1:
            f.message += f" (reachable from {n} fast-path roots)"
    model.notes.extend(
        f"closure stops at ZCP_SLOW_PATH boundary {q}"
        for q in sorted(boundaries))
    return findings


def implicit_order_findings(model):
    findings = []
    for s in model.atomic_sites:
        if s.implicit and not s.suppressed and s.order != "n/a":
            findings.append(Finding(
                "ZCPA004", s.file, s.line,
                f"{RULES['ZCPA004']}: {s.object}.{s.op}(...) in {s.func}",
                f"ZCPA004:{s.file}:{s.object}:{s.op}"))
    return findings


def acquired_closure(model, func, memo, visiting):
    """Lock ids a call to `func` may acquire, transitively."""
    if id(func) in memo:
        return memo[id(func)]
    if id(func) in visiting:
        return set()
    visiting.add(id(func))
    out = {(a.lock_id, a.kind) for a in func.lock_acqs}
    for call in func.calls:
        for cand in resolve_call(model, func, call):
            out |= acquired_closure(model, cand, memo, visiting)
    visiting.discard(id(func))
    memo[id(func)] = out
    return out


def lock_order_findings(model):
    edges = defaultdict(set)       # lock_id -> {lock_id}
    examples = {}                  # (a, b) -> "file:line via ..."
    memo = {}
    for func in model.funcs:
        for acq in func.lock_acqs:
            # Nested guards inside this guard's scope.
            for other in func.lock_acqs:
                if acq.pos < other.pos <= acq.scope_end \
                        and other.lock_id != acq.lock_id:
                    edges[acq.lock_id].add(other.lock_id)
                    examples.setdefault(
                        (acq.lock_id, other.lock_id),
                        f"{func.file}:{other.line} in {func.qual}")
                if acq.pos < other.pos <= acq.scope_end \
                        and other.lock_id == acq.lock_id:
                    edges[acq.lock_id].add(acq.lock_id)
                    examples.setdefault(
                        (acq.lock_id, acq.lock_id),
                        f"{func.file}:{other.line} in {func.qual} "
                        "(same-identity nested acquisition)")
            # Locks acquired by calls made while this guard is held.
            for call in func.calls:
                if not (acq.pos < call.pos <= acq.scope_end):
                    continue
                for cand in resolve_call(model, func, call):
                    for lock_id, _kind in acquired_closure(
                            model, cand, memo, set()):
                        if lock_id != acq.lock_id:
                            edges[acq.lock_id].add(lock_id)
                            examples.setdefault(
                                (acq.lock_id, lock_id),
                                f"{func.file}:{call.line} in {func.qual} "
                                f"via {cand.qual}")
                        else:
                            edges[acq.lock_id].add(lock_id)
                            examples.setdefault(
                                (acq.lock_id, lock_id),
                                f"{func.file}:{call.line} in {func.qual} "
                                f"via {cand.qual} (re-acquisition)")
    # Cycle detection: iterative DFS looking for back edges.
    findings = []
    seen_cycles = set()
    color = {}

    def dfs(start):
        stack = [(start, iter(sorted(edges.get(start, ()))))]
        path = [start]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt, 0) == 1:
                    cyc = path[path.index(nxt):] + [nxt]
                    key = frozenset(cyc)
                    if key not in seen_cycles:
                        seen_cycles.add(key)
                        why = "; ".join(
                            examples.get((cyc[i], cyc[i + 1]), "?")
                            for i in range(len(cyc) - 1))
                        findings.append(Finding(
                            "ZCPA010", "", 0,
                            f"{RULES['ZCPA010']}: "
                            + " -> ".join(cyc) + f"  ({why})",
                            "ZCPA010:" + "->".join(sorted(set(cyc)))))
                    continue
                if color.get(nxt, 0) == 0:
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                path.pop()
                stack.pop()

    for n in sorted(edges):
        if color.get(n, 0) == 0:
            dfs(n)
    return findings, edges


# ---------------------------------------------------------------------------
# Atomic-order inventory + DESIGN.md table.
# ---------------------------------------------------------------------------

INVENTORY_SCHEMA = "zcp-atomic-inventory-v1"


def build_inventory(model):
    agg = defaultdict(int)
    for s in model.atomic_sites:
        if s.op == "fence":
            agg[(s.file, s.object, s.op, s.order)] += 1
        elif s.order != "n/a":
            agg[(s.file, s.object, s.op, s.order)] += 1
    sites = [{"file": f, "object": o, "op": op, "order": order, "count": c}
             for (f, o, op, order), c in sorted(agg.items())]
    return {"schema": INVENTORY_SCHEMA, "sites": sites}


def inventory_findings(inventory, baseline_path):
    if not baseline_path.exists():
        return [Finding("ZCPA020", str(baseline_path), 0,
                        f"{RULES['ZCPA020']}: baseline file missing "
                        "(run --update-inventory)", "ZCPA020:missing")]
    try:
        committed = json.loads(baseline_path.read_text())
    except json.JSONDecodeError as e:
        return [Finding("ZCPA020", str(baseline_path), 0,
                        f"unparseable inventory baseline: {e}",
                        "ZCPA020:unparseable")]
    cur = {(s["file"], s["object"], s["op"], s["order"]): s["count"]
           for s in inventory["sites"]}
    old = {(s["file"], s["object"], s["op"], s["order"]): s["count"]
           for s in committed.get("sites", [])}
    findings = []
    for key in sorted(set(cur) | set(old)):
        a, b = old.get(key), cur.get(key)
        if a == b:
            continue
        f, o, op, order = key
        what = ("added" if a is None else
                "removed" if b is None else f"count {a}->{b}")
        findings.append(Finding(
            "ZCPA020", f, 0,
            f"{RULES['ZCPA020']}: {o}.{op}({order}) in {f}: {what} — "
            "update DESIGN.md §8, then --update-inventory",
            f"ZCPA020:{f}:{o}:{op}:{order}:{what.split()[0]}"))
    return findings


TABLE_BEGIN = ("<!-- BEGIN zcp-analyzer atomic-order table "
               "(generated: tools/zcp_analyzer.py --render-design-table; "
               "do not edit by hand) -->")
TABLE_END = "<!-- END zcp-analyzer atomic-order table -->"


def render_design_table(inventory):
    """Markdown table for DESIGN.md §8, grouped by file + object."""
    groups = defaultdict(list)
    for s in inventory["sites"]:
        groups[(s["file"], s["object"])].append(
            (s["op"], s["order"], s["count"]))
    lines = [TABLE_BEGIN,
             "",
             "| File | Atomic object | Operations (explicit order × sites) |",
             "|---|---|---|"]
    for (f, obj), ops in sorted(groups.items()):
        cell = ", ".join(
            f"`{op}({order})`" + (f" ×{c}" if c > 1 else "")
            for op, order, c in sorted(ops))
        lines.append(f"| `{f}` | `{obj}` | {cell} |")
    lines += ["", TABLE_END]
    return "\n".join(lines)


def check_design_table(doc_path, inventory):
    text = doc_path.read_text()
    b = text.find(TABLE_BEGIN)
    e = text.find(TABLE_END)
    if b == -1 or e == -1:
        return [f"{doc_path}: generated-table markers not found"]
    committed = text[b:e + len(TABLE_END)]
    expected = render_design_table(inventory)
    if " ".join(committed.split()) != " ".join(expected.split()):
        return [f"{doc_path}: atomic-order table is stale — regenerate with "
                "`tools/zcp_analyzer.py --render-design-table` and paste "
                "between the markers"]
    return []


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def collect_files(root, globs):
    seen = []
    have = set()
    for pattern in globs:
        for p in sorted(root.glob(pattern)):
            rel = p.relative_to(root).as_posix()
            if rel not in have and p.is_file():
                have.add(rel)
                seen.append(rel)
    return seen


def analyze(root, backend, cc_dir, globs, strict, inventory_path=None,
            design_doc=None):
    files = collect_files(root, globs)
    model = build_model(root, backend, cc_dir, files, strict)
    # resolve_call needs receiver-type resolution; keep one internal backend
    # instance attached for the clang backends too (they reuse its maps).
    helper = InternalBackend(root, [])
    helper.model = model
    model._internal_backend = helper
    findings = []
    findings += closure_findings(model)
    findings += implicit_order_findings(model)
    lock_findings, lock_edges = lock_order_findings(model)
    findings += lock_findings
    inventory = build_inventory(model)
    if inventory_path is not None:
        findings += inventory_findings(inventory, inventory_path)
    doc_errors = []
    if design_doc is not None and design_doc.exists():
        doc_errors = check_design_table(design_doc, inventory)
    return model, findings, inventory, lock_edges, doc_errors


def print_finding(f, file=sys.stderr):
    loc = f"{f.file}:{f.line}: " if f.file else ""
    print(f"{loc}{f.rule}: {f.message}", file=file)
    if f.chain and len(f.chain) > 1:
        print("    call chain: " + " -> ".join(f.chain), file=file)


def self_test(root):
    fixtures = root / "tools" / "zcp_analyzer_fixtures"
    expectations = {
        "bad_transitive_lock.cc": {"ZCPA001"},
        "bad_transitive_alloc.cc": {"ZCPA002"},
        "bad_cross_partition.cc": {"ZCPA003"},
        "bad_implicit_seq_cst.cc": {"ZCPA004"},
        "bad_implicit_seq_cst_array.cc": {"ZCPA004"},
        "bad_global_touch.cc": {"ZCPA005"},
        "bad_lock_order_cycle.cc": {"ZCPA010"},
        "clean.cc": set(),
        "clean_slow_path_boundary.cc": set(),
    }
    failures = []
    for name, expected in sorted(expectations.items()):
        rel = f"tools/zcp_analyzer_fixtures/{name}"
        if not (root / rel).exists():
            failures.append(f"missing fixture {rel}")
            continue
        model = InternalBackend(root, [rel]).build()
        helper = InternalBackend(root, [])
        helper.model = model
        model._internal_backend = helper
        findings = closure_findings(model) + implicit_order_findings(model) \
            + lock_order_findings(model)[0]
        got = {f.rule for f in findings}
        if expected - got:
            failures.append(f"{name}: expected {sorted(expected - got)} "
                            "not reported")
        if got - expected:
            for f in findings:
                if f.rule in got - expected:
                    print_finding(f)
            failures.append(f"{name}: unexpected {sorted(got - expected)}")
        # Transitive rules must carry a >= 2-deep call chain.
        if name.startswith("bad_transitive"):
            chains = [f.chain for f in findings if len(f.chain) >= 2]
            if not chains:
                failures.append(f"{name}: no interprocedural call chain in "
                                "the diagnostic")
    # Boundary-marker removal: the same TU minus ZCP_SLOW_PATH must report
    # the transitive lock — the silence above is earned by the marker, not
    # by the analyzer failing to look.
    brel = "tools/zcp_analyzer_fixtures/clean_slow_path_boundary.cc"
    if (root / brel).exists():
        stripped = (root / brel).read_text().replace(
            "ZCP_SLOW_PATH void", "void").replace(
            "#define ZCP_SLOW_PATH", "")
        model = InternalBackend(root, [brel], {brel: stripped}).build()
        helper = InternalBackend(root, [])
        helper.model = model
        model._internal_backend = helper
        got = {f.rule for f in closure_findings(model)}
        if "ZCPA001" not in got:
            failures.append("clean_slow_path_boundary.cc without the marker: "
                            "expected ZCPA001 not reported")
    # Inventory drift fixtures: one TU against a stale and a matching
    # baseline, and arrays of atomics against their exact inventory.
    inventory_cases = (
        ("inventory_subject.cc", "atomic_order_stale.json", True),
        ("inventory_subject.cc", "atomic_order_ok.json", False),
        ("inventory_atomic_arrays.cc", "atomic_order_arrays.json", False),
    )
    for subject, baseline, expect_drift in inventory_cases:
        drift_rel = f"tools/zcp_analyzer_fixtures/{subject}"
        bpath = fixtures / baseline
        if not (root / drift_rel).exists() or not bpath.exists():
            failures.append(f"missing inventory fixture {baseline}")
            continue
        model = InternalBackend(root, [drift_rel]).build()
        inv = build_inventory(model)
        drift = inventory_findings(inv, bpath)
        if expect_drift and not drift:
            failures.append(f"{baseline}: expected ZCPA020 drift not reported")
        if not expect_drift and drift:
            for f in drift:
                print_finding(f)
            failures.append(f"{baseline}: unexpected ZCPA020 drift")
    if failures:
        for f in failures:
            print(f"zcp_analyzer self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"zcp_analyzer self-test: "
          f"{len(expectations) + 1 + len(inventory_cases)} fixture "
          "checks OK")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        epilog="Tier 2 of the ZCP conformance tooling; see "
               "docs/STATIC_ANALYSIS.md. Tier 1 (tools/zcp_lint.py) stays "
               "the fast intra-function pre-commit pass.")
    ap.add_argument("--root", type=Path, default=Path("."))
    ap.add_argument("--backend", choices=["auto", "libclang", "ast-json",
                                          "internal"], default="auto")
    ap.add_argument("--strict-backend", action="store_true",
                    help="fail instead of falling back to the internal "
                         "backend when a clang backend is unavailable")
    ap.add_argument("-p", "--compile-commands", default=None, metavar="DIR",
                    help="build dir containing compile_commands.json "
                         "(needed by the clang backends)")
    ap.add_argument("--baseline", type=Path, default=None)
    ap.add_argument("--update-baseline", action="store_true")
    ap.add_argument("--inventory", type=Path, default=None,
                    help="atomic-order inventory baseline JSON "
                         "(default tools/atomic_order_baseline.json when "
                         "present)")
    ap.add_argument("--update-inventory", action="store_true")
    ap.add_argument("--emit-inventory", type=Path, default=None,
                    help="also write the current inventory JSON here")
    ap.add_argument("--render-design-table", action="store_true",
                    help="print the DESIGN.md §8 atomic-order table and exit")
    ap.add_argument("--check-design-table", type=Path, default=None,
                    help="verify the generated table block in this doc "
                         "matches the code")
    ap.add_argument("--glob", action="append", default=None)
    ap.add_argument("--list-roots", action="store_true")
    ap.add_argument("--dump-lock-graph", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    root = args.root.resolve()
    if args.self_test:
        return self_test(root)

    inventory_path = args.inventory
    if inventory_path is None:
        default_inv = root / "tools" / "atomic_order_baseline.json"
        if default_inv.exists() or args.update_inventory:
            inventory_path = default_inv
    elif not inventory_path.is_absolute():
        inventory_path = root / inventory_path

    try:
        model, findings, inventory, lock_edges, doc_errors = analyze(
            root, args.backend, args.compile_commands,
            args.glob or DEFAULT_SRC_GLOBS,
            args.strict_backend, inventory_path,
            args.check_design_table)
    except RuntimeError as e:
        print(f"zcp_analyzer: {e}", file=sys.stderr)
        return 2

    if args.render_design_table:
        print(render_design_table(inventory))
        return 0
    if args.list_roots:
        for f in sorted({x.qual for x in model.funcs if x.fast_path}):
            print(f)
        for f in sorted({x.qual for x in model.funcs if x.slow_path}):
            print(f"{f} [ZCP_SLOW_PATH boundary]")
        return 0
    if args.dump_lock_graph:
        for a in sorted(lock_edges):
            for b in sorted(lock_edges[a]):
                print(f"{a} -> {b}")
        return 0
    if args.emit_inventory:
        args.emit_inventory.write_text(json.dumps(inventory, indent=2) + "\n")
    if args.update_inventory:
        inventory_path.write_text(json.dumps(inventory, indent=2) + "\n")
        print(f"inventory updated: {len(inventory['sites'])} aggregated "
              f"sites -> {inventory_path}")
        findings = [f for f in findings if f.rule != "ZCPA020"]

    baseline_path = args.baseline
    if baseline_path is not None and not baseline_path.is_absolute():
        baseline_path = root / baseline_path
    baseline = zcp_baseline.load_baseline(baseline_path) \
        if baseline_path else {}

    fps = {}
    for f in findings:
        fps.setdefault(f.fp, f)
    if args.update_baseline:
        if baseline_path is None:
            print("--update-baseline requires --baseline", file=sys.stderr)
            return 2
        merged = {fp: baseline.get(fp, "") for fp in fps}
        zcp_baseline.save_baseline(baseline_path, merged)
        print(f"baseline updated: {len(fps)} findings -> {baseline_path}")
        return 0

    new = {fp: f for fp, f in fps.items() if fp not in baseline}
    fixed = set(baseline) - set(fps)
    for fp in sorted(new):
        print_finding(new[fp])
    for err in doc_errors:
        print(f"zcp_analyzer: {err}", file=sys.stderr)
    if fixed:
        print(f"zcp_analyzer: {len(fixed)} baselined finding(s) no longer "
              "present; run --update-baseline to shrink the baseline.")
    bare = zcp_baseline.unjustified(baseline)
    if bare:
        print(f"zcp_analyzer: note: {len(bare)} baselined finding(s) carry "
              "no 'why' justification", file=sys.stderr)
    nroots = sum(1 for f in model.funcs if f.fast_path)
    if new or doc_errors:
        print(f"zcp_analyzer[{model.backend}]: {len(new)} new violation(s), "
              f"{len(doc_errors)} doc error(s) "
              f"({len(fps)} total, {len(baseline)} baselined, "
              f"{nroots} fast-path roots, {len(model.funcs)} functions)",
              file=sys.stderr)
        return 1
    print(f"zcp_analyzer[{model.backend}]: clean — {nroots} fast-path roots "
          f"verified over {len(model.funcs)} functions, lock-order graph "
          f"acyclic ({sum(len(v) for v in lock_edges.values())} edges), "
          f"{len(inventory['sites'])} inventoried atomic sites, "
          f"{len(baseline)} baselined finding(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
