#!/usr/bin/env python3
"""wsd_lint: fast repo-invariant checker for the webspread tree.

Machine-checks the conventions the library relies on but a compiler alone
cannot (or only partially) enforce. No compiler or build tree needed; a
full run takes well under a second, so it is cheap enough for CI and for
a pre-commit hook.

Rules (ids in brackets, each documented in docs/STATIC_ANALYSIS.md):

  [discarded-status]    A statement-expression call to a function returning
                        Status/StatusOr whose result is dropped, including
                        `(void)` / `static_cast<void>` casts. The sanctioned
                        way to ignore an error is `.IgnoreError()`.
  [missing-nodiscard]   A Status/StatusOr-returning declaration in a src/
                        header without [[nodiscard]].
  [rng-discipline]      Nondeterministic or libc RNG (std::rand, srand,
                        std::random_device, time()-seeding, mt19937) outside
                        src/util/rng.cc. Every randomized component must go
                        through wsd::Rng with an explicit seed.
  [stdio-in-library]    iostream/printf-family output in library code.
                        CLI output belongs to tools/wsdctl.cc and bench/;
                        the library logs through src/util/logging.
  [using-namespace]     `using namespace` in a header.
  [include-guard]       Header guard does not match the canonical
                        WSD_<PATH>_H_ form derived from the file path, or
                        the header uses `#pragma once` (the repo
                        standardizes on named guards).
  [frozen-oracle]       A WSD_FROZEN_BEGIN/END region (the legacy-scan
                        equivalence oracle from PR 3) was edited without
                        updating tools/frozen_oracle.lock, or the markers
                        themselves are malformed/missing.
  [simd-confinement]    An x86 intrinsics header (<immintrin.h> family),
                        _mm*/_mm256* intrinsic, vector register type, or
                        __builtin_cpu_supports outside src/util/simd*.{h,cc}
                        / src/util/cpu*.{h,cc}. Everything else must go
                        through the dispatch layer (src/util/simd.h), which
                        keeps per-TU target attributes — and the scalar
                        fallback guarantees — in one place.
  [attr-switch]         A `switch` over an attribute value or a
                        `case Attribute::` label outside the attribute
                        registry TU (src/extract/attribute_registry.cc).
                        Per-attribute behavior lives in AttributeSpec
                        descriptors/hooks; enum dispatch anywhere else
                        re-creates the scattered switch sites the
                        registry replaced.
  [raw-concurrency]     A raw standard-library synchronization primitive
                        (std::mutex family, lock_guard/unique_lock/
                        scoped_lock/shared_lock, condition_variable,
                        once_flag/call_once, or the <mutex>/
                        <condition_variable>/<shared_mutex> includes)
                        outside src/util/mutex.h. All locking goes through
                        the annotated wsd::Mutex/MutexLock/CondVar wrappers
                        so clang -Wthread-safety sees every acquisition.
  [guarded-field]       A mutable data member co-declared with a Mutex in
                        the same class body but carrying no GUARDED_BY /
                        PT_GUARDED_BY annotation. Deliberately unguarded
                        fields must say why in an immediately preceding
                        `// unguarded: <reason>` comment.
  [orphan-header]       A src/ header that no file in src/, tools/, bench/,
                        examples/ or perfbench/ includes, its own .cc not
                        counting. Code only tests reach is dead weight.
  [env-knob]            getenv/secure_getenv in src/, tools/, bench/ or
                        examples/ outside src/util/simd.cc (whose
                        WSD_FORCE_SCALAR pins the scalar SIMD tier).
                        Programs are configured by flags only, so a run
                        is described by its command line.

Usage:
  tools/wsd_lint.py [--root REPO] [--update-frozen] [--self-test] [-q]

Exit codes: 0 clean, 1 violations found, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import sys
import tempfile

# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

# Directories scanned for library invariants, relative to the repo root.
LIBRARY_DIRS = ("src",)
# .cc scopes for the discarded-status rule (tests use EXPECT/ASSERT wrappers
# which consume the value; bench and examples are demo code).
STATUS_CALL_DIRS = ("src", "tools")
# Headers outside src/ that still get guard/using-namespace checks.
EXTRA_HEADER_DIRS = ("fuzz",)

# The logger backend is the one translation unit allowed to write to stderr.
STDIO_EXEMPT = {os.path.join("src", "util", "logging.cc")}
# The deterministic-RNG implementation itself.
RNG_EXEMPT = {os.path.join("src", "util", "rng.cc")}

FROZEN_LOCK = os.path.join("tools", "frozen_oracle.lock")
FROZEN_BEGIN_RE = re.compile(r"//\s*WSD_FROZEN_BEGIN\((\w+)\)")
FROZEN_END_RE = re.compile(r"//\s*WSD_FROZEN_END\((\w+)\)")

RNG_BANNED = [
    (re.compile(r"\bstd::rand\b|(?<![\w:])srand\s*\("), "libc rand/srand"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bstd::mt19937(_64)?\b"), "std::mt19937 (use wsd::Rng)"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(nullptr|NULL|0)\s*\)"),
     "wall-clock seeding"),
]

STDIO_BANNED = [
    (re.compile(r"\bstd::(cout|cerr|clog)\b"), "std::cout/cerr/clog"),
    (re.compile(r"(?<![\w.])(?<!::)(?:std::)?(printf|fprintf|puts|fputs|"
                r"putchar|perror)\s*\("), "printf-family output"),
    (re.compile(r'#\s*include\s*<iostream>'), "#include <iostream>"),
]

STATEMENT_KEYWORDS = (
    "return", "co_return", "if", "else", "while", "for", "switch", "case",
    "do", "throw", "goto", "break", "continue", "using", "typedef",
    "namespace", "public", "private", "protected", "default", "delete",
    "new", "template", "struct", "class", "enum", "static_assert",
)

# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text: str) -> str:
    """Blanks comments and string/char literal contents, preserving offsets.

    Every replaced character becomes a space (newlines are kept), so line
    numbers and column positions in the stripped text match the original.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == 'R' and nxt == '"':
            # Raw string literal R"delim( ... )delim".
            m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
            if not m:
                i += 1
                continue
            end = text.find(f'){m.group(1)}"', i + m.end())
            end = n if end == -1 else end + len(m.group(1)) + 2
            for j in range(i, end):
                if text[j] != "\n":
                    out[j] = " "
            i = end
        elif c in "\"'":
            quote = c
            out[i] = quote  # keep delimiters so "..." stays a token
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                        i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                i += 1  # keep closing delimiter
        else:
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def iter_files(root: str, dirs, exts):
    for d in dirs:
        base = os.path.join(root, d)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(tuple(exts)):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def read(root: str, rel: str) -> str:
    with open(os.path.join(root, rel), encoding="utf-8", errors="replace") as f:
        return f.read()


# --------------------------------------------------------------------------
# Rule: discarded-status (+ the header scan that powers it)
# --------------------------------------------------------------------------

STATUS_DECL_RE = re.compile(
    r"(?P<nodiscard>\[\[nodiscard\]\]\s+)?"
    r"(?P<static>static\s+)?"
    r"(?P<ret>(?:::)?(?:wsd::)?Status(?:Or<[^;={}]*?>)?)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*\(")


def collect_status_functions(root: str, findings):
    """Returns the set of function names returning Status/StatusOr, and
    flags declarations missing [[nodiscard]] ([missing-nodiscard])."""
    names = set()
    for rel in iter_files(root, LIBRARY_DIRS, (".h",)):
        text = strip_code(read(root, rel))
        for m in STATUS_DECL_RE.finditer(text):
            name = m.group("name")
            if name in ("operator", "WSD_CONCAT_"):
                continue
            names.add(name)
            if not m.group("nodiscard"):
                findings.append(Finding(
                    rel, line_of(text, m.start()), "missing-nodiscard",
                    f"'{name}' returns {m.group('ret')} but is not "
                    "[[nodiscard]]"))
    return names


def match_paren(text: str, open_pos: int) -> int:
    """Index of the ')' matching the '(' at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


CALL_HEAD_RE = re.compile(
    r"^(?:[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*(?:\(\s*\))?(?:\.|->))*"
    r"(?P<name>[A-Za-z_]\w*)\s*\(")
VOID_CAST_RE = re.compile(r"^(?:\(\s*void\s*\)|static_cast\s*<\s*void\s*>\s*\()\s*")


def check_discarded_status(root: str, status_names, findings):
    for rel in iter_files(root, STATUS_CALL_DIRS, (".cc", ".cpp")):
        text = strip_code(read(root, rel))
        # Statement starts: position after each ';', '{' or '}'.
        for m in re.finditer(r"[;{}]", "\x00" + text):
            start = m.start()  # offset into text of the char after ;{}
            chunk = text[start:start + 4096]
            stripped = chunk.lstrip()
            lead = len(chunk) - len(stripped)
            cast = VOID_CAST_RE.match(stripped)
            body = stripped[cast.end():] if cast else stripped
            call = CALL_HEAD_RE.match(body)
            if not call:
                continue
            name = call.group("name")
            if name not in status_names:
                continue
            first_word = re.match(r"[A-Za-z_]\w*", body)
            if first_word and first_word.group(0) in STATEMENT_KEYWORDS:
                continue
            open_pos = body.index("(", call.start("name"))
            close = match_paren(body, open_pos)
            if close == -1:
                continue
            tail = body[close + 1:].lstrip()
            is_cast_discard = bool(cast)
            if is_cast_discard:
                # (void)call(...)  — tail after the call must close the cast
                # for static_cast form, then hit ';'.
                tail = tail.lstrip(") \t\n")
            if not tail.startswith(";"):
                continue  # result is used (chained, compared, returned...)
            pos = start + lead
            via = " via (void) cast" if is_cast_discard else ""
            findings.append(Finding(
                rel, line_of(text, pos), "discarded-status",
                f"result of Status-returning '{name}(...)' is discarded"
                f"{via}; handle it, propagate it, or call .IgnoreError()"))


# --------------------------------------------------------------------------
# Rules: rng-discipline, stdio-in-library, using-namespace, include-guard
# --------------------------------------------------------------------------


def check_token_bans(root: str, findings):
    for rel in iter_files(root, LIBRARY_DIRS, (".h", ".cc")):
        text = strip_code(read(root, rel))
        if rel not in RNG_EXEMPT and not rel.endswith(os.path.join("util", "rng.h")):
            for pattern, what in RNG_BANNED:
                for m in pattern.finditer(text):
                    findings.append(Finding(
                        rel, line_of(text, m.start()), "rng-discipline",
                        f"{what} — all randomness must flow through "
                        "wsd::Rng with an explicit seed (src/util/rng.cc)"))
        if rel not in STDIO_EXEMPT:
            for pattern, what in STDIO_BANNED:
                for m in pattern.finditer(text):
                    findings.append(Finding(
                        rel, line_of(text, m.start()), "stdio-in-library",
                        f"{what} in library code — use WSD_LOG "
                        "(src/util/logging.h); stdout belongs to wsdctl"))


def check_headers(root: str, findings):
    header_dirs = LIBRARY_DIRS + EXTRA_HEADER_DIRS
    for rel in iter_files(root, header_dirs, (".h",)):
        text = read(root, rel)
        stripped = strip_code(text)
        for m in re.finditer(r"\busing\s+namespace\b", stripped):
            findings.append(Finding(
                rel, line_of(stripped, m.start()), "using-namespace",
                "`using namespace` in a header leaks into every includer"))
        expected = "WSD_" + re.sub(r"[^A-Za-z0-9]", "_",
                                   rel.split(os.sep, 1)[-1]
                                   if rel.startswith("src" + os.sep)
                                   else rel).upper() + "_"
        guard = re.search(r"#ifndef\s+(\S+)\s*\n\s*#define\s+(\S+)", text)
        # Repo decision (PR 9): canonical WSD_<PATH>_H_ guards uniformly,
        # never `#pragma once` — guards are greppable, collision-checkable
        # by this rule, and behave identically for hard-linked files.
        pragma = re.search(r"#\s*pragma\s+once\b", stripped)
        if pragma:
            findings.append(Finding(
                rel, line_of(stripped, pragma.start()), "include-guard",
                "#pragma once — this repo standardizes on canonical "
                f"#ifndef {expected} guards instead"))
        if not guard:
            findings.append(Finding(
                rel, 1, "include-guard",
                f"no include guard; expected #ifndef {expected}"))
        elif guard.group(1) != expected or guard.group(2) != expected:
            findings.append(Finding(
                rel, line_of(text, guard.start()), "include-guard",
                f"guard '{guard.group(1)}' does not match canonical "
                f"'{expected}'"))


# --------------------------------------------------------------------------
# Rule: simd-confinement
# --------------------------------------------------------------------------

# The only files allowed to name raw intrinsics or CPUID builtins.
SIMD_ALLOWED_RE = re.compile(r"^src/util/(simd|cpu)[^/]*\.(h|cc)$")

SIMD_BANNED = [
    (re.compile(r"#\s*include\s*<(imm|emm|xmm|pmm|smm|tmm|wmm|nmm|ammintrin|"
                r"avx\w*|x86)intrin\.h>"),
     "x86 intrinsics header"),
    (re.compile(r"\b_mm\d*_\w+\s*\("), "_mm* intrinsic"),
    (re.compile(r"\b__m(64|128|256|512)[di]?\b"), "vector register type"),
    (re.compile(r"\b__builtin_cpu_supports\s*\("), "__builtin_cpu_supports"),
]


def check_simd_confinement(root: str, findings):
    for rel in iter_files(root, LIBRARY_DIRS, (".h", ".cc")):
        if SIMD_ALLOWED_RE.match(rel.replace(os.sep, "/")):
            continue
        text = strip_code(read(root, rel))
        for pattern, what in SIMD_BANNED:
            for m in pattern.finditer(text):
                findings.append(Finding(
                    rel, line_of(text, m.start()), "simd-confinement",
                    f"{what} outside src/util/simd*/cpu* — raw SIMD is "
                    "confined to the dispatch layer; call the primitives "
                    "in src/util/simd.h instead"))


# --------------------------------------------------------------------------
# Rule: attr-switch
# --------------------------------------------------------------------------

# Everywhere C++ lives; a new switch-on-attr in a bench, test, or tool is
# just as much a registry bypass as one in src/.
ATTR_SWITCH_DIRS = ("src", "tools", "bench", "examples", "tests", "fuzz")
# The registry TU is the single place allowed to dispatch on the enum.
ATTR_SWITCH_ALLOWED_RE = re.compile(
    r"^src/extract/attribute_registry\.(h|cc)$")
ATTR_CASE_RE = re.compile(r"\bcase\s+(?:wsd::)?Attribute::")
ATTR_SWITCH_HEAD_RE = re.compile(r"\bswitch\s*\(")
# Condition mentions an attribute: a variable/member named attr* (attr,
# attr_, meta.attr, spec.attr) or the Attribute type itself (casts).
ATTR_COND_RE = re.compile(r"\battr\w*\b|\bAttribute\b")


def check_attr_switch(root: str, findings):
    for rel in iter_files(root, ATTR_SWITCH_DIRS, (".h", ".cc", ".cpp")):
        if ATTR_SWITCH_ALLOWED_RE.match(rel.replace(os.sep, "/")):
            continue
        text = strip_code(read(root, rel))
        for m in ATTR_CASE_RE.finditer(text):
            findings.append(Finding(
                rel, line_of(text, m.start()), "attr-switch",
                "`case Attribute::` outside the registry TU — per-attribute "
                "behavior belongs in an AttributeSpec descriptor/hook "
                "(src/extract/attribute_registry.cc)"))
        for m in ATTR_SWITCH_HEAD_RE.finditer(text):
            close = match_paren(text, m.end() - 1)
            if close == -1:
                continue
            if ATTR_COND_RE.search(text[m.end():close]):
                findings.append(Finding(
                    rel, line_of(text, m.start()), "attr-switch",
                    "`switch` over an attribute outside the registry TU — "
                    "add a field or hook to AttributeSpec instead "
                    "(src/extract/attribute_registry.cc)"))


# --------------------------------------------------------------------------
# Rules: raw-concurrency, guarded-field
# --------------------------------------------------------------------------

# The annotated wrapper layer itself is the only place allowed to touch the
# std primitives.
CONCURRENCY_EXEMPT = {os.path.join("src", "util", "mutex.h")}

RAW_CONCURRENCY_BANNED = [
    (re.compile(r"#\s*include\s*<(mutex|condition_variable|shared_mutex)>"),
     "raw concurrency header include"),
    (re.compile(r"\bstd::(recursive_|timed_|recursive_timed_|shared_)?"
                r"mutex\b"), "std::mutex family"),
    (re.compile(r"\bstd::(lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
     "raw RAII lock type"),
    (re.compile(r"\bstd::condition_variable(_any)?\b"),
     "std::condition_variable"),
    (re.compile(r"\bstd::(once_flag|call_once)\b"),
     "std::once_flag/call_once"),
]


def check_raw_concurrency(root: str, findings):
    for rel in iter_files(root, LIBRARY_DIRS, (".h", ".cc")):
        if rel in CONCURRENCY_EXEMPT:
            continue
        text = strip_code(read(root, rel))
        for pattern, what in RAW_CONCURRENCY_BANNED:
            for m in pattern.finditer(text):
                findings.append(Finding(
                    rel, line_of(text, m.start()), "raw-concurrency",
                    f"{what} outside src/util/mutex.h — use the annotated "
                    "wsd::Mutex/MutexLock/CondVar wrappers so clang "
                    "-Wthread-safety can check the lock discipline"))


# Matches a class/struct head up to its opening brace, tolerating attribute
# macros like WSD_CAPABILITY("mutex") between keyword and name.
CLASS_HEAD_RE = re.compile(
    r"(?<![\w_])(?<!enum\s)(class|struct)\s+[^;{}()]*?\{")
# A Mutex declared by value as a member (references/pointers are views of
# someone else's mutex and carry no guarding obligation here).
MUTEX_MEMBER_RE = re.compile(
    r"(?:^|[;{}\n])\s*(?:mutable\s+)?(?:wsd::)?Mutex\s+(\w+)\s*;")
FIELD_DECL_RE = re.compile(
    r"^[\w:<>,*&\s\[\]\.]+?[\s*&](\w+)\s*(?:=[^;]*)?$")
FIELD_SKIP_TYPES = re.compile(
    r"\b(Mutex|CondVar|OnceFlag|std::atomic|atomic_bool|atomic_int|"
    r"atomic_size_t|atomic_uint\w*)\b")
FIELD_SKIP_KEYWORDS = re.compile(
    r"^\s*(static|constexpr|using|typedef|friend|enum|class|struct|"
    r"template|operator|explicit|virtual|inline)\b")


def match_brace(text: str, open_pos: int) -> int:
    """Index of the '}' matching the '{' at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def blank_nested_braces(body: str) -> str:
    """Replaces every top-level nested {...} region in a class body with a
    ';' terminator (plus padding) so inline function bodies and brace
    initializers cannot swallow the following declaration, while offsets
    are preserved."""
    out = list(body)
    i, n = 0, len(body)
    while i < n:
        if body[i] == "{":
            close = match_brace(body, i)
            if close == -1:
                break
            for j in range(i, close + 1):
                if body[j] != "\n":
                    out[j] = " "
            out[close] = ";"
            i = close + 1
        else:
            i += 1
    return "".join(out)


def has_unguarded_marker(lines, decl_first_line: int) -> bool:
    """True if an `unguarded:` waiver covers this declaration. A waiver
    comment covers the blank-line-delimited paragraph it sits in, so one
    comment can head a contiguous block of related fields."""
    idx = decl_first_line - 1  # 0-based index of the declaration's 1st line
    k = idx
    while k >= 0 and lines[k].strip():
        if "unguarded:" in lines[k]:
            return True
        k -= 1
    return False


def check_guarded_fields(root: str, findings):
    for rel in iter_files(root, LIBRARY_DIRS, (".h", ".cc")):
        if rel in CONCURRENCY_EXEMPT:
            continue
        raw = read(root, rel)
        text = strip_code(raw)
        raw_lines = raw.split("\n")
        for head in CLASS_HEAD_RE.finditer(text):
            open_pos = head.end() - 1
            close_pos = match_brace(text, open_pos)
            if close_pos == -1:
                continue
            body = blank_nested_braces(text[open_pos + 1:close_pos])
            if not MUTEX_MEMBER_RE.search(body):
                continue
            base = open_pos + 1
            # Walk top-level statements (nested regions are now ';').
            start = 0
            for m in re.finditer(r";", body):
                stmt = body[start:m.start()]
                stmt_off = start
                start = m.end()
                clean = re.sub(r"\b(public|private|protected)\s*:", " ", stmt)
                clean = clean.strip()
                if not clean or "(" in clean or ")" in clean:
                    continue  # empty, function decl, or annotated via macro
                if FIELD_SKIP_KEYWORDS.match(clean):
                    continue
                if "GUARDED_BY" in clean:
                    continue
                decl = FIELD_DECL_RE.match(clean)
                if not decl:
                    continue
                type_part = clean[:clean.rindex(decl.group(1))]
                if FIELD_SKIP_TYPES.search(type_part) or not type_part.strip():
                    continue
                # const members (including `T* const`) are immutable after
                # construction and need no lock to read.
                if re.match(r"(mutable\s+)?const\b", type_part) or \
                        re.search(r"[*&]\s*const\s*$", type_part.strip()):
                    continue
                lead_ws = len(stmt) - len(stmt.lstrip())
                pos = base + stmt_off + lead_ws
                line = line_of(text, pos)
                if has_unguarded_marker(raw_lines, line):
                    continue
                findings.append(Finding(
                    rel, line, "guarded-field",
                    f"field '{decl.group(1)}' shares a class with a Mutex "
                    "but has no GUARDED_BY annotation; guard it, or waive "
                    "with a preceding `// unguarded: <reason>` comment"))


# --------------------------------------------------------------------------
# Rule: frozen-oracle
# --------------------------------------------------------------------------


def find_frozen_regions(root: str, findings):
    """Returns {name: (rel, sha256)} for every well-formed frozen region."""
    regions = {}
    for rel in iter_files(root, LIBRARY_DIRS, (".h", ".cc")):
        text = read(root, rel)
        begins = [(m.start(), m.group(1)) for m in FROZEN_BEGIN_RE.finditer(text)]
        ends = {m.group(1): m.start() for m in FROZEN_END_RE.finditer(text)}
        for pos, name in begins:
            if name not in ends:
                findings.append(Finding(
                    rel, line_of(text, pos), "frozen-oracle",
                    f"WSD_FROZEN_BEGIN({name}) has no matching END"))
                continue
            if name in regions:
                findings.append(Finding(
                    rel, line_of(text, pos), "frozen-oracle",
                    f"duplicate frozen region '{name}'"))
                continue
            body = text[pos:ends[name]]
            digest = hashlib.sha256(body.encode()).hexdigest()
            regions[name] = (rel, digest)
        for name, pos in ends.items():
            if not any(n == name for _, n in begins):
                findings.append(Finding(
                    rel, line_of(text, pos), "frozen-oracle",
                    f"WSD_FROZEN_END({name}) has no matching BEGIN"))
    return regions


def check_frozen(root: str, findings, update: bool) -> None:
    regions = find_frozen_regions(root, findings)
    lock_path = os.path.join(root, FROZEN_LOCK)
    if update:
        with open(lock_path, "w", encoding="utf-8") as f:
            f.write("# sha256 of each WSD_FROZEN_BEGIN/END region.\n"
                    "# These are the legacy-scan equivalence oracles frozen"
                    " by PR 3 (do not\n# optimize); regenerate only for an"
                    " intentional change, via\n"
                    "#   tools/wsd_lint.py --update-frozen\n")
            for name in sorted(regions):
                rel, digest = regions[name]
                f.write(f"{digest}  {name}  {rel.replace(os.sep, '/')}\n")
        return
    if not os.path.exists(lock_path):
        findings.append(Finding(
            FROZEN_LOCK, 1, "frozen-oracle",
            "lock file missing; run tools/wsd_lint.py --update-frozen"))
        return
    locked = {}
    with open(lock_path, encoding="utf-8") as f:
        for ln, raw in enumerate(f, 1):
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            parts = raw.split()
            if len(parts) != 3:
                findings.append(Finding(FROZEN_LOCK, ln, "frozen-oracle",
                                        f"malformed lock line: {raw!r}"))
                continue
            locked[parts[1]] = (parts[2], parts[0])
    for name, (rel, digest) in sorted(regions.items()):
        if name not in locked:
            findings.append(Finding(
                rel, 1, "frozen-oracle",
                f"region '{name}' not in {FROZEN_LOCK}; run --update-frozen"))
        elif locked[name][1] != digest:
            findings.append(Finding(
                rel, 1, "frozen-oracle",
                f"frozen region '{name}' was modified (it is the do-not-edit"
                " legacy oracle); revert, or run --update-frozen if the"
                " change is intentional"))
    for name, (rel, _) in sorted(locked.items()):
        if name not in regions:
            findings.append(Finding(
                FROZEN_LOCK, 1, "frozen-oracle",
                f"locked region '{name}' no longer exists in {rel}"))


# --------------------------------------------------------------------------
# Rule: orphan-header
# --------------------------------------------------------------------------

# Files whose includes keep a src/ header alive. tests/ and fuzz/ are left
# out on purpose: a header only they include has no production caller.
INCLUDER_DIRS = ("src", "tools", "bench", "examples", "perfbench")
QUOTED_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)


def check_orphan_headers(root: str, findings):
    included = set()
    for rel in iter_files(root, INCLUDER_DIRS, (".h", ".cc", ".cpp")):
        rel = rel.replace(os.sep, "/")
        for m in QUOTED_INCLUDE_RE.finditer(read(root, rel)):
            header = m.group(1)
            if rel != "src/" + header[:-len(".h")] + ".cc":
                included.add(header)
    for rel in iter_files(root, LIBRARY_DIRS, (".h",)):
        header = rel.replace(os.sep, "/").split("/", 1)[1]
        if header not in included:
            findings.append(Finding(
                rel, 1, "orphan-header",
                "no file in src/, tools/, bench/, examples/ or perfbench/ "
                "includes this header (its own .cc does not count); delete "
                "it, or call it from production code"))


# --------------------------------------------------------------------------
# Rule: env-knob
# --------------------------------------------------------------------------

ENV_KNOB_DIRS = ("src", "tools", "bench", "examples")
# WSD_FORCE_SCALAR: the one way to reach the scalar SIMD tier on a host
# with AVX2, which CI uses to run the suite on both tiers.
ENV_KNOB_ALLOWED = {"src/util/simd.cc"}
ENV_KNOB_RE = re.compile(r"\b(?:secure_)?getenv\s*\(")


def check_env_knobs(root: str, findings):
    for rel in iter_files(root, ENV_KNOB_DIRS, (".h", ".cc", ".cpp")):
        if rel.replace(os.sep, "/") in ENV_KNOB_ALLOWED:
            continue
        text = strip_code(read(root, rel))
        for m in ENV_KNOB_RE.finditer(text):
            findings.append(Finding(
                rel, line_of(text, m.start()), "env-knob",
                "environment read outside src/util/simd.cc — configure "
                "through a flag (StudyOptions::FromFlags for study "
                "options) so a run is described by its command line"))


# --------------------------------------------------------------------------
# Driver + self-test
# --------------------------------------------------------------------------


def run_lint(root: str, update_frozen: bool = False):
    findings = []
    status_names = collect_status_functions(root, findings)
    check_discarded_status(root, status_names, findings)
    check_token_bans(root, findings)
    check_headers(root, findings)
    check_simd_confinement(root, findings)
    check_attr_switch(root, findings)
    check_raw_concurrency(root, findings)
    check_guarded_fields(root, findings)
    check_orphan_headers(root, findings)
    check_env_knobs(root, findings)
    check_frozen(root, findings, update_frozen)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


SELF_TEST_CASES = {
    # rule id -> {relative path: file contents}; the files must trigger it
    "discarded-status": {"src/util/bad_status.cc": """
#include "util/csv.h"
namespace wsd {
void Leak() {
  CsvWriter w;
  w.Open("x");
  (void)w.Close();
}
}  // namespace wsd
"""},
    "missing-nodiscard": {"src/util/bad_decl.h": """
#ifndef WSD_UTIL_BAD_DECL_H_
#define WSD_UTIL_BAD_DECL_H_
#include "util/status.h"
namespace wsd {
Status UnannotatedThing(int x);
}
#endif  // WSD_UTIL_BAD_DECL_H_
"""},
    "rng-discipline": {"src/util/bad_rng.cc": """
#include <cstdlib>
#include <ctime>
namespace wsd {
int Roll() { srand(time(nullptr)); return std::rand(); }
}
"""},
    "stdio-in-library": {"src/util/bad_stdio.cc": """
#include <iostream>
namespace wsd {
void Shout() { std::cout << "hi\\n"; printf("hi\\n"); }
}
"""},
    "using-namespace": {"src/util/bad_using.h": """
#ifndef WSD_UTIL_BAD_USING_H_
#define WSD_UTIL_BAD_USING_H_
using namespace std;
#endif  // WSD_UTIL_BAD_USING_H_
"""},
    "include-guard": {"src/util/bad_guard.h": """
#ifndef TOTALLY_WRONG_GUARD_H
#define TOTALLY_WRONG_GUARD_H
#endif
"""},
    "raw-concurrency": {"src/util/bad_raw_mutex.cc": """
#include <mutex>
namespace wsd {
std::mutex g_mu;
int Locked() {
  std::lock_guard<std::mutex> lock(g_mu);
  return 1;
}
}  // namespace wsd
"""},
    "guarded-field": {"src/util/bad_guarded.h": """
#ifndef WSD_UTIL_BAD_GUARDED_H_
#define WSD_UTIL_BAD_GUARDED_H_
#include "util/mutex.h"
namespace wsd {
class Tally {
 public:
  void Add(int v);
 private:
  Mutex mu_;
  int counter_ = 0;
};
}  // namespace wsd
#endif  // WSD_UTIL_BAD_GUARDED_H_
"""},
    "frozen-oracle": {"src/util/bad_frozen.cc": """
// WSD_FROZEN_BEGIN(self_test_region)
int tampered = 1;
// WSD_FROZEN_END(self_test_region)
"""},
    "attr-switch": {"src/core/bad_attr_switch.cc": """
#include "core/domains.h"
namespace wsd {
int MentionWeight(Attribute attr) {
  // Allowed elsewhere: a plain comparison (no dispatch table implied).
  if (attr == Attribute::kIsbn) return 2;
  switch (attr) {
    case Attribute::kPhone:
      return 3;
    default:
      return 1;
  }
}
}  // namespace wsd
"""},
    "simd-confinement": {"src/html/bad_simd.cc": """
#include <immintrin.h>
namespace wsd {
int CountLt(const char* p) {
  const __m128i block = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return _mm_movemask_epi8(block);
}
}
"""},
    "env-knob": {"bench/bench_env.cc": """
#include <cstdlib>
int main() {
  const char* scale = std::getenv("WSD_SCALE");
  return scale == nullptr ? 0 : 1;
}
"""},
    "orphan-header": {
        "src/util/orphan.h": """
#ifndef WSD_UTIL_ORPHAN_H_
#define WSD_UTIL_ORPHAN_H_
int Orphan();
#endif  // WSD_UTIL_ORPHAN_H_
""",
        "src/util/orphan.cc": """
#include "util/orphan.h"
int Orphan() { return 1; }
"""},
}

# rule id -> {relative path: file contents} that must lint clean: the
# near misses each rule has to let through.
SELF_TEST_CLEAN_CASES = {
    "env-knob": {
        "src/util/simd.cc": """
#include <cstdlib>
namespace wsd {
bool ForceScalar() { return std::getenv("WSD_FORCE_SCALAR") != nullptr; }
}  // namespace wsd
""",
        "tools/tool_flags.cc": """
// Reads --scale, never getenv("WSD_SCALE"); the comment does not count.
const char* kUsage = "getenv( in a string literal is not a call";
int main() { return 0; }
"""},
    "orphan-header": {
        "src/util/bench_only.h": """
#ifndef WSD_UTIL_BENCH_ONLY_H_
#define WSD_UTIL_BENCH_ONLY_H_
int BenchOnly();
#endif  // WSD_UTIL_BENCH_ONLY_H_
""",
        "src/util/bench_only.cc": """
#include "util/bench_only.h"
int BenchOnly() { return 1; }
""",
        "bench/bench_uses_it.cc": """
#include "util/bench_only.h"
int main() { return BenchOnly(); }
"""},
}


def write_files(root: str, files) -> None:
    for rel, contents in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(contents)


def support_tree(repo_root: str, tmp: str) -> None:
    """Minimal tree: the status/csv headers the cases include, a tool that
    includes them, and an up-to-date lock file so only the seeded issue
    fires."""
    files = {"tools/lint_support.cc": '#include "util/csv.h"\n'}
    for support in ("src/util/status.h", "src/util/statusor.h",
                    "src/util/csv.h"):
        files[support] = read(repo_root, support)
    write_files(tmp, files)
    run_lint(tmp, update_frozen=True)  # writes lock


def self_test(repo_root: str) -> int:
    """Each seeded violation must be detected, each near miss and a
    pristine mini-tree must lint clean. Runs in a temp copy; the real tree
    is untouched."""
    failures = []
    cases = [(rule, files, True)
             for rule, files in sorted(SELF_TEST_CASES.items())]
    cases += [(rule, files, False)
              for rule, files in sorted(SELF_TEST_CLEAN_CASES.items())]
    for rule, files, must_fire in cases:
        with tempfile.TemporaryDirectory(prefix="wsd_lint_selftest_") as tmp:
            support_tree(repo_root, tmp)
            baseline = run_lint(tmp)
            if baseline:
                failures.append(f"{rule}: support tree not clean: "
                                f"{baseline[0]}")
                continue
            write_files(tmp, files)
            found = run_lint(tmp)
            if must_fire and not any(f.rule == rule for f in found):
                failures.append(
                    f"{rule}: seeded violation in {sorted(files)} was NOT "
                    f"detected (got: {[str(f) for f in found]})")
            if not must_fire and found:
                failures.append(
                    f"{rule}: clean case {sorted(files)} was flagged: "
                    f"{[str(f) for f in found]}")
    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL {f}", file=sys.stderr)
        return 1
    print(f"self-test: all {len(SELF_TEST_CASES)} seeded violations "
          f"detected, all {len(SELF_TEST_CLEAN_CASES)} clean cases pass",
          file=sys.stderr)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script's dir)")
    ap.add_argument("--update-frozen", action="store_true",
                    help="regenerate tools/frozen_oracle.lock from markers")
    ap.add_argument("--self-test", action="store_true",
                    help="verify every rule fires on a seeded violation")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"wsd_lint: no src/ under {root}", file=sys.stderr)
        return 2

    if args.self_test:
        return self_test(root)

    findings = run_lint(root, update_frozen=args.update_frozen)
    for f in findings:
        print(f)
    if not args.quiet:
        print(f"wsd_lint: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
