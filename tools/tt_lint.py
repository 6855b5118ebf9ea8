#!/usr/bin/env python3
"""tt_lint — repo-specific determinism lint for tensortools-parallel.

The runtime's headline guarantees (bitwise-identical results at any
``TT_THREADS`` / rank count, clean errors on torn wire frames, reproducible
sweeps) rest on a handful of coding rules that normal compilers do not
enforce. This tool machine-checks them so a violation fails CI instead of
surfacing as a flaky parity test three PRs later.

Rules (each check is named; see ``--list-rules``):

  ordered-iteration   Unordered containers (``std::unordered_map`` /
                      ``std::unordered_set``) hash-order their elements, so
                      *any* iteration over one can leak nondeterministic
                      order into results or stats. Every declaration in
                      ``src/`` must carry a waiver justifying why order
                      cannot leak (lookup-only, drained in sorted order, …),
                      and any range-for / ``.begin()`` over one is flagged.
  wire-bounds         A length read off the wire is attacker/corruption
                      controlled. Allocating from it (``reserve`` /
                      ``resize`` / container construction) before a
                      ``TT_CHECK`` validates it lets a torn frame OOM the
                      process instead of raising a clean ``tt::Error``.
  no-wallclock-random Nondeterminism sources — ``rand()``, ``srand``,
                      ``std::random_device``, unseeded engines, wall-clock
                      seeds (``time(nullptr)``, ``system_clock``) — are
                      banned in ``src/``; all randomness flows through the
                      explicitly seeded ``support::Rng``.
  raw-cast-audit      ``reinterpret_cast`` is confined to the wire/io
                      serialization layer (``src/runtime/wire.cpp``,
                      ``src/mps/io.cpp``); anywhere else needs a waiver
                      explaining why it is not type punning.
  check-macro         ``TT_CHECK`` / ``TT_ASSERT`` need a non-empty message
                      (the throw site is the only diagnostic a remote rank
                      ships home) and a side-effect-free condition
                      (``++``/``--``/assignment inside the condition changes
                      behaviour if the macro is ever compiled out).
  modelled-time       ``rt::CostTracker`` holds the BSP model's cost and
                      nothing else, so in ``src/`` only the cost model
                      (``src/runtime/cost_model.cpp``) and the tracker itself
                      (``src/runtime/tracker.cpp``) may call ``add_time`` /
                      ``add_flops`` / ``add_words`` / ``add_supersteps``.
                      Elsewhere, fold a whole tracker in with ``merge``.
  one-thread-runtime  ``support::parallel_for`` is the only thread runtime,
                      so ``TT_THREADS`` is the only thread knob: a
                      ``#pragma omp``, an ``omp_*`` call or an ``<omp.h>``
                      include in ``src/`` or ``tests/`` starts threads the
                      pool cannot see or cap.

Waiver syntax — same line or the line directly above the flagged one:

    // tt-lint: allow(<rule>[,<rule>...]) <reason — required, non-empty>

Unused waivers and waivers without a reason are themselves findings, so the
waiver list stays an honest audit trail rather than a suppression dump.

Usage:
    tools/tt_lint.py                  # lint src/ and tests/ from repo root
    tools/tt_lint.py path1 path2     # lint explicit files/directories
    tools/tt_lint.py --list-rules
Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

RULES = {
    "ordered-iteration": "no unordered_map/unordered_set iteration or unwaived "
    "declaration in result- or stats-affecting code (src/)",
    "wire-bounds": "every WireReader-derived length is TT_CHECK-validated "
    "before it sizes an allocation",
    "no-wallclock-random": "no rand()/std::random_device/unseeded engines/"
    "wall-clock seeds outside tests",
    "raw-cast-audit": "reinterpret_cast only in the wire/io serialization layer",
    "check-macro": "TT_CHECK/TT_ASSERT messages non-empty, conditions free of "
    "side effects",
    "modelled-time": "CostTracker is charged only by the cost model "
    "(src/runtime/cost_model.cpp, src/runtime/tracker.cpp)",
    "one-thread-runtime": "no OpenMP (#pragma omp, omp_* calls, <omp.h>): "
    "threads come from support::parallel_for only",
}

# Files where reinterpret_cast is the point: byte-level serialization.
RAW_CAST_ALLOWED = (
    os.path.join("src", "runtime", "wire.cpp"),
    os.path.join("src", "mps", "io.cpp"),
)

# The only src/ files that may charge a CostTracker directly.
MODELLED_TIME_ALLOWED = (
    os.path.join("src", "runtime", "cost_model.cpp"),
    os.path.join("src", "runtime", "tracker.cpp"),
)

CXX_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc", ".hh")

# Seeded-violation fixtures for the linter's own test suite live here; they
# must never count against the real tree.
FIXTURE_DIR_MARKER = os.path.join("tests", "tools", "fixtures")

WAIVER_RE = re.compile(
    r"//\s*tt-lint:\s*allow\(([a-z0-9\-,\s]*)\)\s*(.*)$"
)


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Waiver:
    line: int  # the comment's own line, 1-based
    rules: list
    reason: str
    used: bool = False


@dataclass
class SourceFile:
    path: str
    rel: str
    raw_lines: list = field(default_factory=list)
    code_lines: list = field(default_factory=list)  # comments/strings stripped
    waivers: list = field(default_factory=list)

    @property
    def in_tests(self) -> bool:
        parts = self.rel.replace(os.sep, "/").split("/")
        return "tests" in parts


def strip_comments_and_strings(lines):
    """Blank comments; reduce string literals to "S" (non-empty) or "".

    Keeping the quotes and an emptiness marker lets check-macro distinguish
    ``TT_CHECK(c, "msg")`` from ``TT_CHECK(c, "")`` without string contents
    producing false token matches (e.g. the word "rand" inside a message).
    Line count and line numbers are preserved.
    """
    out = []
    in_block = False
    for line in lines:
        res = []
        i, n = 0, len(line)
        while i < n:
            if in_block:
                j = line.find("*/", i)
                if j < 0:
                    i = n
                else:
                    in_block = False
                    i = j + 2
                continue
            c = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if c == "/" and nxt == "/":
                break  # rest of line is a comment
            if c == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if c == '"' or c == "'":
                quote = c
                j = i + 1
                escaped = False
                body = 0
                while j < n:
                    cj = line[j]
                    if escaped:
                        escaped = False
                        body += 1
                    elif cj == "\\":
                        escaped = True
                    elif cj == quote:
                        break
                    else:
                        body += 1
                    j += 1
                res.append(quote + ("S" if body else "") + quote)
                i = j + 1 if j < n else n
                continue
            res.append(c)
            i += 1
        out.append("".join(res))
    return out


def load_file(path: str, rel: str) -> SourceFile:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        raw = f.read().splitlines()
    sf = SourceFile(path=path, rel=rel, raw_lines=raw)
    sf.code_lines = strip_comments_and_strings(raw)
    for idx, line in enumerate(raw, start=1):
        m = WAIVER_RE.search(line)
        if m:
            rules = [r.strip() for r in m.group(1).split(",") if r.strip()]
            sf.waivers.append(Waiver(line=idx, rules=rules, reason=m.group(2).strip()))
    return sf


def waiver_for(sf: SourceFile, rule: str, line: int):
    """A waiver covers its own line and the line directly below it."""
    for w in sf.waivers:
        if rule in w.rules and w.line in (line, line - 1):
            return w
    return None


def emit(findings, sf, rule, line, message):
    w = waiver_for(sf, rule, line)
    if w is not None:
        w.used = True
        return
    findings.append(Finding(sf.rel, line, rule, message))


# --------------------------------------------------------------------------
# ordered-iteration
# --------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;]*>\s*[&*]?\s*([A-Za-z_]\w*)\s*[;={(,\[]"
)
UNORDERED_TOKEN_RE = re.compile(r"\bunordered_(?:map|set)\s*<")


def sibling_header_names(sf: SourceFile, cache):
    """Names declared unordered in the paired header of a .cpp file."""
    base, ext = os.path.splitext(sf.path)
    if ext not in (".cpp", ".cc"):
        return set()
    for hext in (".hpp", ".h", ".hh"):
        hpath = base + hext
        if os.path.isfile(hpath):
            if hpath not in cache:
                names = set()
                hf = load_file(hpath, os.path.relpath(hpath))
                for line in hf.code_lines:
                    for m in UNORDERED_DECL_RE.finditer(line):
                        names.add(m.group(1))
                cache[hpath] = names
            return cache[hpath]
    return set()


def check_ordered_iteration(sf: SourceFile, findings, header_cache):
    if sf.in_tests:
        return  # tests may iterate freely: they never feed results or stats
    tracked = set(sibling_header_names(sf, header_cache))
    for idx, line in enumerate(sf.code_lines, start=1):
        if "#include" in line:
            continue
        if UNORDERED_TOKEN_RE.search(line):
            for m in UNORDERED_DECL_RE.finditer(line):
                tracked.add(m.group(1))
            emit(
                findings, sf, "ordered-iteration", idx,
                "unordered container declared in result-affecting code; "
                "iteration order is hash-dependent — justify with a waiver "
                "(lookup-only, sorted drain, ...) or use std::map/sorted vector",
            )
    if not tracked:
        return
    name_alt = "|".join(re.escape(n) for n in sorted(tracked))
    range_for = re.compile(
        r"for\s*\([^;)]*:\s*[^)]*\b(?:%s)\b" % name_alt
    )
    # .begin() signals iteration; bare .end() is the find()-comparison idiom
    # and stays legal.
    begin_call = re.compile(
        r"\b(?:%s)\b\s*(?:\[[^\]]*\])?\s*\.\s*c?begin\s*\(" % name_alt
    )
    for idx, line in enumerate(sf.code_lines, start=1):
        if range_for.search(line) or begin_call.search(line):
            emit(
                findings, sf, "ordered-iteration", idx,
                "iteration over an unordered container: element order is "
                "hash-dependent and can leak into results or stats",
            )


# --------------------------------------------------------------------------
# wire-bounds
# --------------------------------------------------------------------------

WIRE_LEN_ASSIGN_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*=\s*[A-Za-z_]\w*\s*\.\s*(?:u64|u32|i64)\s*\(\s*\)"
)
ALLOC_CALL_RE = re.compile(r"\b(?:reserve|resize)\s*\(")


def check_wire_bounds(sf: SourceFile, findings):
    if not any("WireReader" in line for line in sf.code_lines):
        return
    # Map wire-length variable -> line it was read on; cleared once validated.
    pending = {}
    for idx, line in enumerate(sf.code_lines, start=1):
        if "TT_CHECK" in line or "TT_ASSERT" in line:
            for name in list(pending):
                if re.search(r"\b%s\b" % re.escape(name), line):
                    del pending[name]
        for m in WIRE_LEN_ASSIGN_RE.finditer(line):
            pending[m.group(1)] = idx
        if not pending:
            continue
        alloc = ALLOC_CALL_RE.search(line)
        ctor = re.search(r"std::(?:vector|string)\s*<[^;]*>\s*\w+\s*\(", line)
        if alloc or ctor:
            tail = line[(alloc or ctor).end():]
            for name, read_line in pending.items():
                if re.search(r"\b%s\b" % re.escape(name), tail):
                    emit(
                        findings, sf, "wire-bounds", idx,
                        f"allocation sized by wire-read length '{name}' "
                        f"(read at line {read_line}) without a TT_CHECK "
                        "bound — a corrupt frame can demand gigabytes; "
                        "validate against remaining() first",
                    )


# --------------------------------------------------------------------------
# no-wallclock-random
# --------------------------------------------------------------------------

RANDOM_TOKENS = [
    (re.compile(r"\bstd::random_device\b|\brandom_device\b"),
     "std::random_device is a nondeterminism source"),
    (re.compile(r"\bsrand\s*\("), "srand() seeds global hidden state"),
    (re.compile(r"(?<![\w:])rand\s*\(\s*\)"), "rand() is unseeded global state"),
    (re.compile(r"\bstd::default_random_engine\b"),
     "default_random_engine has an implementation-defined default seed"),
    (re.compile(r"\bsystem_clock\b"),
     "wall-clock time in result-affecting code breaks reproducibility"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
     "time(nullptr) is a wall-clock seed"),
]
UNSEEDED_ENGINE_RE = re.compile(
    r"\b(?:std::)?(?:mt19937(?:_64)?|minstd_rand0?|ranlux(?:24|48)(?:_base)?|"
    r"knuth_b)\s+[A-Za-z_]\w*\s*;"
)


def check_no_wallclock_random(sf: SourceFile, findings):
    if sf.in_tests:
        return  # tests may use ad-hoc randomness; determinism is a src contract
    for idx, line in enumerate(sf.code_lines, start=1):
        if "#include" in line:
            continue
        for pat, why in RANDOM_TOKENS:
            if pat.search(line):
                emit(findings, sf, "no-wallclock-random", idx,
                     why + "; route randomness through an explicitly seeded "
                     "support::Rng")
        if UNSEEDED_ENGINE_RE.search(line):
            emit(findings, sf, "no-wallclock-random", idx,
                 "random engine declared without an explicit seed; the "
                 "default seed hides run-to-run divergence")


# --------------------------------------------------------------------------
# raw-cast-audit
# --------------------------------------------------------------------------


def check_raw_cast(sf: SourceFile, findings):
    allowed = any(sf.rel.endswith(suffix) for suffix in RAW_CAST_ALLOWED)
    if allowed:
        return
    for idx, line in enumerate(sf.code_lines, start=1):
        if "reinterpret_cast" in line:
            emit(findings, sf, "raw-cast-audit", idx,
                 "reinterpret_cast outside the wire/io serialization layer; "
                 "waive with the reason it is not type punning, or move the "
                 "conversion behind the serialization boundary")


# --------------------------------------------------------------------------
# check-macro
# --------------------------------------------------------------------------

CHECK_MACROS = ("TT_CHECK", "TT_ASSERT", "TT_FAIL")
SIDE_EFFECT_RE = re.compile(
    r"\+\+|--|(?:[+\-*/%&|^]|<<|>>)=(?!=)|(?<![=!<>+\-*/%&|^<])=(?![=])"
)


def split_top_level_args(text: str):
    args, depth, cur = [], 0, []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    args.append("".join(cur))
    return args


def extract_macro_calls(sf: SourceFile):
    """Yield (macro, start_line, arg_text) for each invocation, handling
    invocations that span lines. Works on the stripped code."""
    text = "\n".join(sf.code_lines)
    for m in re.finditer(r"\b(TT_CHECK|TT_ASSERT|TT_FAIL)\s*\(", text):
        # Skip the macro definitions themselves (#define TT_CHECK...).
        line_start = text.rfind("\n", 0, m.start()) + 1
        if text[line_start:m.start()].lstrip().startswith("#define"):
            continue
        depth = 1
        i = m.end()
        while i < len(text) and depth:
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
            i += 1
        if depth:
            continue  # unbalanced; give up on this site
        start_line = text.count("\n", 0, m.start()) + 1
        yield m.group(1), start_line, text[m.end():i - 1]


def check_check_macro(sf: SourceFile, findings):
    if sf.rel.replace(os.sep, "/").endswith("support/error.hpp"):
        return  # the macro definitions themselves
    for macro, line, argtext in extract_macro_calls(sf):
        args = split_top_level_args(argtext)
        if macro == "TT_FAIL":
            msg_args = args
        else:
            cond = args[0]
            msg_args = args[1:]
            if SIDE_EFFECT_RE.search(cond):
                emit(findings, sf, "check-macro", line,
                     f"{macro} condition contains ++/--/assignment; checks "
                     "must be side-effect free so behaviour cannot depend on "
                     "whether the check runs")
        joined = "".join(a.strip() for a in msg_args)
        if not joined or joined == '""' or set(joined) <= {'"', "<", " "}:
            emit(findings, sf, "check-macro", line,
                 f"{macro} has no message; the check string is the only "
                 "diagnostic a failing rank ships home — say what invariant "
                 "broke and include the offending values")


# --------------------------------------------------------------------------
# modelled-time
# --------------------------------------------------------------------------

TRACKER_CHARGE_RE = re.compile(
    r"(?:\.|->)\s*(add_(?:time|flops|words|supersteps))\s*\(")


def check_modelled_time(sf: SourceFile, findings):
    rel = sf.rel.replace(os.sep, "/")
    if not rel.startswith("src/") or any(
            sf.rel.endswith(suffix) for suffix in MODELLED_TIME_ALLOWED):
        return
    for idx, line in enumerate(sf.code_lines, start=1):
        for m in TRACKER_CHARGE_RE.finditer(line):
            emit(findings, sf, "modelled-time", idx,
                 f"{m.group(1)} outside the cost model; a CostTracker holds "
                 "modelled cost only — price the operation in "
                 "runtime/cost_model.cpp, or merge() a side engine's tracker")


# --------------------------------------------------------------------------
# one-thread-runtime
# --------------------------------------------------------------------------

OPENMP_RES = (
    re.compile(r"#\s*pragma\s+omp\b"),
    re.compile(r"\bomp_\w+\s*\("),
    re.compile(r"#\s*include\s*<omp\.h>"),
)


def check_one_thread_runtime(sf: SourceFile, findings):
    for idx, line in enumerate(sf.code_lines, start=1):
        if any(pat.search(line) for pat in OPENMP_RES):
            emit(findings, sf, "one-thread-runtime", idx,
                 "OpenMP starts threads that TT_THREADS does not cap; thread "
                 "the loop through support::parallel_for (which nests inline "
                 "inside a region) or leave it serial")


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------


def iter_source_files(paths, repo_root):
    for p in paths:
        ap = os.path.join(repo_root, p) if not os.path.isabs(p) else p
        if os.path.isfile(ap):
            yield ap
            continue
        for dirpath, dirnames, filenames in os.walk(ap):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTENSIONS):
                    yield os.path.join(dirpath, fn)


def lint_paths(paths, repo_root, include_fixtures=False):
    findings = []
    header_cache = {}
    files = []
    for path in iter_source_files(paths, repo_root):
        rel = os.path.relpath(path, repo_root)
        if not include_fixtures and FIXTURE_DIR_MARKER in rel:
            continue
        files.append(load_file(path, rel))
    for sf in files:
        check_ordered_iteration(sf, findings, header_cache)
        check_wire_bounds(sf, findings)
        check_no_wallclock_random(sf, findings)
        check_raw_cast(sf, findings)
        check_check_macro(sf, findings)
        check_modelled_time(sf, findings)
        check_one_thread_runtime(sf, findings)
        for w in sf.waivers:
            unknown = [r for r in w.rules if r not in RULES]
            if unknown or not w.rules:
                findings.append(Finding(
                    sf.rel, w.line, "unknown-rule",
                    f"waiver names unknown rule(s): {', '.join(unknown) or '(none)'}"
                    f" — valid rules: {', '.join(sorted(RULES))}"))
            elif not w.reason:
                findings.append(Finding(
                    sf.rel, w.line, "bare-waiver",
                    "waiver has no reason; explain why the invariant holds"))
            elif not w.used:
                findings.append(Finding(
                    sf.rel, w.line, "unused-waiver",
                    "waiver suppresses nothing; delete it so the audit trail "
                    "stays honest"))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="tt_lint.py",
        description="repo-specific determinism lint (see module docstring)")
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories to lint (default: src tests)")
    ap.add_argument("--repo-root", default=None,
                    help="repository root (default: parent of tools/)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--include-fixtures", action="store_true",
                    help="also lint tests/tools/fixtures (used by the "
                    "linter's own tests)")
    args = ap.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            print(f"{name:20s} {RULES[name]}")
        return 0

    repo_root = args.repo_root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    paths = args.paths or ["src", "tests"]
    findings = lint_paths(paths, repo_root, include_fixtures=args.include_fixtures)
    for f in findings:
        print(f.format())
    if findings:
        print(f"tt_lint: {len(findings)} finding(s)")
        return 1
    print("tt_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
