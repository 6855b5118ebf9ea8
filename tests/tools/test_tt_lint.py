#!/usr/bin/env python3
"""Golden tests for tools/tt_lint.py, run as the `tools/tt_lint` ctest entry.

Three layers:
  1. The real tree lints clean (exit 0) — the determinism contract holds on
     every commit, not just the one that introduced the linter.
  2. The fixture mini-repo under tests/tools/fixtures/ (its own src/ and
     tests/ so per-rule scoping is exercised) produces EXACTLY the findings
     marked inline: `EXPECT(rule)` anchors a finding to its own line,
     `EXPECT-NEXT(rule)` to the following line. Extra or missing findings
     both fail.
  3. Each violating fixture, linted alone, exits non-zero — seeded
     violations cannot pass individually either.

Usage: test_tt_lint.py <repo-root>
"""

import glob
import os
import re
import subprocess
import sys
from collections import Counter

EXPECT_RE = re.compile(r"EXPECT\(([a-z\-]+)\)")
EXPECT_NEXT_RE = re.compile(r"EXPECT-NEXT\(([a-z\-]+)\)")
FINDING_RE = re.compile(r"^(.*?):(\d+): \[([a-z\-]+)\]")


def run_lint(repo_root, args):
    tool = os.path.join(repo_root, "tools", "tt_lint.py")
    return subprocess.run(
        [sys.executable, tool, "--repo-root"] + args,
        capture_output=True, text=True)


def collect_expected(fixture_root):
    expected = Counter()
    for dirpath, _, filenames in os.walk(fixture_root):
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            rel = os.path.relpath(path, fixture_root)
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, start=1):
                    for m in EXPECT_RE.finditer(line):
                        expected[(rel, lineno, m.group(1))] += 1
                    for m in EXPECT_NEXT_RE.finditer(line):
                        expected[(rel, lineno + 1, m.group(1))] += 1
    return expected


def parse_findings(stdout):
    found = Counter()
    for line in stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            found[(m.group(1), int(m.group(2)), m.group(3))] += 1
    return found


def fail(msg):
    print("FAIL:", msg)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail("usage: test_tt_lint.py <repo-root>")
    repo_root = os.path.abspath(sys.argv[1])
    fixture_root = os.path.join(repo_root, "tests", "tools", "fixtures")

    # 1. The real tree is clean: the library, its tests, the examples and the
    #    figure drivers (bench/e2e/ is not linted yet).
    bench = sorted(os.path.relpath(p, repo_root) for p in
                   glob.glob(os.path.join(repo_root, "bench", "bench_*.cpp")))
    res = run_lint(repo_root, [repo_root, "src", "tests", "examples",
                               "bench/common.cpp", "bench/common.hpp"] + bench)
    if res.returncode != 0:
        fail("real tree should lint clean but exited %d:\n%s"
             % (res.returncode, res.stdout + res.stderr))
    print("PASS: real tree lints clean")

    # 2. Fixture findings match the inline EXPECT markers exactly.
    expected = collect_expected(fixture_root)
    if not expected:
        fail("no EXPECT markers found under %s" % fixture_root)
    res = run_lint(repo_root, [fixture_root, "src", "tests"])
    if res.returncode == 0:
        fail("fixture tree should produce findings but linted clean")
    found = parse_findings(res.stdout)
    if found != expected:
        missing = expected - found
        extra = found - expected
        lines = []
        for key, n in sorted(missing.items()):
            lines.append("  missing (%dx): %s:%d [%s]" % (n, *key))
        for key, n in sorted(extra.items()):
            lines.append("  unexpected (%dx): %s:%d [%s]" % (n, *key))
        fail("fixture findings diverge from EXPECT markers:\n" + "\n".join(lines))
    print("PASS: fixture findings match %d EXPECT markers exactly"
          % sum(expected.values()))

    # 3. Every violating fixture fails on its own.
    violating = sorted({rel for (rel, _, _) in expected})
    for rel in violating:
        res = run_lint(repo_root, [fixture_root, rel])
        if res.returncode == 0:
            fail("fixture %s should exit non-zero when linted alone" % rel)
    print("PASS: each of %d violating fixtures fails individually"
          % len(violating))

    # 4. Clean fixtures (waived/allowlisted) pass alone: waivers suppress.
    for rel in ("src/waived_ok.cpp", os.path.join("src", "runtime", "wire.cpp"),
                os.path.join("src", "runtime", "cost_model.cpp"),
                os.path.join("src", "dmrg", "replay.cpp")):
        res = run_lint(repo_root, [fixture_root, rel])
        if res.returncode != 0:
            fail("fixture %s should lint clean:\n%s" % (rel, res.stdout))
    print("PASS: waived and allowlisted fixtures lint clean")

    print("OK")


if __name__ == "__main__":
    main()
