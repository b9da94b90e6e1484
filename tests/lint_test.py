#!/usr/bin/env python3
"""Self-test for scripts/lint/gsp_lint.py, run as a CTest entry.

Three layers:
  1. golden bad fixtures under tests/lint_fixtures/ -- each must trigger
     EXACTLY its own check (right file, right check name, nothing else);
  2. the clean and suppressed fixtures must be silent (exit 0, no findings);
  3. the real tree at head (src/) must lint at zero findings, so a
     regression in either the code or the linter fails the suite.

Runs the dependency-free textual engine explicitly: it is what CI gates
on, so it is what the fixtures pin down.
"""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
LINTER = REPO_ROOT / "scripts" / "lint" / "gsp_lint.py"
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

# fixture file(s) -> the one check expected to fire there.
BAD_CASES = [
    (["bad_hot_path_alloc.cpp"], "gsp-hot-path-alloc", "bad_hot_path_alloc.cpp"),
    (["bad_decision_pure.cpp"], "gsp-decision-pure", "bad_decision_pure.cpp"),
    (["bad_serial_only.cpp"], "gsp-serial-only", "bad_serial_only.cpp"),
    (["bad_relaxed_atomic.cpp"], "gsp-relaxed-atomic", "bad_relaxed_atomic.cpp"),
    (["bad_no_fma.cpp"], "gsp-no-fma", "bad_no_fma.cpp"),
]

SILENT_CASES = [["clean.cpp"], ["suppressed.cpp"]]

FINDING_RE = re.compile(r"^(?P<path>\S+?):(?P<line>\d+): \[(?P<check>[a-z\-]+)\]")

failures = []


def run_linter(args):
    proc = subprocess.run(
        [sys.executable, str(LINTER), "--engine", "textual", "-q", *args],
        capture_output=True, text=True, cwd=REPO_ROOT)
    findings = [m.groupdict() for line in proc.stdout.splitlines()
                if (m := FINDING_RE.match(line.strip()))]
    return proc, findings


def check(cond, label):
    status = "ok" if cond else "FAIL"
    print(f"  [{status}] {label}")
    if not cond:
        failures.append(label)


def main():
    if not LINTER.exists():
        print(f"lint_test: missing {LINTER}", file=sys.stderr)
        return 1

    print("== golden bad fixtures: each triggers exactly its check ==")
    for files, expect_check, expect_file in BAD_CASES:
        proc, findings = run_linter([str(FIXTURES / f) for f in files])
        label = f"{'+'.join(files)} -> [{expect_check}]"
        wrong = [f for f in findings
                 if f["check"] != expect_check
                 or Path(f["path"]).name != expect_file]
        check(proc.returncode == 1 and len(findings) >= 1 and not wrong,
              f"{label} (rc={proc.returncode}, findings={len(findings)}, "
              f"offtarget={len(wrong)})")
        if wrong:
            for f in wrong:
                print(f"    off-target: {f['path']}:{f['line']} "
                      f"[{f['check']}]")

    print("== clean / suppressed fixtures: silent ==")
    for files in SILENT_CASES:
        proc, findings = run_linter([str(FIXTURES / f) for f in files])
        check(proc.returncode == 0 and not findings,
              f"{'+'.join(files)} silent (rc={proc.returncode}, "
              f"findings={len(findings)})")

    print("== baseline round-trip: recorded findings stop counting ==")
    with tempfile.TemporaryDirectory() as tmp:
        baseline = Path(tmp) / "baseline.json"
        bad = str(FIXTURES / "bad_relaxed_atomic.cpp")
        proc, _ = run_linter([bad, "--write-baseline", str(baseline)])
        keys = json.loads(baseline.read_text()) if baseline.exists() else []
        check(proc.returncode == 0 and len(keys) == 1,
              f"--write-baseline records 1 key (rc={proc.returncode}, "
              f"keys={len(keys)})")
        proc, findings = run_linter([bad, "--baseline", str(baseline)])
        check(proc.returncode == 0 and not findings,
              f"--baseline suppresses it (rc={proc.returncode}, "
              f"findings={len(findings)})")

    print("== tree at head: src/ lints at zero findings ==")
    proc, findings = run_linter([str(REPO_ROOT / "src")])
    check(proc.returncode == 0 and not findings,
          f"src/ clean (rc={proc.returncode}, findings={len(findings)})")
    for f in findings[:20]:
        print(f"    {f['path']}:{f['line']} [{f['check']}]")

    if failures:
        print(f"lint_test: {len(failures)} FAILURE(S)")
        return 1
    print("lint_test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
