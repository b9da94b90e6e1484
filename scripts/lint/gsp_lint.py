#!/usr/bin/env python3
"""gsp_lint: the project's invariant linter.

One checker per contract annotation in src/util/annotations.hpp, plus two
global checks; the static-analysis CI job (and the lint_test CTest entry)
run it at zero findings over src/.

Checks
------
  gsp-hot-path-alloc   GSP_HOT_PATH function bodies must not allocate
                       (new / malloc / make_unique / make_shared) or call
                       std::stable_sort-class temporary-buffer algorithms.
  gsp-decision-pure    GSP_DECISION_PURE function bodies must not iterate
                       unordered containers, order by pointer value, or
                       consume rand/time/address entropy (including the
                       project's Timer stopwatch, util/timer.hpp).
  gsp-serial-only      GSP_SERIAL_ONLY functions must not be called inside
                       a ThreadPool task body (the argument list of a
                       `*pool*.run(...)` fan-out).
  gsp-relaxed-atomic   `memory_order_relaxed` is allowed only in the
                       commutative verdict-bitset code of
                       src/core/prefilter_stage.hpp; every other use needs
                       an explicit suppression arguing commutativity.
  gsp-no-fma           std::fma / FMA intrinsics are banned under src/simd/
                       and inside GSP_DECISION_PURE functions: a fused
                       multiply-add rounds once where
                       EuclideanMetric::distance rounds twice, so batched
                       distances would stop being bitwise equal to it.

Suppressions
------------
A finding is suppressed by a comment on the same line or the line above:

    // gsp-lint: allow(gsp-relaxed-atomic) monotone stats counter
    // gsp-lint: allow(all) reason...

Engines
-------
  --engine textual  (default fallback) a comment/string-stripping tokenizer
                    that keys on the annotation macro tokens directly. No
                    dependencies; what CI gates on.
  --engine clang    cursor-walking discovery over libclang (python3-clang /
                    pip `libclang`): annotations are found via the
                    annotate attributes the macros expand to under clang.
                    Pass --compdb so each file is parsed with its real
                    flags.
  --engine auto     clang when importable, else textual.

Pointing tools at the compilation database
------------------------------------------
Configure with `cmake -B build -S .` -- CMakeLists.txt sets
CMAKE_EXPORT_COMPILE_COMMANDS, so build/compile_commands.json appears
unconditionally. Then:

    python3 scripts/lint/gsp_lint.py --compdb build/compile_commands.json
    clang-tidy -p build $(git ls-files 'src/*.cpp')

Exit status: 0 on zero (unsuppressed, non-baseline) findings, 1 otherwise.
"""

from __future__ import annotations

import argparse
import bisect
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

CXX_EXTENSIONS = {".hpp", ".cpp", ".h", ".cc", ".cxx", ".hh"}

FUNCTION_MACROS = ("GSP_HOT_PATH", "GSP_DECISION_PURE", "GSP_SERIAL_ONLY")

# Files where memory_order_relaxed is legitimate without a suppression:
# the verdict bitsets' commutative fetch_or writes (and their reads).
RELAXED_WHITELIST = ("src/core/prefilter_stage.hpp",)

ALL_CHECKS = (
    "gsp-hot-path-alloc",
    "gsp-decision-pure",
    "gsp-serial-only",
    "gsp-relaxed-atomic",
    "gsp-no-fma",
)

SUPPRESS_RE = re.compile(r"gsp-lint:\s*allow\(([a-z,\- ]+)\)")

# --------------------------------------------------------------- findings


class Finding:
    __slots__ = ("path", "line", "check", "message", "line_text")

    def __init__(self, path: Path, line: int, check: str, message: str,
                 line_text: str) -> None:
        self.path = path
        self.line = line
        self.check = check
        self.message = message
        self.line_text = line_text

    def render(self) -> str:
        rel = relpath(self.path)
        return f"{rel}:{self.line}: [{self.check}] {self.message}"

    def baseline_key(self) -> str:
        return f"{self.check}|{relpath(self.path)}|{self.line_text.strip()}"


def relpath(path: Path) -> str:
    try:
        return path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return path.as_posix()


# ----------------------------------------------------------- source model


class Source:
    """One file: raw text, comment/string/preproc-stripped code (same
    offsets), line table, and suppression map."""

    def __init__(self, path: Path, text: str) -> None:
        self.path = path
        self.text = text
        self.code = strip_code(text)
        self.newlines = [i for i, ch in enumerate(text) if ch == "\n"]
        self.suppressed: dict[int, set[str]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            m = SUPPRESS_RE.search(line)
            if m:
                checks = {c.strip() for c in m.group(1).split(",") if c.strip()}
                # A suppression covers its own line and the next one (the
                # comment-above-the-statement form).
                for target in (lineno, lineno + 1):
                    self.suppressed.setdefault(target, set()).update(checks)

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self.newlines, offset - 1) + 1

    def line_text(self, lineno: int) -> str:
        lines = self.text.splitlines()
        return lines[lineno - 1] if 1 <= lineno <= len(lines) else ""

    def is_suppressed(self, lineno: int, check: str) -> bool:
        allowed = self.suppressed.get(lineno, set())
        return check in allowed or "all" in allowed


def strip_code(text: str) -> str:
    """Blank out comments, string/char literals, and preprocessor
    directives, preserving offsets and newlines."""
    out = list(text)
    i, n = 0, len(text)

    def blank(a: int, b: int) -> None:
        for j in range(a, b):
            if out[j] != "\n":
                out[j] = " "

    at_line_start = True
    while i < n:
        ch = text[i]
        if at_line_start and ch in " \t":
            i += 1
            continue
        if at_line_start and ch == "#":
            # Preprocessor directive, including continuation lines.
            start = i
            while i < n:
                if text[i] == "\n" and not (i > 0 and text[i - 1] == "\\"):
                    break
                i += 1
            blank(start, i)
            continue
        at_line_start = ch == "\n"
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            start = i
            while i < n and text[i] != "\n":
                i += 1
            blank(start, i)
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            start = i
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                i += 1
            i = min(i + 2, n)
            blank(start, i)
            continue
        if ch == "R" and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m:
                terminator = ")" + m.group(1) + '"'
                end = text.find(terminator, i + m.end())
                end = n if end < 0 else end + len(terminator)
                blank(i, end)
                i = end
                continue
        if ch in "\"'":
            start = i
            quote = ch
            i += 1
            while i < n and text[i] != quote:
                i += 2 if text[i] == "\\" else 1
            i = min(i + 1, n)
            # Keep the quotes so tokenization sees literal boundaries.
            blank(start + 1, i - 1)
            continue
        i += 1
    return "".join(out)


# ----------------------------------------------------- textual discovery


class AnnotatedFunction:
    __slots__ = ("macro", "name", "source", "line", "body")

    def __init__(self, macro: str, name: str, source: Source, line: int,
                 body: tuple[int, int] | None) -> None:
        self.macro = macro
        self.name = name
        self.source = source
        self.line = line
        self.body = body  # (open_brace, close_brace) offsets, or None


IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def match_brace(code: str, open_at: int) -> int:
    depth = 0
    for i in range(open_at, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code) - 1


def parse_function_annotation(src: Source, macro: str,
                              at: int) -> AnnotatedFunction | None:
    """From a macro occurrence, locate the annotated function's name and
    (for definitions) its body extent."""
    code = src.code
    i = at + len(macro)
    depth = 0
    last_paren_ident = None
    last_ident = None
    while i < len(code):
        ch = code[i]
        if ch == "(":
            if depth == 0 and last_ident is not None:
                last_paren_ident = last_ident
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            if ch == "{":
                if last_paren_ident is None:
                    return None
                body = (i, match_brace(code, i))
                return AnnotatedFunction(macro, last_paren_ident, src,
                                         src.line_of(at), body)
            if ch in ";}":
                if last_paren_ident is None:
                    return None
                return AnnotatedFunction(macro, last_paren_ident, src,
                                         src.line_of(at), None)
            if ch.isalpha() or ch == "_":
                m = IDENT_RE.match(code, i)
                assert m is not None
                if m.group(0) not in ("const", "noexcept", "override",
                                      "final", "constexpr", "inline",
                                      "static", "nodiscard", "maybe_unused"):
                    last_ident = m.group(0)
                i = m.end()
                continue
        i += 1
    return None


def discover_textual(sources: list[Source]):
    functions: list[AnnotatedFunction] = []
    problems: list[Finding] = []
    for src in sources:
        for macro in FUNCTION_MACROS:
            for m in re.finditer(rf"\b{macro}\b", src.code):
                fn = parse_function_annotation(src, macro, m.start())
                if fn is None:
                    problems.append(Finding(
                        src.path, src.line_of(m.start()), "gsp-" +
                        macro.removeprefix("GSP_").lower().replace("_", "-"),
                        f"could not attach {macro} to a function declaration",
                        src.line_text(src.line_of(m.start()))))
                else:
                    functions.append(fn)
    return functions, problems


# ------------------------------------------------------- clang discovery


def discover_clang(sources: list[Source], compdb_path: Path | None,
                   extra_args: list[str]):
    """Cursor-walking discovery: the macros expand to annotate attributes
    under clang (-DGSP_LINT), so annotated functions are found
    by walking each translation unit. Falls back per-file to textual on
    parse setup errors."""
    import clang.cindex as ci  # noqa: deferred; availability gated by caller

    tag_to_macro = {
        "gsp::hot_path": "GSP_HOT_PATH",
        "gsp::decision_pure": "GSP_DECISION_PURE",
        "gsp::serial_only": "GSP_SERIAL_ONLY",
    }
    compdb = None
    if compdb_path is not None and compdb_path.exists():
        try:
            compdb = ci.CompilationDatabase.fromDirectory(str(compdb_path.parent))
        except ci.CompilationDatabaseError:
            compdb = None

    index = ci.Index.create()
    by_path = {src.path.resolve(): src for src in sources}
    functions: list[AnnotatedFunction] = []
    problems: list[Finding] = []

    def args_for(path: Path) -> list[str]:
        base = ["-x", "c++", "-std=c++20", f"-I{REPO_ROOT / 'src'}",
                "-DGSP_LINT"]
        if compdb is not None:
            for cmd in compdb.getCompileCommands(str(path)) or []:
                got = list(cmd.arguments)[1:-1]  # drop compiler and file
                return [a for a in got if a != "-c" and a != str(path)] + [
                    "-DGSP_LINT"]
        return base + extra_args

    def annotate_tags(cursor) -> list[str]:
        return [child.spelling for child in cursor.get_children()
                if child.kind == ci.CursorKind.ANNOTATE_ATTR]

    def walk(cursor, src: Source) -> None:
        for node in cursor.walk_preorder():
            loc = node.location
            if loc.file is None or Path(loc.file.name).resolve() != src.path.resolve():
                continue
            if node.kind in (ci.CursorKind.FUNCTION_DECL,
                             ci.CursorKind.CXX_METHOD,
                             ci.CursorKind.FUNCTION_TEMPLATE,
                             ci.CursorKind.CONSTRUCTOR):
                for tag in annotate_tags(node):
                    macro = tag_to_macro.get(tag)
                    if macro is None:
                        continue
                    body = None
                    if node.is_definition():
                        ext = node.extent
                        open_at = src.text.find("{", ext.start.offset)
                        if 0 <= open_at < ext.end.offset:
                            body = (open_at, ext.end.offset)
                    functions.append(AnnotatedFunction(
                        macro, node.spelling, src, loc.line, body))

    for src in sources:
        try:
            tu = index.parse(str(src.path), args=args_for(src.path))
            walk(tu.cursor, src)
        except Exception:  # pragma: no cover - environment-specific
            got_f, got_p = discover_textual([src])
            functions.extend(got_f)
            problems.extend(got_p)
    return functions, problems


# ----------------------------------------------------------- the checks


def body_scan(fn: AnnotatedFunction, check: str,
              deny: list[tuple[re.Pattern, str]]) -> list[Finding]:
    if fn.body is None:
        return []
    lo, hi = fn.body
    segment = fn.source.code[lo:hi]
    findings = []
    for pattern, why in deny:
        for m in pattern.finditer(segment):
            line = fn.source.line_of(lo + m.start())
            findings.append(Finding(
                fn.source.path, line, check,
                f"{why} in {fn.macro} function '{fn.name}'",
                fn.source.line_text(line)))
    return findings


HOT_PATH_DENY = [
    (re.compile(r"\bnew\b"), "heap allocation (new-expression)"),
    (re.compile(r"\b(?:malloc|calloc|realloc)\s*\("), "heap allocation"),
    (re.compile(r"\bmake_(?:unique|shared)\b"), "heap allocation"),
    (re.compile(r"\b(?:stable_sort|stable_partition|inplace_merge)\b"),
     "temporary-buffer algorithm"),
]

DECISION_PURE_DENY = [
    (re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b"),
     "unordered-container iteration order is run-dependent"),
    (re.compile(r"\b(?:rand|srand|random_device)\b"),
     "entropy source"),
    (re.compile(r"\b(?:steady_clock|system_clock|high_resolution_clock)\b"),
     "clock read"),
    (re.compile(r"::\s*now\s*\("), "clock read"),
    # util/timer.hpp's steady_clock stopwatch: the textual scanner cannot
    # see through the type to the clock it reads.
    (re.compile(r"\bTimer\b"), "clock read (Timer stopwatch)"),
    (re.compile(r"\breinterpret_cast\s*<\s*(?:std\s*::\s*)?u?intptr_t\b"),
     "address-based value (pointer-keyed ordering/seeding)"),
    (re.compile(r"\bless\s*<[^<>;]*\*\s*>"), "pointer-keyed ordering"),
]

FMA_DENY = [
    (re.compile(r"\bfma[fl]?\s*\("), "FP-contracted fused multiply-add"),
    (re.compile(r"\b_mm\w*fn?m(?:add|sub)\w*\b"), "FMA intrinsic"),
]


def check_hot_path(functions) -> list[Finding]:
    out = []
    for fn in functions:
        if fn.macro == "GSP_HOT_PATH":
            out.extend(body_scan(fn, "gsp-hot-path-alloc", HOT_PATH_DENY))
    return out


def check_decision_pure(functions) -> list[Finding]:
    out = []
    for fn in functions:
        if fn.macro == "GSP_DECISION_PURE":
            out.extend(body_scan(fn, "gsp-decision-pure", DECISION_PURE_DENY))
    return out


def check_no_fma(functions, sources) -> list[Finding]:
    out = []
    for fn in functions:
        if fn.macro == "GSP_DECISION_PURE":
            out.extend(body_scan(fn, "gsp-no-fma", FMA_DENY))
    for src in sources:
        if "/simd/" not in src.path.resolve().as_posix():
            continue
        for pattern, why in FMA_DENY:
            for m in pattern.finditer(src.code):
                line = src.line_of(m.start())
                out.append(Finding(src.path, line, "gsp-no-fma",
                                   f"{why} under src/simd/ (kernels must stay "
                                   "mul-then-add, bitwise equal to "
                                   "EuclideanMetric::distance)",
                                   src.line_text(line)))
    return out


POOL_RUN_RE = re.compile(r"\b\w*pool\w*\s*(?:\.|->)\s*run\s*\(", re.IGNORECASE)


def check_serial_only(functions, sources) -> list[Finding]:
    serial_names = {fn.name for fn in functions if fn.macro == "GSP_SERIAL_ONLY"}
    if not serial_names:
        return []
    call_res = {name: re.compile(rf"\b{re.escape(name)}\s*\(")
                for name in serial_names}
    out = []
    for src in sources:
        for m in POOL_RUN_RE.finditer(src.code):
            open_at = src.code.index("(", m.end() - 1)
            close_at = match_paren(src.code, open_at)
            body = src.code[open_at:close_at]
            for name, call_re in call_res.items():
                for call in call_re.finditer(body):
                    line = src.line_of(open_at + call.start())
                    out.append(Finding(
                        src.path, line, "gsp-serial-only",
                        f"GSP_SERIAL_ONLY function '{name}' called inside a "
                        "thread-pool task body",
                        src.line_text(line)))
    return out


def match_paren(code: str, open_at: int) -> int:
    depth = 0
    for i in range(open_at, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(code) - 1


RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")


def check_relaxed_atomic(sources) -> list[Finding]:
    out = []
    for src in sources:
        rel = relpath(src.path)
        if any(rel.endswith(white) for white in RELAXED_WHITELIST):
            continue
        for m in RELAXED_RE.finditer(src.code):
            line = src.line_of(m.start())
            out.append(Finding(
                src.path, line, "gsp-relaxed-atomic",
                "memory_order_relaxed outside the commutative verdict-bitset "
                "whitelist (core/prefilter_stage.hpp); suppress with a "
                "commutativity argument if sound",
                src.line_text(line)))
    return out


# ----------------------------------------------------------------- main


def collect_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    if not paths:
        paths = [str(REPO_ROOT / "src")]
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(f for f in p.rglob("*")
                                if f.suffix in CXX_EXTENSIONS))
        elif p.exists():
            files.append(p)
        else:
            print(f"gsp_lint: no such file: {raw}", file=sys.stderr)
            sys.exit(2)
    seen = set()
    unique = []
    for f in files:
        r = f.resolve()
        if r not in seen:
            seen.add(r)
            unique.append(f)
    return unique


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="gsp_lint.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: src/)")
    parser.add_argument("--engine", choices=("auto", "textual", "clang"),
                        default="auto",
                        help="annotation discovery engine (default: auto = "
                             "clang when python libclang bindings import, "
                             "else the dependency-free textual engine)")
    parser.add_argument("--compdb", type=Path,
                        default=REPO_ROOT / "build" / "compile_commands.json",
                        help="compile_commands.json exported by CMake "
                             "(CMAKE_EXPORT_COMPILE_COMMANDS is ON by "
                             "default; configure any build dir and point "
                             "this at it). Used by the clang engine for "
                             "per-file flags.")
    parser.add_argument("--extra-arg", action="append", default=[],
                        help="extra compiler arg for the clang engine "
                             "(repeatable)")
    parser.add_argument("--baseline", type=Path,
                        help="suppress findings recorded in this baseline "
                             "file (see --write-baseline)")
    parser.add_argument("--write-baseline", type=Path,
                        help="record current findings as the baseline and "
                             "exit 0")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the check names and exit")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the summary line")
    args = parser.parse_args(argv)

    if args.list_checks:
        for check in ALL_CHECKS:
            print(check)
        return 0

    engine = args.engine
    if engine == "auto":
        try:
            import clang.cindex  # noqa: F401
            engine = "clang"
        except ImportError:
            engine = "textual"

    files = collect_files(args.paths)
    sources = []
    for f in files:
        try:
            sources.append(Source(f, f.read_text(encoding="utf-8",
                                                 errors="replace")))
        except OSError as err:
            print(f"gsp_lint: cannot read {f}: {err}", file=sys.stderr)
            return 2

    if engine == "clang":
        functions, findings = discover_clang(sources, args.compdb,
                                                     args.extra_arg)
    else:
        functions, findings = discover_textual(sources)

    findings += check_hot_path(functions)
    findings += check_decision_pure(functions)
    findings += check_no_fma(functions, sources)
    findings += check_serial_only(functions, sources)
    findings += check_relaxed_atomic(sources)

    by_src = {src.path.resolve(): src for src in sources}
    findings = [f for f in findings
                if not by_src[f.path.resolve()].is_suppressed(f.line, f.check)]

    if args.write_baseline:
        keys = sorted(f.baseline_key() for f in findings)
        args.write_baseline.write_text(json.dumps(keys, indent=1) + "\n")
        if not args.quiet:
            print(f"gsp_lint: baseline of {len(keys)} findings written to "
                  f"{args.write_baseline}")
        return 0

    if args.baseline and args.baseline.exists():
        budget: dict[str, int] = {}
        for key in json.loads(args.baseline.read_text()):
            budget[key] = budget.get(key, 0) + 1
        fresh = []
        for f in findings:
            key = f.baseline_key()
            if budget.get(key, 0) > 0:
                budget[key] -= 1
            else:
                fresh.append(f)
        findings = fresh

    findings.sort(key=lambda f: (relpath(f.path), f.line, f.check))
    for f in findings:
        print(f.render())
    if not args.quiet:
        checked = len(sources)
        print(f"gsp_lint[{engine}]: {len(findings)} finding(s) over "
              f"{checked} file(s), {len(functions)} annotated function(s)",
              file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
