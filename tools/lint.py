#!/usr/bin/env python3
"""TeamNet repo-specific lint rules (see DESIGN.md "Correctness tooling").

Rules enforced over src/** (tests/bench/examples are exempt unless noted):

  raw-cast       Byte-pointer reinterpret_casts are only allowed inside
                 src/common/raw_bytes.hpp. Everything else must use the
                 write_raw/read_raw helpers, which static_assert
                 trivially-copyable and bounds-check every read.

  module-deps    A module may #include only its own headers and those of
                 modules its CMake target links against. Reaching across
                 library boundaries (e.g. nn/ including net/) knots the
                 dependency graph and breaks standalone module builds.

  errno-capture  errno may only be read by saving it into a local
                 (`const int err = errno;`) immediately after the failing
                 call. Comparing or formatting errno later is a bug:
                 close(), setsockopt(), even allocation can clobber it.

  raw-mutex      Raw std::mutex / std::lock_guard / std::unique_lock /
                 std::scoped_lock / std::condition_variable are only
                 allowed inside src/common/annotations.hpp. Everything
                 else must use the annotated Mutex/MutexLock/CondVar
                 wrappers so clang's -Wthread-safety capability analysis
                 (TEAMNET_THREAD_SAFETY=ON) sees every lock in the tree.

  thread-detach  std::thread::detach() is forbidden REPO-WIDE (src, tests,
                 bench, examples, fuzz): a detached thread outlives scope
                 invisibly, races process teardown, and breaks the
                 close-then-join error-recovery discipline the scenario
                 and transport layers rely on. Threads are always joined.

  wall-clock-in-sim  Wall-clock reads (std::chrono::*_clock::now) and real
                 sleeps (sleep_for / sleep_until) are forbidden in the
                 virtual-time surfaces: src/sim/** (including the sim/des
                 engine), src/obs/**, src/load/**, src/net/link.* (the
                 link math) and bench/**.
                 One wall-clock read in a scenario driver, trace/metrics
                 sink or bench silently breaks the bit-stability the
                 determinism CI gate enforces; time must come from
                 des::Engine (or an injected time source).

  (retired) naked-recv — the token-level bare-recv() rule moved to the
                 deep tier: tools/analyze.py's `unbounded-wait` pass flags
                 the same direct recv()/pop() sites AST-aware (immune to
                 comments/strings, knows the _timeout variants), and its
                 interprocedural `block-under-lock` pass covers the wrapper
                 blind spots a line regex never could. lint.py stays the
                 fast pre-commit tier (token rules, no build needed);
                 analyze.py is the whole-program tier (DESIGN.md §12).

  unordered-iteration  std::unordered_map / std::unordered_set (and multi
                 variants) are forbidden in the byte-stable serialization
                 surfaces: src/obs/**, src/nn/serialize.* and
                 bench/bench_common.*. Their iteration order is
                 implementation- and seed-dependent, so one range-for over
                 an unordered container in a JSON/trace/metrics writer
                 silently breaks byte-identical output across runs and
                 toolchains. Use std::map / std::set, or a vector sorted
                 before emitting.

  no-raw-stdio   printf/fprintf/puts/std::cout/std::cerr are forbidden in
                 src/** outside the sanctioned sinks (common/logging.*,
                 common/table.*): ad-hoc stdout writes bypass the
                 severity-filtered logger, interleave badly across threads,
                 and pollute machine-readable bench output. Use LOG_* for
                 diagnostics and the obs trace/metrics writers for data.
                 (String formatting via snprintf is fine — the rule is
                 about writing to the process streams.)

Suppress a finding with `// lint:allow(<rule>)` on the offending line.

Usage:
  tools/lint.py                    lint the whole tree
  tools/lint.py FILE...            lint specific files (CI lints changed files)
  tools/lint.py --format github    emit GitHub Actions ::error annotations
  tools/lint.py --self-test        prove each rule fires on a seeded violation
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# Mirrors target_link_libraries() in src/*/CMakeLists.txt. A module may
# include headers from itself and from any module listed here.
MODULE_DEPS = {
    "common": set(),
    "obs": {"common"},
    "tensor": {"common"},
    "nn": {"tensor", "common"},
    "data": {"tensor", "common"},
    "core": {"obs", "nn", "data", "tensor", "common"},
    "net": {"obs", "core", "nn", "tensor", "common"},
    "moe": {"obs", "net", "nn", "data", "tensor", "common"},
    "mpi": {"net", "core", "nn", "tensor", "common"},
    "sim": {"obs", "mpi", "moe", "net", "core", "nn", "data", "tensor",
            "common"},
    "load": {"sim", "moe", "net", "nn", "data", "obs", "common"},
}

RAW_CAST_RE = re.compile(
    r"reinterpret_cast<\s*(?:const\s+)?(?:unsigned\s+)?"
    r"(?:char|signed\s+char|std::byte|std::uint8_t|uint8_t)\s*\*\s*>"
)
RAW_CAST_ALLOWED = {SRC / "common" / "raw_bytes.hpp"}

RAW_MUTEX_RE = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable(?:_any)?)\b"
)
RAW_MUTEX_ALLOWED = {SRC / "common" / "annotations.hpp"}

DETACH_RE = re.compile(r"\.\s*detach\s*\(\s*\)")

WALL_CLOCK_RE = re.compile(
    r"std::chrono::\w*_clock::now|\bsleep_for\b|\bsleep_until\b"
)
# File-level exemptions from wall-clock-in-sim (none today; line-level
# escapes go through `// lint:allow(wall-clock-in-sim)` like every rule).
WALL_CLOCK_ALLOWED: set[pathlib.Path] = set()

# Unordered containers have implementation-defined iteration order; in the
# byte-stable serialization surfaces that is a determinism bug waiting for a
# range-for, so the containers themselves are banned there.
UNORDERED_RE = re.compile(r"std::unordered_(?:multi)?(?:map|set)\b")

# Stream-writing stdio only; snprintf/sscanf (string formatting) are fine.
RAW_STDIO_RE = re.compile(
    r"\b(?:std::)?(?:printf|fprintf|vfprintf|puts|fputs|putchar|fputc)\s*\(|"
    r"std::(?:cout|cerr|clog)\b"
)
RAW_STDIO_ALLOWED_STEMS = {"logging", "table"}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
ERRNO_RE = re.compile(r"\berrno\b")
ERRNO_SAVE_RE = re.compile(r"(?:int|auto)\s+\w+\s*=\s*errno\s*;")
SUPPRESS_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)")

LINE_COMMENT_RE = re.compile(r"//.*$")
BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


class Finding:
    def __init__(self, path: pathlib.Path, line: int, rule: str, msg: str):
        self.path, self.line, self.rule, self.msg = path, line, rule, msg

    def rel(self) -> pathlib.Path:
        try:
            return self.path.relative_to(REPO)
        except ValueError:
            return self.path

    def __str__(self) -> str:
        return f"{self.rel()}:{self.line}: [{self.rule}] {self.msg}"

    def github(self) -> str:
        # GitHub Actions workflow-command annotation: renders inline on the
        # PR diff. Newlines inside the message would terminate the command,
        # so flatten defensively.
        msg = f"[{self.rule}] {self.msg}".replace("\n", " ")
        return f"::error file={self.rel()},line={self.line}::{msg}"


def stripped_lines(text: str) -> list[str]:
    """Source lines with block/line comments and string literals blanked
    (line count preserved, so indices keep matching the original file)."""
    text = BLOCK_COMMENT_RE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    out = []
    for line in text.split("\n"):
        if not INCLUDE_RE.match(line):  # include paths are quoted strings
            line = STRING_RE.sub('""', line)
        out.append(LINE_COMMENT_RE.sub("", line))
    return out


def suppressions(text: str) -> dict[int, set[str]]:
    allowed: dict[int, set[str]] = {}
    for i, line in enumerate(text.split("\n"), start=1):
        for m in SUPPRESS_RE.finditer(line):
            allowed.setdefault(i, set()).add(m.group(1))
    return allowed


def check_raw_cast(path: pathlib.Path, code: list[str]) -> list[Finding]:
    if not str(path).startswith(str(SRC)) or path in RAW_CAST_ALLOWED:
        return []
    findings = []
    for i, line in enumerate(code, start=1):
        if RAW_CAST_RE.search(line):
            findings.append(Finding(
                path, i, "raw-cast",
                "byte-pointer reinterpret_cast outside common/raw_bytes.hpp; "
                "use write_raw/read_raw (static_assert + bounds checks)"))
    return findings


def check_module_deps(path: pathlib.Path, code: list[str]) -> list[Finding]:
    try:
        rel = path.relative_to(SRC)
    except ValueError:
        return []
    module = rel.parts[0]
    allowed = MODULE_DEPS.get(module)
    if allowed is None:
        return []
    findings = []
    for i, line in enumerate(code, start=1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        target = m.group(1).split("/")[0]
        if target not in MODULE_DEPS:
            continue  # not a module-qualified include
        if target != module and target not in allowed:
            findings.append(Finding(
                path, i, "module-deps",
                f"src/{module} must not include \"{m.group(1)}\": "
                f"{target} is not a linked dependency of teamnet_{module}"))
    return findings


def check_errno(path: pathlib.Path, code: list[str]) -> list[Finding]:
    if not str(path).startswith(str(SRC)):
        return []
    findings = []
    for i, line in enumerate(code, start=1):
        if not ERRNO_RE.search(line):
            continue
        if ERRNO_SAVE_RE.search(line) or "#include" in line:
            continue
        findings.append(Finding(
            path, i, "errno-capture",
            "errno must be captured with `const int err = errno;` right "
            "after the failing call, not read later (intervening calls "
            "clobber it)"))
    return findings


def check_raw_mutex(path: pathlib.Path, code: list[str]) -> list[Finding]:
    if not str(path).startswith(str(SRC)) or path in RAW_MUTEX_ALLOWED:
        return []
    findings = []
    for i, line in enumerate(code, start=1):
        if RAW_MUTEX_RE.search(line):
            findings.append(Finding(
                path, i, "raw-mutex",
                "raw std synchronization primitive outside "
                "common/annotations.hpp; use the annotated Mutex/MutexLock/"
                "CondVar wrappers (TEAMNET_THREAD_SAFETY analysis)"))
    return findings


def check_thread_detach(path: pathlib.Path, code: list[str]) -> list[Finding]:
    # Repo-wide: tests/bench/examples/fuzz are NOT exempt from this one.
    findings = []
    for i, line in enumerate(code, start=1):
        if DETACH_RE.search(line):
            findings.append(Finding(
                path, i, "thread-detach",
                "std::thread::detach() is forbidden repo-wide; keep the "
                "handle and join (close channels first to unblock peers)"))
    return findings


def in_wall_clock_scope(path: pathlib.Path) -> bool:
    if path in WALL_CLOCK_ALLOWED:
        return False
    if str(path).startswith(str(REPO / "bench")):
        return True
    try:
        rel = path.relative_to(SRC)
    except ValueError:
        return False
    if rel.parts[0] in {"sim", "obs", "load"}:
        return True
    return rel.parts[0] == "net" and path.stem == "link"


def check_wall_clock(path: pathlib.Path, code: list[str]) -> list[Finding]:
    if not in_wall_clock_scope(path):
        return []
    findings = []
    for i, line in enumerate(code, start=1):
        if WALL_CLOCK_RE.search(line):
            findings.append(Finding(
                path, i, "wall-clock-in-sim",
                "wall-clock read/sleep in a virtual-time surface; this "
                "breaks the bit-stability the determinism gate enforces — "
                "take time from des::Engine (or an injected time source)"))
    return findings


def in_unordered_scope(path: pathlib.Path) -> bool:
    if str(path).startswith(str(REPO / "bench")):
        return path.stem == "bench_common"
    try:
        rel = path.relative_to(SRC)
    except ValueError:
        return False
    if rel.parts[0] == "obs":
        return True
    return rel.parts[0] == "nn" and path.stem == "serialize"


def check_unordered_iteration(path: pathlib.Path,
                              code: list[str]) -> list[Finding]:
    if not in_unordered_scope(path):
        return []
    findings = []
    for i, line in enumerate(code, start=1):
        if UNORDERED_RE.search(line):
            findings.append(Finding(
                path, i, "unordered-iteration",
                "unordered container in a byte-stable serialization "
                "surface; iteration order is implementation-defined and "
                "breaks byte-identical JSON/trace output — use std::map/"
                "std::set or sort before emitting"))
    return findings


def check_raw_stdio(path: pathlib.Path, code: list[str]) -> list[Finding]:
    try:
        rel = path.relative_to(SRC)
    except ValueError:
        return []
    if rel.parts[0] == "common" and path.stem in RAW_STDIO_ALLOWED_STEMS:
        return []
    findings = []
    for i, line in enumerate(code, start=1):
        if RAW_STDIO_RE.search(line):
            findings.append(Finding(
                path, i, "no-raw-stdio",
                "raw stdout/stderr write outside common/logging.* and "
                "common/table.*; use LOG_* (severity-filtered, thread-safe) "
                "or an obs sink"))
    return findings


CHECKS = [check_raw_cast, check_module_deps, check_errno, check_raw_mutex,
          check_thread_detach, check_wall_clock, check_unordered_iteration,
          check_raw_stdio]


def lint_file(path: pathlib.Path) -> list[Finding]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return []
    code = stripped_lines(text)
    allowed = suppressions(text)
    findings = []
    for check in CHECKS:
        for f in check(path, code):
            if f.rule not in allowed.get(f.line, set()):
                findings.append(f)
    return findings


def default_targets() -> list[pathlib.Path]:
    # src/** gets every rule; the other trees exist for the repo-wide rules
    # (currently thread-detach) — path-gated rules skip them on their own.
    roots = [SRC, REPO / "tests", REPO / "bench", REPO / "examples",
             REPO / "fuzz"]
    return sorted(p for root in roots if root.is_dir()
                  for p in root.rglob("*")
                  if p.suffix in {".cpp", ".hpp", ".h", ".cc"})


def self_test() -> int:
    """Each rule must fire on a seeded violation and stay quiet on the fix."""
    cases = [
        ("raw-cast", SRC / "nn" / "seeded.cpp",
         "out.append(reinterpret_cast<const char*>(&v), sizeof(v));\n", True),
        ("raw-cast", SRC / "nn" / "seeded.cpp",
         "write_raw(out, v);\n", False),
        ("raw-cast", SRC / "common" / "raw_bytes.hpp",
         "out.append(reinterpret_cast<const char*>(&v), sizeof(v));\n", False),
        ("module-deps", SRC / "nn" / "seeded.cpp",
         '#include "net/tcp.hpp"\n', True),
        ("module-deps", SRC / "nn" / "seeded.cpp",
         '#include "tensor/tensor.hpp"\n', False),
        ("module-deps", SRC / "load" / "seeded.cpp",
         '#include "mpi/collective.hpp"\n', True),
        ("module-deps", SRC / "load" / "seeded.cpp",
         '#include "sim/scenario.hpp"\n', False),
        ("errno-capture", SRC / "net" / "seeded.cpp",
         "if (errno == EAGAIN) return;\n", True),
        ("errno-capture", SRC / "net" / "seeded.cpp",
         "const int err = errno;\n", False),
        ("errno-capture", SRC / "net" / "seeded.cpp",
         "// errno is mentioned in prose only\n", False),
        ("raw-mutex", SRC / "net" / "seeded.cpp",
         "std::lock_guard<std::mutex> lock(mutex_);\n", True),
        ("raw-mutex", SRC / "core" / "seeded.cpp",
         "std::condition_variable cv_;\n", True),
        ("raw-mutex", SRC / "net" / "seeded.cpp",
         "MutexLock lock(mutex_);\n", False),
        ("raw-mutex", SRC / "common" / "annotations.hpp",
         "std::mutex m_;\n", False),
        ("raw-mutex", REPO / "tests" / "seeded.cpp",
         "std::mutex mu;\n", False),  # src-only rule
        ("thread-detach", SRC / "sim" / "seeded.cpp",
         "worker.detach();\n", True),
        ("thread-detach", REPO / "tests" / "seeded.cpp",
         "std::thread([] {}).detach();\n", True),  # repo-wide rule
        ("thread-detach", SRC / "sim" / "seeded.cpp",
         "worker.join();\n", False),
        ("thread-detach", SRC / "core" / "seeded.cpp",
         "// delta is detached here; the meta-estimator owns it\n", False),
        ("wall-clock-in-sim", SRC / "sim" / "seeded.cpp",
         "const auto t0 = std::chrono::steady_clock::now();\n", True),
        ("wall-clock-in-sim", SRC / "sim" / "des" / "seeded.cpp",
         "std::this_thread::sleep_for(std::chrono::milliseconds(5));\n", True),
        ("wall-clock-in-sim", SRC / "net" / "link.cpp",
         "return std::chrono::system_clock::now();\n", True),
        ("wall-clock-in-sim", REPO / "bench" / "seeded.cpp",
         "std::this_thread::sleep_until(deadline);\n", True),
        ("wall-clock-in-sim", SRC / "load" / "seeded.cpp",
         "const auto t0 = std::chrono::steady_clock::now();\n", True),
        ("wall-clock-in-sim", SRC / "load" / "seeded.cpp",
         "const double t = process->next_arrival(now);\n", False),
        ("wall-clock-in-sim", SRC / "net" / "tcp.cpp",
         "const auto t0 = std::chrono::steady_clock::now();\n", False),
        ("wall-clock-in-sim", SRC / "sim" / "seeded.cpp",
         "const double t = net->node_time(0);\n", False),
        ("wall-clock-in-sim", REPO / "tests" / "seeded.cpp",
         "std::this_thread::sleep_for(std::chrono::milliseconds(5));\n",
         False),  # tests are out of scope
        ("wall-clock-in-sim", SRC / "sim" / "des" / "seeded.cpp",
         "const double t = engine.node_time(node);\n", False),
        ("unordered-iteration", SRC / "obs" / "seeded.cpp",
         "std::unordered_map<std::string, Counter> counters_;\n", True),
        ("unordered-iteration", SRC / "nn" / "serialize.cpp",
         "std::unordered_set<std::string> seen;\n", True),
        ("unordered-iteration", REPO / "bench" / "bench_common.cpp",
         "std::unordered_map<std::string, double> cells;\n", True),
        ("unordered-iteration", SRC / "obs" / "seeded.cpp",
         "std::map<std::string, Counter> counters_;\n", False),
        ("unordered-iteration", SRC / "net" / "seeded.cpp",
         "std::unordered_map<int, int> routes;\n", False),  # out of scope
        ("unordered-iteration", SRC / "nn" / "mlp.cpp",
         "std::unordered_map<int, int> cache;\n", False),  # serialize.* only
        ("unordered-iteration", REPO / "bench" / "seeded.cpp",
         "std::unordered_set<int> ids;\n", False),  # bench_common.* only
        ("no-raw-stdio", SRC / "net" / "seeded.cpp",
         'std::printf("gather done\\n");\n', True),
        ("no-raw-stdio", SRC / "core" / "seeded.cpp",
         'fprintf(stderr, "bad gate\\n");\n', True),
        ("no-raw-stdio", SRC / "sim" / "seeded.cpp",
         'std::cout << "latency " << ms;\n', True),
        ("no-raw-stdio", SRC / "obs" / "seeded.cpp",
         'std::cerr << "dropped";\n', True),  # obs writes files, not streams
        ("no-raw-stdio", SRC / "common" / "logging.cpp",
         'std::fprintf(out, "[%s] %s\\n", tag, msg);\n', False),
        ("no-raw-stdio", SRC / "common" / "table.hpp",
         'std::printf("%s", row.c_str());\n', False),
        ("no-raw-stdio", SRC / "obs" / "seeded.cpp",
         "std::snprintf(buf, sizeof(buf), \"%.17g\", v);\n", False),
        ("no-raw-stdio", REPO / "bench" / "seeded.cpp",
         'std::printf("table row\\n");\n', False),  # src-only rule
        ("no-raw-stdio", SRC / "moe" / "seeded.cpp",
         "// printf-style formatting documented here\n", False),
    ]
    failures = 0
    for rule, path, snippet, should_fire in cases:
        code = stripped_lines(snippet)
        fired = any(f.rule == rule
                    for check in CHECKS for f in check(path, code))
        verdict = "fired" if fired else "quiet"
        want = "fire" if should_fire else "stay quiet"
        ok = fired == should_fire
        if not ok:
            failures += 1
        print(f"{'ok  ' if ok else 'FAIL'} [{rule}] {snippet.strip()[:60]!r} "
              f"-> {verdict} (expected to {want})")
    if failures:
        print(f"self-test: {failures} case(s) failed", file=sys.stderr)
        return 1
    print(f"self-test: all {len(cases)} cases passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", type=pathlib.Path,
                        help="files to lint (default: all of src/)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule catches a seeded violation")
    parser.add_argument("--format", choices=["plain", "github"],
                        default="plain",
                        help="finding output format: plain (default) or "
                             "GitHub Actions ::error annotations")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    targets = [p.resolve() for p in args.files] if args.files \
        else default_targets()
    findings = []
    for path in targets:
        findings.extend(lint_file(path))
    for f in findings:
        print(f.github() if args.format == "github" else f)
    if findings:
        print(f"tools/lint.py: {len(findings)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
