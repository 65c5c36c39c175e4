#!/usr/bin/env python3
"""TeamNet static checker (DESIGN.md §6, §12): whole-program passes plus
per-line repo rules, over one file walk.

The whole-program passes parse every translation unit in src/** into a
structural IR (functions, lock scopes, call sites, allocation sites) with a
dependency-free C++ scope/token parser, link them into a call graph, and
run four interprocedural passes over it:

  lock-cycle        Build the acquired-while-holding digraph over every
                    MutexLock / MutexPairLock site — including locks
                    acquired transitively through calls made while a lock
                    is held — and fail on cycles. Static deadlock
                    detection, complementing the DES schedule explorer's
                    dynamic detection (DESIGN.md §11). MutexPairLock's
                    std::lock ordering intentionally contributes no edge
                    between its two locks.

  block-under-lock  Flag calls that may block — CondVar::wait/wait_until,
                    channel recv/send, OS sockets, stdio, sleeps — made
                    (possibly through any number of intermediate calls)
                    while a TN_CAPABILITY mutex is held. CondVar::wait(m) while holding only `m`
                    is the sanctioned wait-loop pattern and is exempt.

  hot-alloc         Functions reachable from the per-query hot path
                    (functions marked with an `// analyze:hot` comment:
                    forward/infer, Message encode/decode, the serving
                    loops) are audited for allocation: new, malloc,
                    make_unique/make_shared, growing container ops,
                    sized container declarations (`std::vector<T> v(n)`),
                    string materialization. One finding per allocation
                    site, so a site added to an already baselined function
                    is a new finding. The checked-in baseline is the
                    burn-down list for ROADMAP item 4's pooled-buffer work.

  unbounded-wait    Direct calls to unbounded recv()/pop() in the protocol
                    layers (src/net/**, src/moe/** minus the channel
                    implementations): it sees through comments/strings,
                    knows the *_timeout variants, and pairs with
                    block-under-lock's interprocedural coverage of wrapper
                    functions.

Their findings are gated through tools/analyze_baseline.json: each finding
has a stable fingerprint (no line numbers, so code motion does not churn
it) and the gate is zero NON-BASELINED findings, not zero findings.
Baselined entries carry a justification; stale entries are reported and
fail --check-baseline.

The line rules are decided by lines of text alone; DESIGN.md §6 gives
each one's reason. They run over src/** unless a scope is named, their
findings never enter the baseline, and `// lint:allow(<rule>)` on the
offending line suppresses one:

  raw-cast             byte-pointer reinterpret_cast outside
                       src/common/raw_bytes.hpp (use write_raw/read_raw)
  module-deps          an #include of a module the includer's CMake target
                       does not link (MODULE_DEPS mirrors the graph)
  errno-capture        errno read anywhere but `const int err = errno;`
  raw-mutex            raw std synchronization primitives outside
                       src/common/annotations.hpp
  thread-detach        .detach(), repo-wide (src, tests, bench, examples,
                       fuzz)
  wall-clock-in-sim    wall-clock reads and real sleeps in the virtual-time
                       surfaces: src/{sim,obs,load}/**, src/net/link.*,
                       bench/**
  unordered-iteration  unordered containers in the byte-stable writers:
                       src/obs/**, src/nn/serialize.*, bench/bench_common.*
  no-raw-stdio         printf/puts/std::cout-style stream writes outside
                       src/common/{logging,table}.*
  std-random           std::mt19937*, std::*_distribution and
                       generate_canonical outside src/common/rng.hpp:
                       src/**, bench/**
  orphan-header        a src/**/*.hpp no file under src, bench, perfbench,
                       examples, tools or fuzz includes, besides its own .cpp

Usage:
  tools/analyze.py                          check the tree (passes against
                                            the baseline, plus line rules)
  tools/analyze.py FILE...                  check specific files
  tools/analyze.py --format github          GitHub Actions ::error annotations
  tools/analyze.py --write-baseline         refresh the baseline (keeps
                                            justifications for existing entries)
  tools/analyze.py --check-baseline         fail if a rerun would change the
                                            baseline file (staleness + byte-
                                            stability gate)
  tools/analyze.py --json-out FILE          machine-readable findings + graph
  tools/analyze.py --self-test              prove each pass on tools/fixtures/
                                            and each line rule on seeded lines
"""

from __future__ import annotations

import argparse
import dataclasses
from collections.abc import Callable
import functools
import hashlib
import json
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURES = REPO / "tools" / "fixtures"
DEFAULT_BASELINE = REPO / "tools" / "analyze_baseline.json"

# The annotated lock funnel itself (DESIGN.md §7) is the trusted base the
# analysis is defined over, not a subject of it.
EXCLUDED_FILES = {SRC / "common" / "annotations.hpp"}

HOT_MARKER = "analyze:hot"
PROTOCOL_SCOPE_MARKER = "analyze:protocol-scope"

# Lock-RAII types from common/annotations.hpp.
SCOPED_LOCK_TYPES = {"MutexLock": 1, "MutexPairLock": 2}
MUTEX_TYPE = "Mutex"

# External (unparsed) callees treated as blocking seeds, by unqualified
# name, with the blocking kind reported in the finding.
BLOCKING_EXTERNAL = {
    "wait": "condvar-wait",          # CondVar::wait (own-mutex exempt)
    "wait_until": "condvar-wait",    # CondVar::wait_until (own-mutex exempt)
    "recv": "channel-io",
    "recv_timeout": "channel-io",
    "send": "channel-io",
    # NOTE: pop/pop_timeout are deliberately absent — those names collide
    # with std::queue/std::deque members; blocking queue pops (ByteQueue,
    # DES mailboxes) are parsed functions and propagate through call-target
    # resolution instead of by name.
    "tcp_connect": "channel-io",
    "connect": "syscall",
    "accept": "syscall",
    "poll": "syscall",
    "select": "syscall",
    "sleep_for": "sleep",
    "sleep_until": "sleep",
    "fprintf": "stdio",
    "vfprintf": "stdio",
    "printf": "stdio",
    "fwrite": "stdio",
    "fputs": "stdio",
    "fflush": "stdio",
}

# The LOG_* macros funnel into log::detail::emit; the parser never
# expands macros, so alias the macro names onto the sink so
# lock-held logging is visible to the interprocedural pass.
CALL_ALIASES = {
    "LOG_DEBUG": "emit",
    "LOG_INFO": "emit",
    "LOG_WARN": "emit",
    "LOG_ERROR": "emit",
}

# Allocation-site classification (call-shaped sites plus new-expressions).
ALLOC_EXTERNAL = {
    "malloc": "malloc",
    "calloc": "malloc",
    "realloc": "malloc",
    "aligned_alloc": "malloc",
    "strdup": "malloc",
    "make_unique": "smart-ptr",
    "make_shared": "smart-ptr",
    "to_string": "string-alloc",
    "substr": "string-alloc",
    "str": "string-alloc",        # std::ostringstream::str()
}
ALLOC_MEMBER_GROWTH = {
    "push_back", "emplace_back", "emplace", "insert", "resize", "reserve",
    "push", "append", "assign", "emplace_front", "push_front",
}
# std containers whose `Type name(args)` declaration allocates its storage
# up front, as surely as a resize() on an empty one.
ALLOC_SIZED_CONTAINERS = {
    "vector", "string", "deque", "list", "forward_list", "basic_string",
}

# Unbounded blocking waits for the protocol-layer discipline pass.
UNBOUNDED_WAIT_NAMES = {"recv", "pop"}
PROTOCOL_MODULES = {"net", "moe"}
PROTOCOL_EXEMPT_STEMS = {"transport", "fault", "tcp"}

# Receivers whose declared type is one of these are std-library values:
# their methods (pop, push, insert, ...) follow std semantics, are never
# project functions, and must not be name-unioned into the call graph.
EXTERNAL_RECEIVER_TYPES = {
    "queue", "deque", "vector", "map", "unordered_map", "set",
    "unordered_set", "multimap", "stack", "list", "forward_list", "array",
    "optional", "string", "string_view", "atomic", "pair", "tuple",
    "priority_queue", "bitset", "ostringstream", "istringstream",
    "stringstream", "function", "future", "promise", "thread", "ifstream",
    "ofstream", "fstream", "span", "variant", "auto", "int", "bool",
    "double", "float", "size_t", "uint8_t", "uint32_t", "uint64_t",
    "int32_t", "int64_t", "char", "void",
}
SMART_PTR_TYPES = {"shared_ptr", "unique_ptr", "weak_ptr"}

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "catch", "sizeof", "alignof",
    "alignas", "throw", "new", "delete", "static_cast", "dynamic_cast",
    "const_cast", "reinterpret_cast", "static_assert", "decltype", "typeid",
    "case", "default", "do", "else", "goto", "break", "continue", "co_await",
    "co_return", "co_yield", "noexcept", "requires", "explicit", "operator",
}

# ---------------------------------------------------------------------------
# IR
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class AcquireSite:
    """One MutexLock/MutexPairLock declaration."""
    lock_exprs: tuple[str, ...]   # raw argument expressions, one per lock
    kind: str                     # "scoped" | "pair"
    line: int
    held: tuple[str, ...]         # raw exprs of locks held before this site
    locks: tuple[str, ...] = ()   # canonical names (resolution pass)


@dataclasses.dataclass
class CallSite:
    callee: str                   # identifier chain as written ("a::b", "f")
    receiver: str | None          # receiver identifier for x.f()/x->f()
    first_arg: str                # raw expr of first argument ("" if none)
    line: int
    held: tuple[str, ...]         # raw lock exprs held at this point
    deferred: bool                # inside a lambda body (runs later)
    is_decl_ctor: bool = False    # `Type name(args);` declaration
    # The whole member chain ending at `receiver`: ("a", "b") for a.b.f()
    # or a->b.f(); empty when its head is not a plain name (g().b.f()).
    receiver_path: tuple[str, ...] = ()
    held_locks: tuple[str, ...] = ()   # canonical (resolution pass)
    targets: tuple[str, ...] = ()      # resolved callee function ids


@dataclasses.dataclass
class AllocSite:
    kind: str                     # "new" | "malloc" | "smart-ptr" | ...
    what: str                     # e.g. "push_back", "new"
    line: int
    held: tuple[str, ...]
    held_locks: tuple[str, ...] = ()
    # The member call a "container-grow" site was named after; the
    # resolution pass drops the site when that call binds to a repo method.
    call: CallSite | None = None


@dataclasses.dataclass
class Function:
    qname: str                    # fully qualified (namespaces + class)
    name: str                     # unqualified
    file: str                     # repo-relative path
    line: int
    cls: str | None               # enclosing class qname, if a method
    calls: list[CallSite] = dataclasses.field(default_factory=list)
    acquires: list[AcquireSite] = dataclasses.field(default_factory=list)
    allocs: list[AllocSite] = dataclasses.field(default_factory=list)
    locals: dict[str, str] = dataclasses.field(default_factory=dict)
    hot: bool = False             # marked // analyze:hot


@dataclasses.dataclass
class ClassInfo:
    qname: str
    file: str
    mutex_members: set[str] = dataclasses.field(default_factory=set)
    members: dict[str, str] = dataclasses.field(default_factory=dict)
    nested: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Program:
    functions: dict[str, Function] = dataclasses.field(default_factory=dict)
    classes: dict[str, ClassInfo] = dataclasses.field(default_factory=dict)
    protocol_files: set[str] = dataclasses.field(default_factory=set)

    def add_function(self, fn: Function) -> None:
        # Overloads / out-of-line + inline pairs: key by qname plus a
        # discriminator so nothing is silently dropped.
        key = fn.qname
        n = 2
        while key in self.functions:
            key = f"{fn.qname}#{n}"
            n += 1
        self.functions[key] = fn


@dataclasses.dataclass
class Finding:
    rule: str
    file: str
    line: int
    subject: str                  # stable fingerprint subject
    message: str

    @property
    def fingerprint(self) -> str:
        digest = hashlib.sha256(
            f"{self.rule}|{self.subject}".encode()).hexdigest()
        return digest[:12]

    def tagged(self) -> str:
        # A line-rule finding is never baselined, so it shows no fingerprint.
        fp = "" if self.rule in LINE_RULES else f" [fp {self.fingerprint}]"
        return f"[{self.rule}] {self.message}{fp}"

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: {self.tagged()}"

    def github(self) -> str:
        # GitHub Actions workflow-command annotation: a newline would end
        # the command, so flatten defensively.
        return f"::error file={self.file},line={self.line}::" + \
            self.tagged().replace("\n", " ")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

TOKEN_RE = re.compile(
    r"""
      (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<rawstr>R"(?P<delim>[^()\s\\"]{0,16})\(.*?\)(?P=delim)")
    | (?P<str>"(?:[^"\\\n]|\\.)*")
    | (?P<char>'(?:[^'\\\n]|\\.)*')
    | (?P<num>\.?[0-9](?:[\w.']|[eEpP][+-])*)
    | (?P<ident>[A-Za-z_]\w*)
    | (?P<punct>::|->\*|->|\+\+|--|<<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||
        [-+*/%&|^!<>=]=|\.\.\.|[{}()\[\];:,.?~^%!&|*+<>=/-])
    """,
    re.DOTALL | re.VERBOSE)

PREPROC_RE = re.compile(r"^[ \t]*#[^\n]*(?:\\\n[^\n]*)*", re.MULTILINE)


@dataclasses.dataclass
class Tok:
    kind: str      # "ident" | "punct" | "str" | "num" | "char"
    text: str
    line: int


def tokenize(text: str) -> tuple[list[Tok], dict[int, set[str]]]:
    """Tokens plus {line: markers} for analyze:* comment markers."""
    markers: dict[int, set[str]] = {}
    # Blank preprocessor lines (keep newlines so line numbers survive).
    text = PREPROC_RE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    toks: list[Tok] = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(text):
        line += text.count("\n", pos, m.start())
        pos = m.start()
        kind = m.lastgroup
        tok_text = m.group(0)
        if kind == "comment":
            for marker in re.findall(r"analyze:[a-z-]+", tok_text):
                markers.setdefault(line, set()).add(
                    marker[len("analyze:"):])
        elif kind == "delim":
            pass
        elif kind in ("str", "rawstr", "char"):
            toks.append(Tok("str", '""', line))
        elif kind is not None:
            toks.append(Tok(kind if kind != "rawstr" else "str",
                            tok_text, line))
    return toks, markers

# ---------------------------------------------------------------------------
# Scope/declaration parser producing the IR
# ---------------------------------------------------------------------------

POST_PARAM_QUALIFIERS = {"const", "noexcept", "override", "final", "mutable",
                         "volatile", "&", "&&", "throw", "try"}
TYPE_PREFIX_SKIP = {"const", "constexpr", "static", "inline", "mutable",
                    "volatile", "virtual", "explicit", "friend", "typename",
                    "register", "thread_local", "unsigned", "signed", "long",
                    "short", "extern"}


class _Parser:
    """Single-file scope parser. Appends Functions/ClassInfos to `program`.

    Deliberate over/under-approximations (documented in DESIGN.md §12):
    lambda bodies are scanned as part of the enclosing function but with the
    held-lock set cleared (the closure usually runs outside the critical
    section; calls inside still feed the call graph), and template
    arguments are skipped with a bounded type-token heuristic.
    """

    def __init__(self, program: Program, file_rel: str, toks: list[Tok],
                 markers: dict[int, set[str]]):
        self.program = program
        self.file = file_rel
        self.toks = toks
        self.markers = markers
        self.i = 0
        self.ns: list[str] = []       # namespace stack
        self.cls: list[str] = []      # class qname stack
        self.anon_count = 0

    # -- token helpers ----------------------------------------------------
    def peek(self, k: int = 0) -> Tok | None:
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else None

    def next(self) -> Tok | None:
        t = self.peek()
        if t is not None:
            self.i += 1
        return t

    def skip_balanced(self, open_t: str, close_t: str) -> list[Tok]:
        """Called with position ON the opener; consumes through the match."""
        out: list[Tok] = []
        depth = 0
        while True:
            t = self.next()
            if t is None:
                return out
            out.append(t)
            if t.text == open_t:
                depth += 1
            elif t.text == close_t:
                depth -= 1
                if depth == 0:
                    return out

    def try_skip_template_args(self) -> bool:
        """Position is ON '<'. Skip balanced type-ish template args; rewind
        and return False if this looks like a comparison instead."""
        start = self.i
        depth = 0
        budget = 400
        while budget > 0:
            t = self.next()
            budget -= 1
            if t is None:
                break
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    return True
            elif t.text == ">>":
                depth -= 2
                if depth <= 0:
                    return True
            elif t.text in (";", "{", "}") or t.kind == "str":
                break
        self.i = start
        return False

    def scope_prefix(self) -> str:
        parts = [p for p in self.ns if p]
        if self.cls:
            return self.cls[-1]
        return "::".join(parts)

    def qualify(self, chain: str) -> str:
        prefix = self.scope_prefix()
        return f"{prefix}::{chain}" if prefix else chain

    # -- declaration scope ------------------------------------------------
    def parse_decl_scope(self) -> None:
        """Parse until the matching '}' of the current scope (or EOF)."""
        while True:
            t = self.peek()
            if t is None:
                return
            if t.text == "}":
                self.next()
                return
            if t.kind == "ident":
                if t.text == "namespace":
                    self.parse_namespace()
                    continue
                if t.text in ("class", "struct"):
                    if self.parse_class():
                        continue
                    # fall through: parsed as forward decl/elaborated type
                    continue
                if t.text == "enum":
                    self.skip_enum()
                    continue
                if t.text == "union":
                    self.skip_union()
                    continue
                if t.text == "template":
                    self.next()
                    if self.peek() is not None and self.peek().text == "<":
                        self.try_skip_template_args()
                    continue
                if t.text in ("using", "typedef", "static_assert", "friend"):
                    self.skip_to_semi()
                    continue
                if t.text in ("public", "private", "protected"):
                    self.next()
                    if self.peek() is not None and self.peek().text == ":":
                        self.next()
                    continue
            if t.text == ";":
                self.next()
                continue
            self.parse_declaration()

    def parse_namespace(self) -> None:
        self.next()  # 'namespace'
        name_parts: list[str] = []
        while True:
            t = self.peek()
            if t is None:
                return
            if t.kind == "ident":
                name_parts.append(t.text)
                self.next()
            elif t.text == "::":
                self.next()
            else:
                break
        t = self.peek()
        if t is not None and t.text == "{":
            self.next()
            if not name_parts:
                self.anon_count += 1
                name_parts = [f"(anon:{pathlib.PurePath(self.file).name})"]
            pushed = len(name_parts)
            self.ns.extend(name_parts)
            saved_cls = self.cls
            self.cls = []
            self.parse_decl_scope()
            self.cls = saved_cls
            del self.ns[-pushed:]
        else:
            self.skip_to_semi()

    def parse_class(self) -> bool:
        """Returns True if a class *definition* was parsed."""
        self.next()  # 'class' / 'struct'
        name = ""
        while True:
            t = self.peek()
            if t is None:
                return False
            if t.kind == "ident":
                if t.text != "final":
                    name = t.text
                self.next()
                # attribute-macro parens, e.g. TN_CAPABILITY("mutex")
                if self.peek() is not None and self.peek().text == "(":
                    self.skip_balanced("(", ")")
                    name = ""  # macro was not the class name
            elif t.text == "<":
                if not self.try_skip_template_args():
                    self.next()
            elif t.text == ":":
                # base clause: skip to the opening brace
                while self.peek() is not None and self.peek().text not in (
                        "{", ";"):
                    if self.peek().text == "<":
                        if not self.try_skip_template_args():
                            self.next()
                    else:
                        self.next()
            elif t.text == "{":
                break
            elif t.text in (";", ")", ",", ">", "&", "*"):
                return False  # forward decl or elaborated type specifier
            else:
                self.next()
        self.next()  # '{'
        if not name:
            self.anon_count += 1
            name = f"(anon-class:{self.anon_count})"
        prefix = self.scope_prefix()
        qname = f"{prefix}::{name}" if prefix else name
        if qname not in self.program.classes:
            self.program.classes[qname] = ClassInfo(qname=qname,
                                                    file=self.file)
        if self.cls:
            parent = self.program.classes.get(self.cls[-1])
            if parent is not None and qname not in parent.nested:
                parent.nested.append(qname)
        self.cls.append(qname)
        self.parse_decl_scope()
        self.cls.pop()
        self.skip_to_semi()
        return True

    def skip_enum(self) -> None:
        self.next()
        while self.peek() is not None and self.peek().text not in ("{", ";"):
            self.next()
        if self.peek() is not None and self.peek().text == "{":
            self.skip_balanced("{", "}")
        self.skip_to_semi()

    def skip_union(self) -> None:
        self.next()
        while self.peek() is not None and self.peek().text not in ("{", ";"):
            self.next()
        if self.peek() is not None and self.peek().text == "{":
            self.skip_balanced("{", "}")
        self.skip_to_semi()

    def skip_to_semi(self) -> None:
        depth = 0
        while True:
            t = self.next()
            if t is None:
                return
            if t.text in ("{", "("):
                depth += 1
            elif t.text in ("}", ")"):
                depth -= 1
                if depth < 0:
                    self.i -= 1  # scope's closer: let the caller see it
                    return
            elif t.text == ";" and depth == 0:
                return

    def parse_declaration(self) -> None:
        """One declaration at namespace/class scope: either a function
        definition (descend into the body) or a plain declaration (detect
        Mutex members, then skip)."""
        decl_toks: list[Tok] = []
        candidate: tuple[str, list[Tok], int] | None = None
        after_params = False
        while True:
            t = self.peek()
            if t is None:
                return
            if t.text == ";":
                self.next()
                self.detect_mutex_member(decl_toks)
                return
            if t.text == "}":
                return  # malformed/closer — let parse_decl_scope handle
            if t.text == "(":
                chain, chain_line = self.chain_behind(decl_toks)
                params = self.skip_balanced("(", ")")
                if chain:
                    candidate = (chain, params[1:-1], chain_line)
                    after_params = True
                decl_toks.append(t)
                continue
            if t.text == "{":
                if candidate is not None and after_params:
                    self.next()
                    self.parse_function_body(candidate, init_toks=[])
                    return
                self.skip_balanced("{", "}")
                continue
            if t.text == ":" and candidate is not None and after_params:
                # constructor member-init list: capture tokens up to the body
                self.next()
                init_toks: list[Tok] = []
                depth = 0
                while True:
                    u = self.peek()
                    if u is None:
                        return
                    if u.text == "{" and depth == 0:
                        break
                    if u.text in ("(", "["):
                        depth += 1
                    elif u.text in (")", "]"):
                        depth -= 1
                    init_toks.append(u)
                    self.next()
                self.next()  # '{'
                self.parse_function_body(candidate, init_toks=init_toks)
                return
            if t.text == "=" and after_params:
                # `= default;` / `= delete;` / `= 0;` — declaration only
                self.skip_to_semi()
                return
            if t.text == "<":
                start = self.i
                if self.try_skip_template_args():
                    # shared_ptr<T>/unique_ptr<T> members: the pointee is
                    # the type that matters for receiver resolution.
                    if decl_toks and decl_toks[-1].kind == "ident" and \
                            decl_toks[-1].text in SMART_PTR_TYPES:
                        inner = [u.text for u in self.toks[start + 1:self.i - 1]
                                 if u.kind == "ident" and u.text != "std"
                                 and u.text not in TYPE_PREFIX_SKIP]
                        if inner:
                            decl_toks[-1] = Tok("ident", inner[-1],
                                                decl_toks[-1].line)
                    continue
            self.next()
            decl_toks.append(t)

    def chain_behind(self, decl_toks: list[Tok]) -> tuple[str, int]:
        """Identifier chain immediately before a '(': 'A::B::name',
        'A::~A', 'operator=' forms."""
        j = len(decl_toks) - 1
        parts: list[str] = []
        line = self.peek().line if self.peek() else 0
        # operator with symbol: ... operator <punct> (
        if j >= 1 and decl_toks[j].kind == "punct" and \
                decl_toks[j - 1].kind == "ident" and \
                decl_toks[j - 1].text == "operator":
            sym = decl_toks[j].text
            j -= 2
            parts.append(f"operator{sym}")
            line = decl_toks[j + 1].line
        expecting_ident = not parts
        while j >= 0:
            t = decl_toks[j]
            if expecting_ident and t.kind == "ident" and \
                    t.text not in CPP_KEYWORDS:
                parts.append(t.text)
                line = t.line
                expecting_ident = False
                j -= 1
                if j >= 0 and decl_toks[j].text == "~":
                    parts[-1] = "~" + parts[-1]
                    line = decl_toks[j].line
                    j -= 1
            elif not expecting_ident and t.text == "::":
                expecting_ident = True
                j -= 1
            else:
                break
        if expecting_ident and parts:
            parts = parts[:1] if parts[0].startswith("operator") else []
        return "::".join(reversed(parts)), line

    def detect_mutex_member(self, decl_toks: list[Tok]) -> None:
        """Record data-member name → type for class-scope declarations
        (`[mutable] Type name [TN_GUARDED_BY(...)];`); Mutex members also
        land in mutex_members. Method declarations (name directly followed
        by '(') are skipped."""
        if not self.cls:
            return
        toks = decl_toks
        for j, t in enumerate(toks):
            if t.text == "=":
                toks = toks[:j]       # `Type name = init;` — drop the init
                break
            if t.text == "(":
                prev = toks[j - 1] if j else None
                if prev is not None and prev.kind == "ident" and \
                        not re.fullmatch(r"TN_[A-Z0-9_]+|[A-Z][A-Z0-9_]+",
                                         prev.text):
                    return            # method declaration, not a member
                toks = toks[:j - 1] if j else toks[:j]
                break
        idents = [t.text for t in toks if t.kind == "ident"
                  and t.text not in TYPE_PREFIX_SKIP and t.text != "std"]
        while len(idents) >= 3 and re.fullmatch(
                r"TN_[A-Z0-9_]+|[A-Z][A-Z0-9_]+", idents[-1]):
            idents.pop()
        if len(idents) >= 2:
            cls = self.program.classes[self.cls[-1]]
            name, ty = idents[-1], idents[-2]
            cls.members.setdefault(name, ty)
            if ty == MUTEX_TYPE:
                cls.mutex_members.add(name)

    # -- function bodies --------------------------------------------------
    def parse_function_body(self, candidate: tuple[str, list[Tok], int],
                            init_toks: list[Tok]) -> None:
        chain, param_toks, line = candidate
        prefix = self.scope_prefix()
        if "::" in chain:
            head, _, tail = chain.rpartition("::")
            qname = f"{prefix}::{chain}" if prefix else chain
            cls = f"{prefix}::{head}" if prefix else head
            name = tail
        else:
            qname = f"{prefix}::{chain}" if prefix else chain
            cls = self.cls[-1] if self.cls else None
            name = chain
        fn = Function(qname=qname, name=name, file=self.file, line=line,
                      cls=cls)
        for probe in range(max(1, line - 3), line + 1):
            if "hot" in self.markers.get(probe, set()):
                fn.hot = True
        self.capture_param_types(fn, param_toks)
        body = _BodyScanner(self, fn)
        if init_toks:
            body.scan_tokens(init_toks, deferred=False)
        body.scan_stream()
        self.program.add_function(fn)

    def capture_param_types(self, fn: Function, param_toks: list[Tok]) -> None:
        depth = 0
        current: list[Tok] = []
        groups: list[list[Tok]] = []
        for t in param_toks:
            if t.text in ("(", "<", "[", "{"):
                depth += 1
            elif t.text in (")", ">", "]", "}"):
                depth -= 1
            elif t.text == "," and depth == 0:
                groups.append(current)
                current = []
                continue
            current.append(t)
        if current:
            groups.append(current)
        for group in groups:
            idents = [t.text for t in group if t.kind == "ident"
                      and t.text not in TYPE_PREFIX_SKIP
                      and t.text not in CPP_KEYWORDS]
            if len(idents) >= 2:
                fn.locals[idents[-1]] = idents[-2]


class _BodyScanner:
    """Statement-level scan of one function body: lock scopes, call sites,
    allocation sites, local-variable types."""

    def __init__(self, parser: _Parser, fn: Function):
        self.p = parser
        self.fn = fn
        # Each entry: {"locks": [raw exprs], "lambda": bool}
        self.blocks: list[dict] = [{"locks": [], "lambda": False}]
        self.pending_lambda = False
        self.suppress_call = False   # just saw `new` — next Type(...) is not a call
        self.stmt_start = True
        self.pending_type: str | None = None

    def held_raw(self) -> tuple[str, ...]:
        held: list[str] = []
        for blk in self.blocks:
            if blk["lambda"]:
                held = []          # closure body: outer locks not held
            held.extend(blk["locks"])
        return tuple(held)

    def scan_stream(self) -> None:
        """Consume tokens from the parser's stream until the body's '}'."""
        while self.blocks:
            t = self.p.next()
            if t is None:
                return
            self.feed(t, from_stream=True)

    def scan_tokens(self, toks: list[Tok], deferred: bool) -> None:
        """Scan a detached token list (ctor init-list) — no lock scoping."""
        save_blocks = self.blocks
        self.blocks = [{"locks": [], "lambda": deferred}]
        i = 0
        while i < len(toks):
            i = self.feed_list(toks, i)
        self.blocks = save_blocks

    # The stream-based scanner below is the only one that descends into
    # nested braces; the init-list variant only records calls and allocs.
    def feed_list(self, toks: list[Tok], i: int) -> int:
        t = toks[i]
        if t.kind == "ident" and t.text not in CPP_KEYWORDS:
            j = i + 1
            chain = [t.text]
            while j + 1 < len(toks) and toks[j].text == "::" and \
                    toks[j + 1].kind == "ident":
                chain.append(toks[j + 1].text)
                j += 2
            if j < len(toks) and toks[j].text in ("(", "{"):
                callee = "::".join(chain)
                self.record_call(callee, None, "", t.line, decl_ctor=False)
            return j
        if t.text == "new":
            self.fn.allocs.append(AllocSite("new", "new", t.line,
                                            self.held_raw()))
        return i + 1

    def feed(self, t: Tok, from_stream: bool) -> None:
        p = self.p
        if t.text == "{":
            self.blocks.append({"locks": [], "lambda": self.pending_lambda})
            self.pending_lambda = False
            self.stmt_start = True
            return
        if t.text == "}":
            self.blocks.pop()
            self.stmt_start = True
            return
        if t.text == ";" or t.text == ":":
            self.stmt_start = True
            self.pending_type = None
            self.suppress_call = False
            return
        if t.text == "[":
            nxt = p.peek()
            if nxt is not None and nxt.text == "[":
                # [[attribute]]
                depth = 1
                while depth > 0:
                    u = p.next()
                    if u is None:
                        return
                    if u.text == "[":
                        depth += 1
                    elif u.text == "]":
                        depth -= 1
                return
            # Lambda introducer vs subscript: decided by what's inside/after.
            depth = 1
            while depth > 0:
                u = p.next()
                if u is None:
                    return
                if u.text == "[":
                    depth += 1
                elif u.text == "]":
                    depth -= 1
            if p.peek() is not None and p.peek().text == "(":
                saved = p.i
                p.skip_balanced("(", ")")
                if self.lambda_body_ahead():
                    self.pending_lambda = True
                else:
                    p.i = saved
            elif self.lambda_body_ahead():
                self.pending_lambda = True
            return
        if t.kind != "ident":
            return
        if t.text == "new":
            self.fn.allocs.append(AllocSite("new", "new", t.line,
                                            self.held_raw()))
            self.suppress_call = True
            return
        if t.text in CPP_KEYWORDS:
            self.stmt_start = False
            return
        if t.text in SCOPED_LOCK_TYPES and self.stmt_start:
            self.scan_lock_decl(t)
            return
        self.scan_ident_chain(t)

    def lambda_body_ahead(self) -> bool:
        """After a lambda's ']' (and optional params): specifiers then '{'?"""
        k = 0
        while True:
            u = self.p.peek(k)
            if u is None:
                return False
            if u.text == "{":
                return True
            if u.kind == "ident" and u.text in ("mutable", "noexcept",
                                                "constexpr"):
                k += 1
                continue
            if u.text == "->":
                k += 1
                # trailing return type tokens
                while True:
                    v = self.p.peek(k)
                    if v is None or v.text in ("{", ";", ")", ","):
                        break
                    k += 1
                continue
            return False

    def scan_lock_decl(self, t: Tok) -> None:
        """`MutexLock name(expr);` / `MutexPairLock name(a, b);`"""
        p = self.p
        kind = "scoped" if t.text == "MutexLock" else "pair"
        var = p.peek()
        if var is None or var.kind != "ident":
            return
        p.next()
        opener = p.peek()
        if opener is None or opener.text not in ("(", "{"):
            return
        close = ")" if opener.text == "(" else "}"
        arg_toks = p.skip_balanced(opener.text, close)[1:-1]
        exprs = split_args(arg_toks)
        self.fn.acquires.append(AcquireSite(
            lock_exprs=tuple(exprs), kind=kind, line=t.line,
            held=self.held_raw()))
        self.blocks[-1]["locks"].extend(exprs)
        self.stmt_start = False

    def scan_ident_chain(self, t: Tok) -> None:
        p = self.p
        chain = [t.text]
        line = t.line
        prev_idx = p.i - 2  # token before the chain start
        while True:
            nxt = p.peek()
            if nxt is not None and nxt.text == "::":
                follow = p.peek(1)
                if follow is not None and follow.kind == "ident":
                    p.next()
                    p.next()
                    chain.append(follow.text)
                    continue
            break
        nxt = p.peek()
        if nxt is not None and nxt.text == "<":
            if p.try_skip_template_args():
                nxt = p.peek()
        if nxt is not None and nxt.text == "(":
            callee = "::".join(chain)
            prev = self.prev_significant(prev_idx)
            receiver = None
            decl_ctor = False
            receiver_path: tuple[str, ...] = ()
            if prev is not None and prev.text in (".", "->"):
                recv_tok = self.p.toks[self.tok_index_before(prev_idx)] \
                    if self.tok_index_before(prev_idx) >= 0 else None
                if recv_tok is not None and recv_tok.kind == "ident":
                    receiver = recv_tok.text
                    receiver_path = self.receiver_path_before(prev_idx)
            elif prev is not None and (prev.kind == "ident"
                                       or prev.text in (">", "&", "*")) \
                    and len(chain) == 1 and self.pending_type is not None:
                # `Type name(args)` — declaration with ctor args
                decl_ctor = True
                self.fn.locals[chain[0]] = self.pending_type
                callee = self.pending_type
            first_arg = self.peek_first_arg()
            self.record_call(callee, receiver, first_arg, line, decl_ctor,
                             receiver_path)
            self.pending_type = None
            self.stmt_start = False
            return
        # Not a call: remember as a possible type prefix for `Type name(...)`
        # and `Type name = ...` local declarations.
        if nxt is not None and nxt.kind == "ident":
            self.pending_type = chain[-1]
        elif nxt is not None and nxt.text in ("&", "*"):
            follow = p.peek(1)
            if follow is not None and follow.kind == "ident":
                self.pending_type = chain[-1]
        elif nxt is not None and nxt.text in ("=", ";", ",", ")"):
            # `Type name = init;` — the chain here is the *name* when a type
            # came just before it.
            if self.pending_type is not None and len(chain) == 1:
                self.fn.locals[chain[0]] = self.pending_type
            self.pending_type = None
        self.stmt_start = False

    def tok_index_before(self, idx: int) -> int:
        return idx - 1

    def receiver_path_before(self, dot_idx: int) -> tuple[str, ...]:
        """The member chain whose last name precedes the '.'/'->' at
        `dot_idx`: ("a", "b") for `a.b` or `this->a.b`; () when the chain
        starts at anything but a plain name (a call result, a subscript,
        a qualified name)."""
        toks = self.p.toks
        path: list[str] = []
        i = dot_idx - 1
        while True:
            if i < 0 or toks[i].kind != "ident":
                return ()
            path.append(toks[i].text)
            if i >= 2 and toks[i - 1].text in (".", "->"):
                i -= 2
                continue
            if i >= 1 and toks[i - 1].text == "::":
                return ()
            break
        path.reverse()
        if path and path[0] == "this":
            path = path[1:]
        return tuple(path)

    def prev_significant(self, idx: int) -> Tok | None:
        return self.p.toks[idx] if 0 <= idx < len(self.p.toks) else None

    def peek_first_arg(self) -> str:
        """Position is ON '('. Lookahead-copy the first top-level argument
        without consuming (nested calls still get scanned normally)."""
        k = 1
        depth = 1
        out: list[str] = []
        while True:
            u = self.p.peek(k)
            if u is None:
                break
            if u.text in ("(", "[", "{"):
                depth += 1
            elif u.text in (")", "]", "}"):
                depth -= 1
                if depth == 0:
                    break
            elif u.text == "," and depth == 1:
                break
            out.append(u.text)
            k += 1
        return "".join(out)

    def record_call(self, callee: str, receiver: str | None, first_arg: str,
                    line: int, decl_ctor: bool,
                    receiver_path: tuple[str, ...] = ()) -> None:
        if self.suppress_call:
            self.suppress_call = False
            return
        deferred = any(blk["lambda"] for blk in self.blocks)
        held = self.held_raw()
        name = callee.rsplit("::", 1)[-1]
        call = CallSite(
            callee=callee, receiver=receiver, first_arg=first_arg, line=line,
            held=held, deferred=deferred, is_decl_ctor=decl_ctor,
            receiver_path=receiver_path)
        self.fn.calls.append(call)
        if name in ALLOC_MEMBER_GROWTH and receiver is not None:
            # Only a guess by name until receivers are resolved.
            self.fn.allocs.append(AllocSite("container-grow", name, line,
                                            held, call=call))
        elif decl_ctor and name in ALLOC_SIZED_CONTAINERS and first_arg:
            self.fn.allocs.append(AllocSite("container-sized", name, line,
                                            held))
        elif name in ALLOC_EXTERNAL:
            self.fn.allocs.append(AllocSite(ALLOC_EXTERNAL[name], name, line,
                                            held))


def split_args(toks: list[Tok]) -> list[str]:
    """Split a paren-group token list on top-level commas, joining exprs."""
    out: list[str] = []
    current: list[str] = []
    depth = 0
    for t in toks:
        if t.text in ("(", "[", "{", "<"):
            depth += 1
        elif t.text in (")", "]", "}", ">"):
            depth -= 1
        if t.text == "," and depth == 0:
            out.append("".join(current))
            current = []
        else:
            current.append(t.text)
    if current:
        out.append("".join(current))
    return [a for a in out if a]


def build_program(paths: list[pathlib.Path],
                  texts: dict[pathlib.Path, str] | None = None) -> Program:
    """Parses `paths`; `texts` stands in for the contents of any of them."""
    program = Program()
    for path in paths:
        text = texts[path] if texts and path in texts else read_source(path)
        if text is None:
            continue
        toks, markers = tokenize(text)
        rel = rel_path(path)
        if any("protocol-scope" in ms for ms in markers.values()):
            program.protocol_files.add(rel)
        parser = _Parser(program, rel, toks, markers)
        parser.parse_decl_scope()
    return program


def rel_path(path: pathlib.Path) -> str:
    try:
        return path.resolve().relative_to(REPO).as_posix()
    except ValueError:
        return path.as_posix()

# ---------------------------------------------------------------------------
# Resolution: raw lock expressions → canonical lock names, call sites →
# target functions
# ---------------------------------------------------------------------------


def find_class_by_name(program: Program, type_name: str,
                       fn: Function) -> ClassInfo | None:
    """Resolve an unqualified type name to a parsed class, preferring the
    enclosing class's nested classes, then same-file classes, then a unique
    global match (lexicographically smallest as the deterministic tiebreak)."""
    suffix = "::" + type_name
    candidates = sorted(q for q in program.classes
                        if q == type_name or q.endswith(suffix))
    if not candidates:
        return None
    if fn.cls:
        nested = [q for q in candidates if q.startswith(fn.cls + "::")]
        if nested:
            return program.classes[nested[0]]
    same_file = [q for q in candidates
                 if program.classes[q].file == fn.file]
    if same_file:
        return program.classes[same_file[0]]
    return program.classes[candidates[0]]


def enclosing_chain(program: Program, cls: str | None) -> list[ClassInfo]:
    """The enclosing class plus any transitively nested classes — the
    scopes whose members an unqualified name inside a method can mean."""
    out: list[ClassInfo] = []
    if cls is None or cls not in program.classes:
        return out
    seen: set[str] = set()
    stack = [cls]
    while stack:
        q = stack.pop(0)
        if q in seen or q not in program.classes:
            continue
        seen.add(q)
        info = program.classes[q]
        out.append(info)
        stack.extend(sorted(info.nested))
    return out


def receiver_type(program: Program, fn: Function,
                  receiver: str) -> str | None:
    if receiver in fn.locals:
        return fn.locals[receiver]
    for info in enclosing_chain(program, fn.cls):
        if receiver in info.members:
            return info.members[receiver]
    return None


def call_receiver_type(program: Program, fn: Function,
                       call: CallSite) -> str | None:
    """Declared type of a member call's receiver. A chain `a.b.f()` is
    followed member by member from `a`'s type, so `b` is looked up in that
    class, not in the caller's scope; a link that is not a parsed class
    (a std value, an unknown name) leaves the type unknown."""
    path = call.receiver_path
    if len(path) < 2:
        return receiver_type(program, fn, call.receiver) \
            if call.receiver is not None else None
    rtype = receiver_type(program, fn, path[0])
    for member in path[1:]:
        if rtype is None or rtype in EXTERNAL_RECEIVER_TYPES:
            return None
        info = find_class_by_name(program, rtype, fn)
        if info is None:
            return None
        rtype = info.members.get(member)
    return rtype


_EXPR_SPLIT_RE = re.compile(r"->|\.")


def canonical_lock(program: Program, fn: Function, raw: str) -> str:
    """Map a raw MutexLock argument expression to a stable canonical name
    (`Class::member`, `Function::local`, or a file-scoped pseudo-name)."""
    expr = raw.replace("this->", "").replace("(*this).", "")
    expr = expr.strip("&*()")
    parts = [p for p in _EXPR_SPLIT_RE.split(expr) if p]
    if not parts:
        return f"{fn.file}::<expr:{raw}>"
    member = parts[-1].strip("&* ")
    receiver = parts[0] if len(parts) > 1 else None
    if receiver is not None:
        receiver = receiver.split("(", 1)[0]  # call-result receivers
        rtype = receiver_type(program, fn, receiver)
        if rtype is not None and rtype != "auto":
            info = find_class_by_name(program, rtype, fn)
            if info is not None and member in info.mutex_members:
                return f"{info.qname}::{member}"
    # Unqualified (or unresolved receiver): enclosing class, then its
    # nested classes — this also resolves structured-binding receivers.
    holders = [info for info in enclosing_chain(program, fn.cls)
               if member in info.mutex_members]
    if holders:
        return f"{holders[0].qname}::{member}"
    same_file = sorted(q for q, info in program.classes.items()
                       if info.file == fn.file and member in
                       info.mutex_members)
    if len(same_file) == 1:
        return f"{same_file[0]}::{member}"
    global_holders = sorted(q for q, info in program.classes.items()
                            if member in info.mutex_members)
    if len(global_holders) == 1:
        return f"{global_holders[0]}::{member}"
    if fn.locals.get(member) == MUTEX_TYPE:
        return f"{fn.qname}::{member}"
    return f"{fn.file}::{member}"


def canon_held(program: Program, fn: Function,
               held_raw: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(sorted({canonical_lock(program, fn, e) for e in held_raw}))


def resolve_targets(program: Program, name_index: dict[str, list[str]],
                    fn: Function, call: CallSite) -> tuple[str, ...]:
    callee = CALL_ALIASES.get(call.callee, call.callee)
    name = callee.rsplit("::", 1)[-1]
    if name in SCOPED_LOCK_TYPES or name == MUTEX_TYPE:
        return ()
    union = name_index.get(name, [])
    if "::" in callee:
        suffix = "::" + callee
        return tuple(k for k in union
                     if program.functions[k].qname == callee
                     or program.functions[k].qname.endswith(suffix))
    if call.receiver is not None:
        rtype = call_receiver_type(program, fn, call)
        if rtype is not None:
            if rtype in EXTERNAL_RECEIVER_TYPES:
                return ()
            info = find_class_by_name(program, rtype, fn)
            if info is not None:
                exact = tuple(k for k in union
                              if program.functions[k].cls == info.qname)
                if exact:
                    return exact
    elif fn.cls is not None and not call.is_decl_ctor:
        # Receiver-less call inside a method: C++ name lookup finds the
        # own-class member first.
        own = tuple(k for k in union
                    if program.functions[k].cls == fn.cls)
        if own:
            return own
    # Name union: every parsed function of that name (conservative virtual
    # dispatch — `channel.recv()` resolves to every recv override).
    return tuple(union)


def binds_repo_method(program: Program, fn: Function,
                      call: CallSite) -> bool:
    """True when `call_receiver_type` types the call's receiver to a
    parsed class and the call resolved to that class's own method."""
    rtype = call_receiver_type(program, fn, call)
    if rtype is None or rtype in EXTERNAL_RECEIVER_TYPES:
        return False
    info = find_class_by_name(program, rtype, fn)
    return info is not None and any(
        program.functions[k].cls == info.qname for k in call.targets)


def resolve_program(program: Program) -> None:
    name_index: dict[str, list[str]] = {}
    for key in sorted(program.functions):
        name_index.setdefault(program.functions[key].name, []).append(key)
    for key in sorted(program.functions):
        fn = program.functions[key]
        for a in fn.acquires:
            a.locks = tuple(canonical_lock(program, fn, e)
                            for e in a.lock_exprs)
        for c in fn.calls:
            c.held_locks = canon_held(program, fn, c.held)
            c.targets = resolve_targets(program, name_index, fn, c)
        # A growth-named call whose receiver types it to a repo class calls
        # that class's method, whose own body is scanned: no site here.
        fn.allocs = [al for al in fn.allocs
                     if al.call is None
                     or not binds_repo_method(program, fn, al.call)]
        for al in fn.allocs:
            al.held_locks = canon_held(program, fn, al.held)


# ---------------------------------------------------------------------------
# Interprocedural passes
# ---------------------------------------------------------------------------


def site_blocking(mb: dict[str, tuple[str, str]],
                  c: CallSite) -> tuple[str, str] | None:
    """(blocking kind, witness) if this call site may block, else None."""
    if c.is_decl_ctor:
        return None
    callee = CALL_ALIASES.get(c.callee, c.callee)
    name = callee.rsplit("::", 1)[-1]
    if name in BLOCKING_EXTERNAL:
        return BLOCKING_EXTERNAL[name], name
    for t in c.targets:            # targets are sorted at resolution time
        if t in mb:
            kind, via = mb[t]
            return kind, f"{name} -> {via}"
    return None


def compute_may_block(program: Program) -> dict[str, tuple[str, str]]:
    """fn key → (blocking kind, witness chain). Deferred (lambda-body)
    sites do not make the *enclosing* function blocking — the closure runs
    later, outside this frame."""
    mb: dict[str, tuple[str, str]] = {}
    changed = True
    while changed:
        changed = False
        for key in sorted(program.functions):
            if key in mb:
                continue
            fn = program.functions[key]
            for c in fn.calls:
                if c.deferred:
                    continue
                b = site_blocking(mb, c)
                if b is not None:
                    mb[key] = (b[0], f"{fn.qname}: {b[1]}")
                    changed = True
                    break
    return mb


def compute_may_acquire(program: Program) -> dict[str, dict[str, str]]:
    """fn key → {canonical lock → witness} for every lock the function may
    acquire, directly or transitively (deferred calls included: a closure
    handed elsewhere still runs this code)."""
    acq: dict[str, dict[str, str]] = {k: {} for k in program.functions}
    for key in sorted(program.functions):
        fn = program.functions[key]
        for a in fn.acquires:
            for lock in a.locks:
                acq[key].setdefault(lock, f"{fn.qname}:{a.line}")
    changed = True
    while changed:
        changed = False
        for key in sorted(program.functions):
            fn = program.functions[key]
            for c in fn.calls:
                for t in c.targets:
                    for lock in sorted(acq.get(t, {})):
                        if lock not in acq[key]:
                            acq[key][lock] = \
                                f"{fn.qname} -> {acq[t][lock]}"
                            changed = True
    return acq


def build_lock_order(program: Program,
                     acq: dict[str, dict[str, str]]) -> dict[tuple[str, str],
                                                             str]:
    """(held, acquired) → witness. MutexPairLock contributes no edge
    between its own two locks (std::lock orders them atomically)."""
    edges: dict[tuple[str, str], str] = {}

    def add(h: str, lock: str, witness: str) -> None:
        key = (h, lock)
        if key not in edges or witness < edges[key]:
            edges[key] = witness

    for fkey in sorted(program.functions):
        fn = program.functions[fkey]
        for a in fn.acquires:
            held = canon_held(program, fn, a.held)
            for h in held:
                for lock in a.locks:
                    if lock != h:
                        add(h, lock, f"{fn.qname} ({fn.file}:{a.line})")
        for c in fn.calls:
            if c.deferred or not c.held_locks:
                continue
            for t in c.targets:
                for lock in sorted(acq.get(t, {})):
                    for h in c.held_locks:
                        if lock != h:
                            add(h, lock,
                                f"{fn.qname} ({fn.file}:{c.line}) -> "
                                f"{acq[t][lock]}")
    return edges


def find_lock_cycles(edges: dict[tuple[str, str], str]) -> list[list[str]]:
    """SCCs of size ≥ 2 (plus self-loops) in the lock-order digraph —
    iterative Tarjan, deterministic node order."""
    graph: dict[str, list[str]] = {}
    for (a, b) in edges:
        graph.setdefault(a, []).append(b)
        graph.setdefault(b, [])
    for v in graph:
        graph[v].sort()
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    sccs: list[list[str]] = []

    def strongconnect(root: str) -> None:
        work = [(root, iter(graph[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(graph[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                scc: list[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                if len(scc) > 1 or (v, v) in edges:
                    sccs.append(sorted(scc))

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)
    sccs.sort()
    return sccs


def hot_reachable(program: Program) -> dict[str, tuple[str, str]]:
    """fn key → (root qname, immediate caller qname) for every function
    reachable from an `// analyze:hot` root. Deferred calls count: a closure
    run from the hot path still burns hot-path time."""
    reach: dict[str, tuple[str, str]] = {}
    queue: list[str] = []
    for key in sorted(program.functions):
        fn = program.functions[key]
        if fn.hot:
            reach[key] = (fn.qname, fn.qname)
            queue.append(key)
    while queue:
        key = queue.pop(0)
        fn = program.functions[key]
        root = reach[key][0]
        for c in fn.calls:
            for t in c.targets:
                if t not in reach:
                    reach[t] = (root, fn.qname)
                    queue.append(t)
    return reach


# ---------------------------------------------------------------------------
# Finding generation
# ---------------------------------------------------------------------------


def protocol_scope(program: Program, file: str) -> bool:
    if file in program.protocol_files:
        return True
    p = pathlib.PurePosixPath(file)
    return (len(p.parts) >= 2 and p.parts[0] == "src"
            and p.parts[1] in PROTOCOL_MODULES
            and p.stem not in PROTOCOL_EXEMPT_STEMS)


def run_passes(program: Program) -> tuple[list[Finding],
                                          dict[tuple[str, str], str]]:
    resolve_program(program)
    mb = compute_may_block(program)
    acq = compute_may_acquire(program)
    edges = build_lock_order(program, acq)
    findings: list[Finding] = []

    for scc in find_lock_cycles(edges):
        subject = " <-> ".join(scc)
        sample = []
        for (a, b), w in sorted(edges.items()):
            if a in scc and b in scc:
                sample.append(f"{a} -> {b} [{w}]")
        loc = sample[0] if sample else ""
        m = re.search(r"\(([^():]+):(\d+)\)", loc)
        file = m.group(1) if m else "src"
        line = int(m.group(2)) if m else 1
        findings.append(Finding(
            rule="lock-cycle", file=file, line=line, subject=subject,
            message=("lock-order cycle (potential deadlock): "
                     + "; ".join(sample[:4]))))

    for fkey in sorted(program.functions):
        fn = program.functions[fkey]
        for c in fn.calls:
            if c.deferred or not c.held_locks:
                continue
            b = site_blocking(mb, c)
            if b is None:
                continue
            kind, via = b
            held = set(c.held_locks)
            name = CALL_ALIASES.get(c.callee, c.callee).rsplit("::", 1)[-1]
            cv_recv = call_receiver_type(program, fn, c) == "CondVar"
            if kind == "condvar-wait" and name in ("wait", "wait_until") \
                    and (not c.targets or cv_recv) and c.first_arg:
                # cv.wait(m) holding only m is the sanctioned wait loop.
                held.discard(canonical_lock(program, fn, c.first_arg))
                if not held:
                    continue
            locks = ",".join(sorted(held))
            findings.append(Finding(
                rule="block-under-lock", file=fn.file, line=c.line,
                subject=f"{fn.qname}|{name}|{locks}",
                message=(f"{fn.qname} calls {c.callee} ({kind}; via {via}) "
                         f"while holding {locks}")))

    for fkey in sorted(program.functions):
        fn = program.functions[fkey]
        if not protocol_scope(program, fn.file):
            continue
        for c in fn.calls:
            if c.is_decl_ctor:
                continue
            name = c.callee.rsplit("::", 1)[-1]
            if name not in UNBOUNDED_WAIT_NAMES:
                continue
            findings.append(Finding(
                rule="unbounded-wait", file=fn.file, line=c.line,
                subject=f"{fn.qname}|{name}",
                message=(f"{fn.qname} calls unbounded {name}() in the "
                         f"protocol layer; prefer the _timeout variant "
                         f"with a deadline")))

    reach = hot_reachable(program)
    for fkey in sorted(reach):
        fn = program.functions[fkey]
        root, via = reach[fkey]
        hop = f" via {via}" if via != root else ""
        # One finding per site, named by kind, call and ordinal among the
        # function's sites of that call (no line number, so code motion
        # does not churn it): a site added to a baselined function is new.
        seen: dict[tuple[str, str], int] = {}
        for al in fn.allocs:
            n = seen[al.kind, al.what] = seen.get((al.kind, al.what), 0) + 1
            note = " under a held lock" if al.held_locks else ""
            findings.append(Finding(
                rule="hot-alloc", file=fn.file, line=al.line,
                subject=f"{fn.qname}|{al.kind}|{al.what}#{n}",
                message=(f"{fn.qname} (hot: root {root}{hop}) allocates: "
                         f"{al.what} ({al.kind}){note}")))

    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.subject))
    return findings, edges

# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------

PLACEHOLDER_JUSTIFICATION = "REVIEW: justify this entry"


def load_baseline(path: pathlib.Path) -> dict:
    if not path.is_file():
        return {"version": 1, "findings": {}}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"analyze: cannot read baseline {path}: {exc}")
    data.setdefault("findings", {})
    return data


def render_baseline(findings: list[Finding],
                    edges: dict[tuple[str, str], str],
                    old: dict) -> str:
    """Canonical baseline text: every current finding (keeping the old
    justification when the fingerprint already existed, a placeholder to
    replace by hand when it is new) plus the lock-order graph. Byte-stable:
    fully sorted, fixed indentation."""
    old_findings = old.get("findings", {})
    entries: dict[str, dict] = {}
    for f in findings:
        fp = f.fingerprint
        prev = old_findings.get(fp, {})
        justification = prev.get("justification") or PLACEHOLDER_JUSTIFICATION
        entries[fp] = {
            "rule": f.rule,
            "subject": f.subject,
            "justification": justification,
        }
    nodes = sorted({n for e in edges for n in e})
    doc = {
        "version": 1,
        "tool": "teamnet-analyze",
        "lock_order": {
            "nodes": nodes,
            "edges": [
                {"from": a, "to": b, "witness": w}
                for (a, b), w in sorted(edges.items())
            ],
        },
        "findings": {fp: entries[fp] for fp in sorted(entries)},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def split_by_baseline(findings: list[Finding],
                      baseline: dict) -> tuple[list[Finding], list[Finding],
                                               list[str]]:
    known = baseline.get("findings", {})
    new = [f for f in findings if f.fingerprint not in known]
    old = [f for f in findings if f.fingerprint in known]
    produced = {f.fingerprint for f in findings}
    stale = sorted(fp for fp in known if fp not in produced)
    return new, old, stale


# ---------------------------------------------------------------------------
# Line rules (DESIGN.md §6): decided by lines of text, never baselined
# ---------------------------------------------------------------------------

CPP_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")
# src/** gets every line rule; the other trees are walked for the rules
# whose scope reaches them (thread-detach everywhere, two bench/ rules).
LINE_RULE_ROOTS = ("src", "tests", "bench", "examples", "fuzz")
# Trees whose #includes keep a src/ header alive (tests/ does not count).
PROGRAM_ROOTS = ("src", "bench", "perfbench", "examples", "tools", "fuzz")

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
    "load": {"sim", "net", "nn", "data", "obs", "common"},
    "explore": {"load", "sim", "moe", "core", "nn", "data", "tensor", "obs",
                "common"},
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
SUPPRESS_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)")
LINE_COMMENT_RE = re.compile(r"//.*$")
BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


@dataclasses.dataclass(frozen=True)
class LineRule:
    """A rule that fires on every in-scope line its pattern matches."""
    name: str
    pattern: re.Pattern
    scope: Callable[[pathlib.PurePosixPath], bool]   # repo-relative path
    message: str
    exempt: re.Pattern | None = None   # a matching line is not a finding


def _in(rel: pathlib.PurePosixPath, *prefix: str) -> bool:
    return rel.parts[:len(prefix)] == prefix


LINE_CHECKS = (
    LineRule(
        "raw-cast",
        re.compile(r"reinterpret_cast<\s*(?:const\s+)?(?:unsigned\s+)?"
                   r"(?:char|signed\s+char|std::byte|std::uint8_t|uint8_t)"
                   r"\s*\*\s*>"),
        lambda rel: _in(rel, "src") and
        rel.as_posix() != "src/common/raw_bytes.hpp",
        "byte-pointer reinterpret_cast outside common/raw_bytes.hpp; use "
        "write_raw/read_raw (static_assert + bounds checks)"),
    LineRule(
        "errno-capture", re.compile(r"\berrno\b"),
        lambda rel: _in(rel, "src"),
        "errno must be captured with `const int err = errno;` right after "
        "the failing call, not read later (intervening calls clobber it)",
        exempt=re.compile(r"(?:int|auto)\s+\w+\s*=\s*errno\s*;|#include")),
    LineRule(
        "raw-mutex",
        re.compile(r"std::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|"
                   r"lock_guard|unique_lock|scoped_lock|shared_lock|"
                   r"condition_variable(?:_any)?)\b"),
        lambda rel: _in(rel, "src") and
        rel.as_posix() != "src/common/annotations.hpp",
        "raw std synchronization primitive outside common/annotations.hpp; "
        "use the annotated Mutex/MutexLock/CondVar wrappers "
        "(TEAMNET_THREAD_SAFETY analysis)"),
    LineRule(
        "thread-detach", re.compile(r"\.\s*detach\s*\(\s*\)"),
        lambda rel: True,             # repo-wide: tests/bench/... too
        "std::thread::detach() is forbidden repo-wide; keep the handle and "
        "join (close channels first to unblock peers)"),
    LineRule(
        "wall-clock-in-sim",
        re.compile(r"std::chrono::\w*_clock::now|\bsleep_for\b|"
                   r"\bsleep_until\b"),
        lambda rel: _in(rel, "bench") or _in(rel, "src", "sim") or
        _in(rel, "src", "obs") or _in(rel, "src", "load") or
        (_in(rel, "src", "net") and rel.stem == "link"),
        "wall-clock read/sleep in a virtual-time surface; this breaks the "
        "bit-stability the determinism gate enforces — take time from "
        "des::Engine (or an injected time source)"),
    # Unordered containers iterate in an implementation-defined order; in
    # the byte-stable writers that is a determinism bug waiting for a
    # range-for, so the containers themselves are banned there.
    LineRule(
        "unordered-iteration",
        re.compile(r"std::unordered_(?:multi)?(?:map|set)\b"),
        lambda rel: (_in(rel, "bench") and rel.stem == "bench_common") or
        _in(rel, "src", "obs") or
        (_in(rel, "src", "nn") and rel.stem == "serialize"),
        "unordered container in a byte-stable serialization surface; "
        "iteration order is implementation-defined and breaks "
        "byte-identical JSON/trace output — use std::map/std::set or sort "
        "before emitting"),
    # Stream-writing stdio only; snprintf/sscanf (string formatting) are
    # fine.
    LineRule(
        "no-raw-stdio",
        re.compile(r"\b(?:std::)?(?:printf|fprintf|vfprintf|puts|fputs|"
                   r"putchar|fputc)\s*\(|std::(?:cout|cerr|clog)\b"),
        lambda rel: _in(rel, "src") and not (
            _in(rel, "src", "common") and rel.stem in ("logging", "table")),
        "raw stdout/stderr write outside common/logging.* and "
        "common/table.*; use LOG_* (severity-filtered, thread-safe) or an "
        "obs sink"),
    # Every draw's bits are pinned (datasets, checkpoints, bench rows), and
    # Rng is the one place that reproduces them; a std engine or
    # distribution elsewhere is a second, unpinned stream.
    LineRule(
        "std-random",
        re.compile(r"std::(?:\w+_distribution|mt19937(?:_64)?)\b|"
                   r"\bgenerate_canonical\b"),
        lambda rel: (_in(rel, "src") or _in(rel, "bench")) and
        rel.as_posix() != "src/common/rng.hpp",
        "std::mt19937 or std distribution outside common/rng.hpp; draw "
        "from teamnet::Rng (normal/uniform/bernoulli/randint/shuffle), "
        "whose stream and values are pinned bit for bit"),
)
LINE_RULES = {"module-deps", "orphan-header"} | {r.name for r in LINE_CHECKS}


@functools.cache
def read_source(path: pathlib.Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return None


@functools.cache
def stripped_lines(text: str) -> tuple[str, ...]:
    """Source lines with block/line comments and string literals blanked
    (line count preserved, so indices keep matching the original file)."""
    text = BLOCK_COMMENT_RE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    out = []
    for line in text.split("\n"):
        if not INCLUDE_RE.match(line):  # include paths are quoted strings
            line = STRING_RE.sub('""', line)
        out.append(LINE_COMMENT_RE.sub("", line))
    return tuple(out)


def suppressions(text: str) -> dict[int, set[str]]:
    allowed: dict[int, set[str]] = {}
    for i, line in enumerate(text.split("\n"), start=1):
        for m in SUPPRESS_RE.finditer(line):
            allowed.setdefault(i, set()).add(m.group(1))
    return allowed


def check_module_deps(rel: pathlib.PurePosixPath,
                      code: tuple[str, ...]) -> list[Finding]:
    if not _in(rel, "src") or len(rel.parts) < 3 or \
            rel.parts[1] not in MODULE_DEPS:
        return []
    module = rel.parts[1]
    findings = []
    for i, line in enumerate(code, start=1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        target = m.group(1).split("/")[0]
        if target in MODULE_DEPS and target != module and \
                target not in MODULE_DEPS[module]:
            findings.append(Finding(
                "module-deps", rel.as_posix(), i, "",
                f"src/{module} must not include \"{m.group(1)}\": "
                f"{target} is not a linked dependency of teamnet_{module}"))
    return findings


def line_findings(path: pathlib.Path, text: str) -> list[Finding]:
    """Every per-file line rule over one file, minus its lint:allow lines."""
    rel = pathlib.PurePosixPath(rel_path(path))
    code = stripped_lines(text)
    whole = "\n".join(code)
    found = check_module_deps(rel, code)
    for rule in LINE_CHECKS:
        if not rule.scope(rel) or not rule.pattern.search(whole):
            continue
        found += [Finding(rule.name, rel.as_posix(), i, "", rule.message)
                  for i, line in enumerate(code, start=1)
                  if rule.pattern.search(line) and not
                  (rule.exempt and rule.exempt.search(line))]
    allowed = suppressions(text) if found else {}
    return [f for f in found if f.rule not in allowed.get(f.line, ())]


def orphan_findings(headers: dict[pathlib.Path, str],
                    includes: dict[pathlib.Path, set[str]]
                    ) -> list[Finding]:
    """`headers` maps each src/ header to check to its text; `includes`
    maps each scanned file to the quoted #include paths it names. A header
    is alive when some file under a PROGRAM_ROOTS tree, other than the
    header's own .cpp, includes it by its module-qualified path (the only
    include form src/ uses)."""
    includers: dict[str, list[pathlib.Path]] = {}
    for path, names in includes.items():
        if path.relative_to(REPO).parts[0] in PROGRAM_ROOTS:
            for name in names:
                includers.setdefault(name, []).append(path)
    findings = []
    for header, text in headers.items():
        key = header.relative_to(SRC).as_posix()
        own_cpp = header.with_suffix(".cpp")
        if any(p != own_cpp for p in includers.get(key, ())) or \
                "orphan-header" in suppressions(text).get(1, ()):
            continue
        findings.append(Finding(
            "orphan-header", rel_path(header), 1, "",
            f"src/{key} is #included by no program file (src, bench, "
            f"perfbench, examples, tools, fuzz) besides its own .cpp; only "
            f"tests reach it — delete it with its tests, or use it"))
    return findings


def tree_files(roots: tuple[str, ...]) -> list[pathlib.Path]:
    return sorted(p for root in roots if (REPO / root).is_dir()
                  for p in (REPO / root).rglob("*")
                  if p.suffix in CPP_SUFFIXES)


def check_lines(paths: list[pathlib.Path]) -> list[Finding]:
    """The line rules over `paths`, orphan-header over the src/ headers
    among them against the #includes of every PROGRAM_ROOTS file."""
    findings = []
    headers = {}
    for path in paths:
        text = read_source(path)
        if text is None:
            continue
        findings += line_findings(path, text)
        if path.suffix == ".hpp" and path.is_relative_to(SRC):
            headers[path] = text
    if headers:
        includes = {}
        for path in tree_files(PROGRAM_ROOTS):
            text = read_source(path)
            if text is not None:
                includes[path] = {m.group(1) for line in stripped_lines(text)
                                  if (m := INCLUDE_RE.match(line))}
        findings += orphan_findings(headers, includes)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings

# ---------------------------------------------------------------------------
# Self-test: each pass on its tools/fixtures/ TU, each line rule on seeded
# lines
# ---------------------------------------------------------------------------

# Each entry: fixture file, findings that MUST fire (rule + subject
# substring) and findings that MUST NOT.
SELF_TEST_CASES = [
    {
        "fixture": "fixture_lock_cycle.cpp",
        "must": [("lock-cycle", "A::m_"), ("lock-cycle", "B::m_")],
        "must_not": [("lock-cycle", "PairTaker")],
    },
    {
        "fixture": "fixture_block_under_lock.cpp",
        "must": [
            ("block-under-lock", "direct_block"),
            ("block-under-lock", "outer_block"),
            ("unbounded-wait", "serve_forever"),
        ],
        "must_not": [
            ("block-under-lock", "good_wait"),
            ("block-under-lock", "deferred_ok"),
        ],
    },
    {
        "fixture": "fixture_hot_alloc.cpp",
        "must": [
            ("hot-alloc", "hot_entry|new"),
            ("hot-alloc", "hot_helper|container-grow"),
            ("hot-alloc", "hot_offsets|container-sized"),
        ],
        "must_not": [("hot-alloc", "cold_path"), ("hot-alloc", "hot_view")],
    },
    {
        "fixture": "fixture_chained_receiver.cpp",
        "must": [
            ("hot-alloc", "Recorder::query|container-grow|reserve"),
            ("hot-alloc", "Arena::reserve|container-grow|resize"),
        ],
        "must_not": [("hot-alloc", "Pool::reserve")],
    },
    {
        # A growth-named call that binds to a repo method is that method's
        # call: its growth is counted once, in the method's own body.
        "fixture": "fixture_chained_receiver.cpp",
        "must": [("hot-alloc", "Recorder::reset|container-grow|reserve#1")],
        "must_not": [
            ("hot-alloc", "Recorder::grow|container-grow"),
            ("hot-alloc", "Recorder::reset|container-grow|reserve#2"),
        ],
    },
]

# (rule, file, seeded text, must fire): each rule fires on a seeded
# violation and stays quiet on the fix and outside its scope.
LINE_CASES = [
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
    ("std-random", SRC / "data" / "seeded.cpp",
     "std::normal_distribution<float> dist(0.0f, stddev);\n", True),
    ("std-random", REPO / "bench" / "seeded.cpp",
     "std::mt19937_64 engine(seed);\n", True),
    ("std-random", SRC / "load" / "seeded.cpp",
     "const float u = std::generate_canonical<float, 24>(engine);\n", True),
    ("std-random", SRC / "data" / "seeded.cpp",
     "v += rng.normal(0.0f, stddev);\n", False),
    ("std-random", SRC / "common" / "rng.hpp",
     "std::uniform_int_distribution<int> dist(lo, hi);\n", False),
    ("std-random", REPO / "tests" / "seeded.cpp",
     "std::mt19937_64 twin(seed);\n", False),  # tests are out of scope
    ("std-random", SRC / "load" / "seeded.cpp",
     "// not a std::uniform_real_distribution: its values vary\n", False),
    # The suppression comment: one seeded violation is silenced only by
    # lint:allow naming its own rule, on its own line.
    ("raw-mutex", SRC / "net" / "seeded.cpp",
     "std::mutex mu;  // lint:allow(raw-mutex)\n", False),
    ("raw-mutex", SRC / "net" / "seeded.cpp",
     "std::mutex mu;  // lint:allow(raw-cast)\n", True),
    ("raw-mutex", SRC / "net" / "seeded.cpp",
     "std::mutex mu;\n// lint:allow(raw-mutex)\n", True),
    ("thread-detach", REPO / "tests" / "seeded.cpp",
     "t.detach();  // lint:allow(thread-detach)\n", False),
]

# orphan-header is whole-tree: each case is the seeded header's text plus
# the include map of the files that name it.
ORPHAN_CASES = [
    ("own .cpp only", "", {SRC / "nn" / "seeded.cpp": {"nn/seeded.hpp"}},
     True),
    ("tests only", "", {SRC / "nn" / "seeded.cpp": {"nn/seeded.hpp"},
                        REPO / "tests" / "nn_test.cpp": {"nn/seeded.hpp"}},
     True),
    ("no includer", "", {}, True),
    ("another src file", "",
     {SRC / "core" / "teamnet.cpp": {"nn/seeded.hpp"}}, False),
    ("a bench", "", {REPO / "bench" / "seeded.cpp": {"nn/seeded.hpp"}},
     False),
    ("perfbench", "", {REPO / "perfbench" / "driver.cpp": {"nn/seeded.hpp"}},
     False),
    ("no includer, allowed on line 1",
     "// lint:allow(orphan-header)\n#pragma once\n", {}, False),
    ("no includer, allowed on line 2",
     "#pragma once\n// lint:allow(orphan-header)\n", {}, True),
]


def run_self_test() -> int:
    failures: list[str] = []
    checks = 0

    for case in SELF_TEST_CASES:
        path = FIXTURES / case["fixture"]
        if not path.is_file():
            failures.append(f"{case['fixture']}: fixture missing")
            continue
        findings, _ = run_passes(build_program([path]))
        got = [(f.rule, f.subject) for f in findings]
        for rule, substr in case["must"]:
            checks += 1
            if not any(r == rule and substr in s for r, s in got):
                failures.append(
                    f"{case['fixture']}: expected {rule} finding matching "
                    f"'{substr}'; got {got}")
        for rule, substr in case["must_not"]:
            checks += 1
            if any(r == rule and substr in s for r, s in got):
                failures.append(
                    f"{case['fixture']}: unexpected {rule} finding matching "
                    f"'{substr}' in {got}")

    # Baseline suppression + fingerprint stability: the checked-in fixture
    # baseline carries the exact fingerprints this run must reproduce.
    fx = FIXTURES / "fixture_baseline_ok.cpp"
    bl_path = FIXTURES / "fixture_baseline.json"
    if fx.is_file() and bl_path.is_file():
        findings, _ = run_passes(build_program([fx]))
        baseline = load_baseline(bl_path)
        new, old, stale = split_by_baseline(findings, baseline)
        checks += 3
        if not findings:
            failures.append("fixture_baseline_ok.cpp: produced no findings")
        if new:
            failures.append(
                "fixture_baseline_ok.cpp: baseline failed to suppress: "
                + ", ".join(f"{f.fingerprint} {f.subject}" for f in new))
        if stale:
            failures.append(
                "fixture_baseline_ok.cpp: stale fingerprints (fingerprint "
                "drift): " + ", ".join(stale))
    else:
        failures.append("fixture_baseline_ok.cpp / fixture_baseline.json "
                        "missing")

    # A site added to a function whose sites are all baselined is a new
    # finding: hot_helper grows a second push_back.
    path = FIXTURES / "fixture_hot_alloc.cpp"
    text = read_source(path)
    if text is not None:
        findings, edges = run_passes(build_program([path]))
        baseline = json.loads(render_baseline(findings, edges, {}))
        grown = text.replace("items_.push_back(v);",
                             "items_.push_back(v);\n    items_.push_back(-v);")
        findings, _ = run_passes(build_program([path], {path: grown}))
        new, _, stale = split_by_baseline(findings, baseline)
        checks += 1
        if len(new) != 1 or new[0].rule != "hot-alloc" or \
                "hot_helper|container-grow" not in new[0].subject or stale:
            failures.append(
                "fixture_hot_alloc.cpp + one push_back: expected exactly one "
                "new hot-alloc finding in hot_helper, got new "
                f"{[(f.rule, f.subject) for f in new]}, stale {stale}")

    def expect(label: str, fired: bool, should_fire: bool) -> None:
        if fired != should_fire:
            failures.append(f"{label} -> {'fired' if fired else 'quiet'} "
                            f"(expected to "
                            f"{'fire' if should_fire else 'stay quiet'})")

    for rule, path, snippet, should_fire in LINE_CASES:
        fired = any(f.rule == rule for f in line_findings(path, snippet))
        expect(f"[{rule}] {snippet.strip()[:60]!r} in {rel_path(path)}",
               fired, should_fire)
    header = SRC / "nn" / "seeded.hpp"
    for label, text, includes, should_fire in ORPHAN_CASES:
        fired = bool(orphan_findings({header: text}, includes))
        expect(f"[orphan-header] included by {label}", fired, should_fire)

    if failures:
        for msg in failures:
            print(f"self-test FAIL: {msg}")
        return 1
    print(f"analyze self-test: {checks} pass checks and "
          f"{len(LINE_CASES) + len(ORPHAN_CASES)} line-rule cases passed")
    return 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="analyze.py",
        description="TeamNet static checker: whole-program passes and "
                    "line rules")
    ap.add_argument("files", nargs="*", type=pathlib.Path,
                    help="files to check (default: src/** for the passes, "
                         "src, tests, bench, examples, fuzz for the line "
                         "rules)")
    ap.add_argument("--format", choices=("plain", "github"),
                    default="plain")
    ap.add_argument("--baseline", type=pathlib.Path,
                    default=DEFAULT_BASELINE)
    ap.add_argument("--write-baseline", action="store_true",
                    help="refresh the baseline file (keeps justifications "
                         "of entries that survive)")
    ap.add_argument("--check-baseline", action="store_true",
                    help="fail if rerunning would change the baseline file")
    ap.add_argument("--json-out", type=pathlib.Path,
                    help="write findings + lock-order graph as JSON")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    if args.self_test:
        return run_self_test()

    if args.files:
        line_paths = pass_paths = [p.resolve() for p in args.files]
    else:
        line_paths = tree_files(LINE_RULE_ROOTS)
        pass_paths = [p for p in tree_files(("src",))
                      if p.suffix in (".cpp", ".hpp")
                      and p not in EXCLUDED_FILES]
    if not pass_paths:
        print("analyze: no input files", file=sys.stderr)
        return 2
    program = build_program(pass_paths)
    findings, edges = run_passes(program)
    baseline = load_baseline(args.baseline)
    new, old, stale = split_by_baseline(findings, baseline)

    if args.write_baseline:
        text = render_baseline(findings, edges, baseline)
        args.baseline.write_text(text, encoding="utf-8")
        print(f"analyze: wrote {args.baseline.name} with {len(findings)} "
              f"finding(s), {len(edges)} lock-order edge(s)")
        return 0

    if args.check_baseline:
        want = render_baseline(findings, edges, baseline)
        have = args.baseline.read_text(encoding="utf-8") \
            if args.baseline.is_file() else ""
        unjustified = sorted(
            fp for fp, e in baseline["findings"].items()
            if e.get("justification") == PLACEHOLDER_JUSTIFICATION)
        if unjustified:
            print("analyze: baseline entries still carry the placeholder "
                  "justification: " + ", ".join(unjustified),
                  file=sys.stderr)
            return 1
        if want != have:
            print("analyze: baseline is out of date (stale entries, new "
                  "findings, or lock-order drift); rerun with "
                  "--write-baseline and review the diff", file=sys.stderr)
            if stale:
                print(f"analyze: {len(stale)} stale fingerprint(s): "
                      + ", ".join(stale), file=sys.stderr)
            for f in new:
                print(f"analyze: new: {f}", file=sys.stderr)
            return 1
        print(f"analyze: baseline current ({len(findings)} finding(s), "
              f"{len(edges)} lock-order edge(s))")
        return 0

    lines = check_lines(line_paths)
    if args.json_out:
        known = baseline.get("findings", {})
        doc = {
            "findings": [
                {
                    "rule": f.rule, "file": f.file, "line": f.line,
                    "fingerprint": f.fingerprint, "subject": f.subject,
                    "message": f.message,
                    "baselined": f.fingerprint in known,
                }
                for f in findings
            ] + [
                {"rule": f.rule, "file": f.file, "line": f.line,
                 "message": f.message, "baselined": False}
                for f in lines
            ],
            "lock_order": {
                "nodes": sorted({n for e in edges for n in e}),
                "edges": [{"from": a, "to": b, "witness": w}
                          for (a, b), w in sorted(edges.items())],
            },
            "summary": {"total": len(findings), "new": len(new),
                        "baselined": len(old), "stale": len(stale),
                        "line": len(lines)},
        }
        args.json_out.write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    for f in new + lines:
        print(f.github() if args.format == "github" else str(f))
    for fp in stale:
        entry = baseline["findings"][fp]
        print(f"analyze: warning: stale baseline entry {fp} "
              f"[{entry.get('rule')}] {entry.get('subject')} — run "
              f"--write-baseline", file=sys.stderr)
    print(f"analyze: {len(program.functions)} function(s), "
          f"{len(edges)} lock-order edge(s), {len(findings)} finding(s): "
          f"{len(old)} baselined, {len(new)} new; {len(lines)} line-rule "
          f"violation(s)", file=sys.stderr)
    return 1 if new or lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
