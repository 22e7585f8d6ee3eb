#!/usr/bin/env python3
"""ANTSim project-specific static analysis: prove the determinism and
conservation contracts at the source level instead of only observing
them dynamically.

The golden/determinism test tiers (bit-identical stats across
--threads, cache on/off, trace on/off) and the conservation audits
(docs/INVARIANTS.md) only catch violations the test inputs happen to
exercise. This pass encodes the contracts those tiers rest on as named
source-level rules and fails on any unsuppressed violation:

  no-unordered-iteration     iterating std::unordered_map/set feeds
                             hash-order nondeterminism into reports,
                             reductions, or traces
  no-wall-clock-in-sim       wall-clock time or platform randomness in
                             simulation code; simulated time is the
                             modelled cycle counters, randomness comes
                             from util/rng
  parallel-capture-discipline lambdas passed to parallelFor capturing
                             by reference: shared mutable state breaks
                             the clone-per-worker reduction model
                             unless every write is to a private slot
  no-pointer-keyed-order     std::map/std::set keyed on raw pointers
                             iterate in address order, which varies
                             run to run
  clone-completeness         every PeModel subclass must override
                             clone() and the clone must account for
                             every data member (or delegate to the
                             copy constructor via *this)
  counter-exactness          floating-point values flowing into
                             CounterSet add/set break the exact-sum
                             conservation laws

Modes: with the libclang Python bindings installed the files named by
compile_commands.json are parsed through libclang (type-accurate
tokenization); otherwise a built-in token-level C++ lexer is used.
Both modes run the same rule engines, so findings and suppressions
behave identically; only location fidelity differs.

Suppressions are inline and must carry a justification:

    // antsim-lint: allow(rule-a, rule-b) -- why this is safe

A suppression covers findings on its own line, on any continuation
comment lines directly below it, and on the first code line after the
comment block (put it directly above a multi-line statement).
File-wide:

    // antsim-lint: allow-file(rule) -- why this file is exempt

A suppression without the "-- reason" part is itself a finding
(bad-suppression), and --strict reports suppressions that no longer
match any finding (unused-suppression) so stale exemptions rot away.

Output is one "path:line:col: rule: message" line per finding, plus
optional SARIF 2.1.0 (--sarif FILE) for CI artifact upload. Results
are cached per file content hash under --cache-dir. Exit status: 0
clean, 1 findings, 2 usage or internal error.

Only the Python standard library is required: the bench containers and
the CI runner deliberately have no third-party packages installed.
"""

import argparse
import fnmatch
import hashlib
import json
import os
import re
import sys

LINT_VERSION = "1.0"

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories scanned when no explicit paths are given, relative to the
# repo root. tests/ is exempt by default: test code may use std::mt19937
# etc. to *generate* adversarial inputs, and its iteration order never
# reaches a report. tests/oracles is scanned: it holds the reference
# models the tests compare src/ against, under the same contracts.
DEFAULT_SCAN_DIRS = ("src", "bench", "examples", "tests/oracles")

# Never scanned, even when named explicitly by a directory argument.
EXCLUDE_GLOBS = (
    "build*/*",
    "tests/lint_fixtures/*",
)

SOURCE_EXTENSIONS = (".cc", ".hh", ".h", ".cpp", ".hpp")

# ---------------------------------------------------------------- rules

RULES = {
    "no-unordered-iteration": {
        "description":
            "Iteration over std::unordered_map/std::unordered_set: "
            "hash-table order is implementation- and run-dependent, so "
            "any value that flows from such a loop into reports, "
            "reductions, or traces breaks bit-exact determinism. Use an "
            "ordered container, sort the keys first, or suppress with a "
            "proof that the loop result is order-independent.",
        # Whitelisted files may iterate unordered containers freely.
        "whitelist": (),
    },
    "no-wall-clock-in-sim": {
        "description":
            "Wall-clock time or platform randomness in simulation "
            "code. Simulated time must be the modelled cycle counters "
            "(Counter::Cycles and its components); all randomness must "
            "come from util/rng (xoshiro256**, fully specified) so runs "
            "are bit-reproducible across platforms.",
        "whitelist": (
            # Logging timestamps diagnostics, never simulation state.
            "src/util/logging.hh",
            "src/util/logging.cc",
            # The sanctioned deterministic generator itself.
            "src/util/rng.hh",
            "src/util/rng.cc",
            # Host-side observability measures wall-clock by design;
            # instrumented code calls their nowNs() helpers and never
            # names a clock itself (docs/OBSERVABILITY.md).
            "src/obs/metrics.hh",
            "src/obs/host_trace.hh",
            "src/obs/host_trace.cc",
        ),
    },
    "parallel-capture-discipline": {
        "description":
            "Lambda passed to parallelFor captures by reference. The "
            "clone-per-worker model requires every worker write to go "
            "to a private replica or a task-indexed slot; an unproven "
            "by-reference capture of shared mutable state is a data "
            "race and an ordering leak. Capture by value/const, or "
            "suppress with a justification naming the per-slot "
            "discipline in use.",
        "whitelist": (),
    },
    "no-pointer-keyed-order": {
        "description":
            "std::map/std::set keyed on a raw pointer orders elements "
            "by address, which varies between runs and allocators; any "
            "iteration leaks nondeterminism. Key on a stable identity "
            "(index, name, id) instead.",
        "whitelist": (),
    },
    "clone-completeness": {
        "description":
            "PeModel subclasses must override clone() and the clone "
            "must account for every data member (mention each member "
            "or delegate to the copy constructor via *this). A clone "
            "that silently drops a member gives worker replicas "
            "different state and breaks parallel determinism "
            "(clone_test only catches members the test inputs reach).",
        "whitelist": (),
    },
    "counter-exactness": {
        "description":
            "Floating-point value flows into a CounterSet add/set. "
            "Counters obey exact integer conservation laws "
            "(docs/INVARIANTS.md); double rounding at the insertion "
            "point makes the laws hold only approximately and can "
            "diverge across compilers. Compute the value in integer "
            "arithmetic, or suppress with a justification for the "
            "fractional model and keep a single rounding site.",
        "whitelist": (),
    },
    # Meta rules about the suppression mechanism itself.
    "bad-suppression": {
        "description":
            "antsim-lint suppression without a '-- reason' "
            "justification; unexplained exemptions are not auditable.",
        "whitelist": (),
    },
    "unused-suppression": {
        "description":
            "antsim-lint suppression that matches no finding "
            "(reported under --strict); stale exemptions hide future "
            "regressions.",
        "whitelist": (),
    },
}

# Identifiers banned outright by no-wall-clock-in-sim wherever they
# appear (type and namespace members included).
WALL_CLOCK_IDENTIFIERS = {
    "system_clock", "steady_clock", "high_resolution_clock",
    "random_device", "mt19937", "mt19937_64", "default_random_engine",
    "minstd_rand", "minstd_rand0", "ranlux24", "ranlux48",
    "knuth_b", "gettimeofday", "clock_gettime", "localtime", "gmtime",
    "strftime", "timespec_get",
}

# Banned only as free/std-qualified calls: a member function named
# clock() or time() is simulated state, not the C library.
WALL_CLOCK_CALLS = {"time", "clock", "rand", "srand", "random", "drand48"}

UNORDERED_CONTAINERS = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
}

ORDERED_ASSOC_CONTAINERS = {"map", "set", "multimap", "multiset"}

FLOAT_BEARING_CALLS = {
    "ceil", "floor", "round", "lround", "llround", "nearbyint", "rint",
    "trunc", "fabs", "sqrt", "pow", "exp", "log", "log2",
}

# x86 SIMD intrinsics whose lanes are float or double: the `_ps`/`_pd`
# packed forms and the `_ss`/`_sd` scalar forms. Their results live in
# the float domain even when the C return type is integral (e.g.
# _mm256_movemask_ps returns int), so for counter-exactness they taint
# like a `double` cast. Sanctioned integer-only idioms -- movemask over
# an integer compare that was merely bit-cast to float lanes -- carry a
# justified `// antsim-lint: allow(counter-exactness)` at the site.
FLOAT_INTRINSIC_RE = re.compile(r"^_mm(?:256|512)?_\w*_(?:ps|pd|ss|sd)$")


def is_float_intrinsic(name):
    return bool(FLOAT_INTRINSIC_RE.match(name))


class Finding:
    def __init__(self, rule, path, line, col, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.col = col
        self.message = message

    def key(self):
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self):
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @staticmethod
    def from_dict(d):
        return Finding(d["rule"], d["path"], d["line"], d["col"],
                       d["message"])


# ------------------------------------------------------------- lexing

class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind      # "id", "num", "str", "char", "punct"
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}:{self.text}@{self.line}:{self.col}"


MULTI_PUNCT = (
    "<<=", ">>=", "...", "->*", "::", "->", "<<", ">>", "<=", ">=",
    "==", "!=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=",
)

_ID_START = set("abcdefghijklmnopqrstuvwxyz"
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789")


def tokenize(text):
    """Lex C++ source into (tokens, comments).

    comments is a list of (line, text) with the comment markers
    stripped; line continuations inside comments are not handled (the
    repo style never uses them).
    """
    tokens = []
    comments = []
    i = 0
    n = len(text)
    line = 1
    line_start = 0

    def col(pos):
        return pos - line_start + 1

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                if j == -1:
                    j = n
                comments.append((line, text[i + 2:j].strip()))
                i = j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                if j == -1:
                    j = n
                body = text[i + 2:j]
                for off, part in enumerate(body.split("\n")):
                    comments.append((line + off, part.strip(" *\t")))
                line += body.count("\n")
                i = j + 2 if j < n else n
                if body.count("\n"):
                    last_nl = text.rfind("\n", 0, i)
                    line_start = last_nl + 1
                continue
        # Raw string literal R"delim( ... )delim"
        if c == "R" and i + 1 < n and text[i + 1] == '"':
            m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
            if m:
                delim = m.group(1)
                end = text.find(")" + delim + '"', i + m.end())
                if end == -1:
                    end = n
                start_line, start_col = line, col(i)
                body = text[i:end + len(delim) + 2]
                tokens.append(Token("str", body, start_line, start_col))
                line += body.count("\n")
                i += len(body)
                if body.count("\n"):
                    last_nl = text.rfind("\n", 0, i)
                    line_start = last_nl + 1
                continue
        if c == '"' or c == "'":
            quote = c
            start_line, start_col = line, col(i)
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                if text[j] == "\n":
                    break  # unterminated; be forgiving
                j += 1
            tokens.append(Token("str" if quote == '"' else "char",
                                text[i:j + 1], start_line, start_col))
            i = j + 1
            continue
        if c in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            tokens.append(Token("id", text[i:j], line, col(i)))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = re.match(
                r"(0[xX][0-9a-fA-F'.pP+-]+|[0-9][0-9a-fA-F'.eE+-]*)"
                r"[uUlLfF]*",
                text[i:])
            lit = m.group(0)
            tokens.append(Token("num", lit, line, col(i)))
            i += len(lit)
            continue
        matched = False
        for p in MULTI_PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line, col(i)))
                i += len(p)
                matched = True
                break
        if matched:
            continue
        tokens.append(Token("punct", c, line, col(i)))
        i += 1
    return tokens, comments


def is_float_literal(tok):
    if tok.kind != "num":
        return False
    t = tok.text
    if t.startswith(("0x", "0X")):
        return "p" in t or "P" in t  # hex floats
    return ("." in t or "e" in t.rstrip("fFlL") or "E" in t.rstrip("fFlL")
            or t.rstrip("lL").endswith(("f", "F")))


def match_paren(tokens, open_index):
    """Index of the punct closing tokens[open_index] ('(', '[', '{', '<')."""
    pairs = {"(": ")", "[": "]", "{": "}", "<": ">"}
    open_text = tokens[open_index].text
    close_text = pairs[open_text]
    depth = 0
    i = open_index
    while i < len(tokens):
        t = tokens[i]
        if t.kind == "punct":
            if t.text == open_text:
                depth += 1
            elif t.text == close_text:
                depth -= 1
                if depth == 0:
                    return i
            elif open_text == "<" and t.text in (";", "{"):
                return -1  # not a template argument list after all
            elif open_text == "<" and t.text == ">>":
                depth -= 2
                if depth <= 0:
                    return i
        i += 1
    return -1


# ------------------------------------------------------- suppressions

SUPPRESS_RE = re.compile(
    r"antsim-lint:\s*(allow|allow-file)\(([^)]*)\)\s*(--\s*(.+))?$")


class Suppression:
    def __init__(self, path, line, rules, file_wide, reason, last_line):
        self.path = path
        self.line = line
        self.rules = rules
        self.file_wide = file_wide
        self.reason = reason
        # A suppression covers its own line and the line after its
        # comment block: continuation comment lines between the allow()
        # and the code extend the reach, so multi-line justifications
        # stay legible.
        self.last_line = last_line
        self.used = False

    def covers(self, finding):
        if finding.rule not in self.rules:
            return False
        if self.file_wide:
            return True
        return self.line <= finding.line <= self.last_line + 1


def collect_suppressions(path, comments, findings):
    comment_lines = {line for line, _ in comments}
    sups = []
    for line, text in comments:
        m = SUPPRESS_RE.search(text)
        if not m:
            if "antsim-lint:" in text:
                findings.append(Finding(
                    "bad-suppression", path, line, 1,
                    "malformed antsim-lint comment; expected "
                    "'antsim-lint: allow(rule) -- reason'"))
            continue
        rules = tuple(r.strip() for r in m.group(2).split(",") if r.strip())
        unknown = [r for r in rules if r not in RULES]
        if unknown:
            findings.append(Finding(
                "bad-suppression", path, line, 1,
                "suppression names unknown rule(s): " + ", ".join(unknown)))
            continue
        reason = (m.group(4) or "").strip()
        if not reason:
            findings.append(Finding(
                "bad-suppression", path, line, 1,
                "suppression must carry a '-- reason' justification"))
            continue
        last_line = line
        while last_line + 1 in comment_lines:
            last_line += 1
        sups.append(Suppression(path, line, rules,
                                m.group(1) == "allow-file", reason,
                                last_line))
    return sups


# ------------------------------------------------------- rule engines

INTEGER_TYPE_NAMES = {
    "uint64_t", "int64_t", "uint32_t", "int32_t", "size_t", "ptrdiff_t",
    "int", "long", "unsigned", "short", "auto",
}


def track_declared_vars(tokens, suppressions=()):
    """Per-file variable classification for the token-level engines.

    Returns (unordered_vars, float_vars): names declared with an
    unordered associative container type, and names declared double or
    float (locals, params, members alike) -- plus, folded into
    float_vars, *tainted integers*: integer variables whose initializer
    contains a floating-point literal, variable, cast, or math call, so
    a rounding that hides behind one intermediate before reaching a
    counter is still caught. Purely lexical: a name shadowed with a
    different type in another scope stays classified, which errs toward
    reporting -- suppressions handle the exceptions.

    Besides initializers, compound assignments (`x += expr` and
    friends) whose right side is float-domain also taint: that is the
    accumulation idiom of the SIMD kernels, where an integer tally is
    built from `_mm*_ps` movemasks (see FLOAT_INTRINSIC_RE).

    A counter-exactness suppression placed on (or directly above) an
    integer declaration -- or a tainting compound assignment --
    sanctions that variable: the rounding site carries the
    justification once, and the sanctioned integer may then flow into
    counters freely. This is the "single rounding site" discipline the
    rule text asks for.
    """
    unordered_vars = set()
    float_vars = set()
    for i, tok in enumerate(tokens):
        if tok.kind != "id":
            continue
        if tok.text in UNORDERED_CONTAINERS:
            j = i + 1
            if j < len(tokens) and tokens[j].text == "<":
                close = match_paren(tokens, j)
                if close == -1:
                    continue
                j = close + 1
            # Skip references/pointers and cv-qualifiers.
            while j < len(tokens) and (
                    tokens[j].text in ("&", "*", "const") or
                    tokens[j].kind == "punct" and tokens[j].text in ("&",)):
                j += 1
            if j < len(tokens) and tokens[j].kind == "id":
                unordered_vars.add(tokens[j].text)
        elif tok.text in ("double", "float"):
            prev = tokens[i - 1] if i > 0 else None
            if prev is not None and prev.kind == "punct" and \
                    prev.text == "<":
                # Template argument or cast context, e.g.
                # static_cast<double>( -- handled at use sites. (A
                # 'double' after ',' may be a later template argument,
                # but then no identifier follows and the declarator
                # check below filters it.)
                continue
            j = i + 1
            while j < len(tokens) and tokens[j].text in ("&", "*", "const"):
                j += 1
            if j < len(tokens) and tokens[j].kind == "id":
                nxt = tokens[j + 1] if j + 1 < len(tokens) else None
                if nxt is not None and (nxt.kind != "punct" or
                                        nxt.text not in
                                        (";", "=", ",", ")", "{", "[")):
                    continue
                float_vars.add(tokens[j].text)

    def sanctioned(decl_line):
        for s in suppressions:
            if "counter-exactness" not in s.rules:
                continue
            if s.file_wide or s.line <= decl_line <= s.last_line + 1:
                s.used = True
                return True
        return False

    # Second pass: integer declarations initialized from float-domain
    # expressions become tainted (iterate to a fixpoint so taint flows
    # through chains of intermediates; file-local token counts make the
    # quadratic worst case irrelevant).
    changed = True
    while changed:
        changed = False
        for i, tok in enumerate(tokens):
            if tok.kind != "id":
                continue
            name = None
            rhs_start = -1
            if tok.text in INTEGER_TYPE_NAMES:
                # Declaration with initializer: `uint64_t x = <expr>;`
                j = i + 1
                while j < len(tokens) and \
                        tokens[j].text in ("&", "*", "const"):
                    j += 1
                if j + 1 < len(tokens) and tokens[j].kind == "id" and \
                        tokens[j + 1].text == "=":
                    name = tokens[j].text
                    site_line = tokens[j].line
                    rhs_start = j + 2
            elif i + 1 < len(tokens) and \
                    tokens[i + 1].kind == "punct" and \
                    tokens[i + 1].text in ("+=", "-=", "*=", "/=", "%="):
                # Compound assignment: `x += <expr>;` (the SIMD-kernel
                # accumulation idiom). Skip member/qualified accesses;
                # lexical name matching errs toward reporting anyway.
                prev = tokens[i - 1] if i > 0 else None
                if not (prev is not None and prev.kind == "punct" and
                        prev.text in (".", "->", "::")):
                    name = tok.text
                    site_line = tok.line
                    rhs_start = i + 2
            if name is None or name in float_vars:
                continue
            if sanctioned(site_line):
                continue
            depth = 0
            tainted = False
            for k in range(rhs_start, len(tokens)):
                t = tokens[k]
                if t.kind == "punct":
                    if t.text in ("(", "[", "{"):
                        depth += 1
                    elif t.text in (")", "]", "}"):
                        depth -= 1
                    elif t.text == ";" and depth <= 0:
                        break
                if is_float_literal(t) or (
                        t.kind == "id" and
                        (t.text in ("double", "float") or
                         t.text in FLOAT_BEARING_CALLS or
                         is_float_intrinsic(t.text) or
                         t.text in float_vars)):
                    tainted = True
            if tainted:
                float_vars.add(name)
                changed = True
    return unordered_vars, float_vars


def rule_no_unordered_iteration(path, tokens, ctx, findings):
    unordered_vars = ctx["unordered_vars"]
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind == "id" and tok.text == "for" and i + 1 < n and \
                tokens[i + 1].text == "(":
            close = match_paren(tokens, i + 1)
            if close == -1:
                continue
            # Range-for: a single ':' at parenthesis depth 1 ('::' is
            # one token, so any bare ':' here is the range separator).
            depth = 0
            colon = -1
            for j in range(i + 1, close):
                t = tokens[j]
                if t.kind == "punct":
                    if t.text in ("(", "[", "{"):
                        depth += 1
                    elif t.text in (")", "]", "}"):
                        depth -= 1
                    elif t.text == ":" and depth == 1:
                        colon = j
                        break
                depth += 0
            if colon == -1:
                continue
            range_ids = [t.text for t in tokens[colon + 1:close]
                         if t.kind == "id"]
            bad = sorted(set(range_ids) & unordered_vars)
            inline_ctor = set(range_ids) & UNORDERED_CONTAINERS
            if bad or inline_ctor:
                what = ", ".join(bad) if bad else \
                    ", ".join(sorted(inline_ctor))
                findings.append(Finding(
                    "no-unordered-iteration", path, tok.line, tok.col,
                    f"range-for over unordered container ({what}): "
                    "iteration order is nondeterministic"))
        elif tok.kind == "id" and tok.text in ("begin", "cbegin",
                                               "rbegin", "crbegin"):
            if i >= 2 and tokens[i - 1].text in (".", "->") and \
                    tokens[i - 2].kind == "id" and \
                    tokens[i - 2].text in unordered_vars and \
                    i + 1 < n and tokens[i + 1].text == "(":
                findings.append(Finding(
                    "no-unordered-iteration", path, tok.line, tok.col,
                    f"iterator over unordered container "
                    f"'{tokens[i - 2].text}': iteration order is "
                    "nondeterministic"))


def rule_no_wall_clock(path, tokens, ctx, findings):
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != "id":
            continue
        if tok.text in WALL_CLOCK_IDENTIFIERS:
            findings.append(Finding(
                "no-wall-clock-in-sim", path, tok.line, tok.col,
                f"'{tok.text}': wall-clock time / platform randomness "
                "is banned in simulation code (count modelled cycles "
                "and use util/rng)"))
            continue
        if tok.text in WALL_CLOCK_CALLS and i + 1 < n and \
                tokens[i + 1].text == "(":
            prev = tokens[i - 1] if i > 0 else None
            if prev is not None and prev.kind == "punct" and \
                    prev.text in (".", "->"):
                continue  # member function: simulated state, fine
            if prev is not None and prev.text == "::" and i >= 2 and \
                    tokens[i - 2].kind == "id" and \
                    tokens[i - 2].text != "std":
                continue  # SomeClass::time(...), not the C library
            # A function *definition* with this name (e.g. a simulated
            # "std::uint64_t time() const { ... }" accessor) is not a
            # call: skip when the parameter list is followed by a body
            # or by declaration qualifiers.
            close = match_paren(tokens, i + 1)
            if close != -1 and close + 1 < n and \
                    tokens[close + 1].text in ("{", "const", "override",
                                               "noexcept", "final"):
                continue
            findings.append(Finding(
                "no-wall-clock-in-sim", path, tok.line, tok.col,
                f"call to '{tok.text}()': wall-clock time / platform "
                "randomness is banned in simulation code (count "
                "modelled cycles and use util/rng)"))


def rule_parallel_capture(path, tokens, ctx, findings):
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text != "parallelFor":
            continue
        if i + 1 >= n or tokens[i + 1].text != "(":
            continue
        close = match_paren(tokens, i + 1)
        if close == -1:
            continue
        j = i + 2
        while j < close:
            if tokens[j].text == "[" and tokens[j - 1].text in ("(", ","):
                cap_close = match_paren(tokens, j)
                if cap_close == -1 or cap_close > close:
                    break
                captured = []
                k = j + 1
                while k < cap_close:
                    if tokens[k].text == "&":
                        if k + 1 < cap_close and tokens[k + 1].kind == "id":
                            captured.append("&" + tokens[k + 1].text)
                            k += 2
                            continue
                        captured.append("&")
                    k += 1
                if captured:
                    findings.append(Finding(
                        "parallel-capture-discipline", path,
                        tokens[j].line, tokens[j].col,
                        "lambda passed to parallelFor captures by "
                        "reference (" + ", ".join(captured) + "): "
                        "prove per-slot/private-replica writes or "
                        "capture by value"))
                j = cap_close + 1
                continue
            j += 1


def rule_no_pointer_keyed_order(path, tokens, ctx, findings):
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text not in ORDERED_ASSOC_CONTAINERS:
            continue
        if i < 2 or tokens[i - 1].text != "::" or \
                tokens[i - 2].text != "std":
            continue
        if i + 1 >= n or tokens[i + 1].text != "<":
            continue
        close = match_paren(tokens, i + 1)
        if close == -1:
            continue
        # First top-level template argument = the key type.
        depth = 0
        key_tokens = []
        for j in range(i + 2, close):
            t = tokens[j]
            if t.kind == "punct":
                if t.text in ("<", "(", "[", "{"):
                    depth += 1
                elif t.text in (">", ")", "]", "}"):
                    depth -= 1
                elif t.text == "," and depth == 0:
                    break
            key_tokens.append(t)
        if any(t.text == "*" for t in key_tokens):
            key = " ".join(t.text for t in key_tokens)
            findings.append(Finding(
                "no-pointer-keyed-order", path, tok.line, tok.col,
                f"std::{tok.text} keyed on raw pointer ({key}): "
                "iteration follows address order, which is not "
                "reproducible"))


def class_body_members(tokens, body_begin, body_end):
    """Names of non-static data members declared in a class body.

    Walks statements at class-body depth; anything containing a '(' at
    that depth is a function (or function pointer member, which the
    repo does not use), anything starting with static/using/typedef/
    friend is skipped, and the member name is the last identifier
    before the ';' or before an '=' / '{' initializer.
    """
    members = []
    i = body_begin
    stmt = []
    depth = 0
    while i < body_end:
        t = tokens[i]
        if t.kind == "punct" and t.text in ("{", "(", "["):
            close = match_paren(tokens, i)
            if close == -1 or close > body_end:
                return members
            stmt.append(t)  # keep the opener as a function marker
            i = close + 1
            continue
        if t.kind == "punct" and t.text == ";":
            if stmt and not any(x.text == "(" for x in stmt):
                head = stmt[0].text
                if head not in ("static", "using", "typedef", "friend",
                                "public", "private", "protected",
                                "template", "enum", "class", "struct"):
                    name_toks = []
                    for x in stmt:
                        if x.kind == "punct" and x.text in ("=", "{"):
                            break
                        if x.kind == "id":
                            name_toks.append(x.text)
                    if len(name_toks) >= 2:
                        members.append(name_toks[-1])
            stmt = []
            i += 1
            continue
        if t.kind == "punct" and t.text == ":" and stmt and \
                stmt[-1].kind == "id" and \
                stmt[-1].text in ("public", "private", "protected"):
            stmt = []
            i += 1
            continue
        stmt.append(t)
        i += 1
    return members


def rule_clone_completeness(path, tokens, ctx, findings):
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text != "class":
            continue
        if i + 1 >= n or tokens[i + 1].kind != "id":
            continue
        class_name = tokens[i + 1].text
        # Find the base clause / body opener for this class head.
        j = i + 2
        bases = []
        saw_colon = False
        while j < n and tokens[j].text not in ("{", ";"):
            if tokens[j].text == ":":
                saw_colon = True
            elif saw_colon and tokens[j].kind == "id" and \
                    tokens[j].text not in ("public", "private",
                                           "protected", "virtual"):
                bases.append(tokens[j].text)
            j += 1
        if j >= n or tokens[j].text == ";":
            continue  # forward declaration
        if "PeModel" not in bases:
            continue
        body_close = match_paren(tokens, j)
        if body_close == -1:
            continue

        members = class_body_members(tokens, j + 1, body_close)

        # Locate clone() inside the class body.
        clone_body = None
        clone_decl_line = None
        k = j + 1
        while k < body_close:
            if tokens[k].kind == "id" and tokens[k].text == "clone" and \
                    k + 1 < n and tokens[k + 1].text == "(":
                clone_decl_line = tokens[k].line
                close = match_paren(tokens, k + 1)
                m = close + 1
                while m < body_close and tokens[m].text not in ("{", ";"):
                    m += 1
                if m < body_close and tokens[m].text == "{":
                    body_end = match_paren(tokens, m)
                    clone_body = tokens[m + 1:body_end]
                break
            k += 1

        if clone_decl_line is None:
            findings.append(Finding(
                "clone-completeness", path, tok.line, tok.col,
                f"PeModel subclass '{class_name}' does not override "
                "clone(); worker replicas would share state through "
                "the base object"))
            continue
        if clone_body is None:
            # Defined out of line: look for ClassName :: clone in this
            # file; cross-file definitions are beyond one-TU analysis.
            for m in range(n - 3):
                if tokens[m].kind == "id" and \
                        tokens[m].text == class_name and \
                        tokens[m + 1].text == "::" and \
                        tokens[m + 2].text == "clone":
                    b = m + 3
                    while b < n and tokens[b].text != "{":
                        b += 1
                    if b < n:
                        body_end = match_paren(tokens, b)
                        clone_body = tokens[b + 1:body_end]
                    break
        if clone_body is None:
            findings.append(Finding(
                "clone-completeness", path, tok.line, tok.col,
                f"'{class_name}::clone()' is declared but not defined "
                "in this file; define it inline (or in the same file) "
                "so completeness is checkable"))
            continue

        body_ids = {t.text for t in clone_body if t.kind == "id"}
        uses_this = any(clone_body[x].text == "this"
                        for x in range(len(clone_body)))
        missing = [m for m in members if m not in body_ids]
        if missing and not uses_this:
            findings.append(Finding(
                "clone-completeness", path, tok.line, tok.col,
                f"'{class_name}::clone()' does not account for data "
                "member(s): " + ", ".join(missing) +
                " (mention each member or delegate to the copy "
                "constructor via *this)"))


def rule_counter_exactness(path, tokens, ctx, findings):
    float_vars = ctx["float_vars"]
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text not in ("add", "set"):
            continue
        if i + 1 >= n or tokens[i + 1].text != "(":
            continue
        if i + 3 >= n or tokens[i + 2].text != "Counter" or \
                tokens[i + 3].text != "::":
            continue
        close = match_paren(tokens, i + 1)
        if close == -1:
            continue
        # Second top-level argument (the delta/value expression).
        depth = 0
        arg = []
        seen_comma = False
        for j in range(i + 2, close):
            t = tokens[j]
            if t.kind == "punct":
                if t.text in ("(", "[", "{", "<"):
                    depth += 1
                elif t.text in (")", "]", "}", ">"):
                    depth -= 1
                elif t.text == "," and depth == 0:
                    seen_comma = True
                    continue
            if seen_comma:
                arg.append(t)
        if not arg:
            continue
        reasons = []
        for t in arg:
            if is_float_literal(t):
                reasons.append(f"float literal {t.text}")
            elif t.kind == "id" and t.text in ("double", "float"):
                reasons.append(f"'{t.text}' cast/type")
            elif t.kind == "id" and t.text in FLOAT_BEARING_CALLS:
                reasons.append(f"float-domain call '{t.text}'")
            elif t.kind == "id" and is_float_intrinsic(t.text):
                reasons.append(f"float-lane intrinsic '{t.text}'")
            elif t.kind == "id" and t.text in float_vars:
                reasons.append(f"floating-point variable '{t.text}'")
        if reasons:
            findings.append(Finding(
                "counter-exactness", path, tok.line, tok.col,
                "floating-point value flows into a counter "
                f"({'; '.join(sorted(set(reasons)))}): exact-sum "
                "conservation laws require integer arithmetic"))


TOKEN_RULES = (
    rule_no_unordered_iteration,
    rule_no_wall_clock,
    rule_parallel_capture,
    rule_no_pointer_keyed_order,
    rule_clone_completeness,
    rule_counter_exactness,
)


# ----------------------------------------------------- clang frontend

def load_clang_index():
    """Return a clang.cindex.Index or None if bindings are unavailable."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        return cindex.Index.create()
    except Exception:  # library missing or ABI mismatch
        return None


def clang_tokenize(index, path, compile_args):
    """Tokenize through libclang; falls back to None on parse failure.

    The AST is also walked for type-accurate refinements of the
    container rules: variables whose canonical type mentions an
    unordered associative container are added to the tracked set even
    when declared through typedefs the lexical pass cannot see.
    """
    from clang import cindex  # type: ignore
    try:
        tu = index.parse(path, args=compile_args,
                         options=cindex.TranslationUnit.
                         PARSE_DETAILED_PROCESSING_RECORD)
    except Exception:
        return None, None
    kind_map = {
        cindex.TokenKind.IDENTIFIER: "id",
        cindex.TokenKind.KEYWORD: "id",
        cindex.TokenKind.LITERAL: "num",
        cindex.TokenKind.PUNCTUATION: "punct",
    }
    tokens = []
    comments = []
    for t in tu.get_tokens(extent=tu.cursor.extent):
        if t.location.file is None or t.location.file.name != path:
            continue
        if t.kind == cindex.TokenKind.COMMENT:
            text = t.spelling
            text = text[2:] if text.startswith("//") else \
                text[2:-2] if text.startswith("/*") else text
            for off, part in enumerate(text.split("\n")):
                comments.append((t.location.line + off,
                                 part.strip(" *\t")))
            continue
        kind = kind_map.get(t.kind, "punct")
        text = t.spelling
        if kind == "num" and (text.startswith('"') or
                              text.startswith("'")):
            kind = "str" if text.startswith('"') else "char"
        tokens.append(Token(kind, text, t.location.line,
                            t.location.column))
    extra_unordered = set()
    def walk(cursor):
        if cursor.kind in (cindex.CursorKind.VAR_DECL,
                           cindex.CursorKind.FIELD_DECL):
            spelled = cursor.type.get_canonical().spelling
            if "unordered_map" in spelled or "unordered_set" in spelled:
                extra_unordered.add(cursor.spelling)
        for child in cursor.get_children():
            if child.location.file is not None and \
                    child.location.file.name == path:
                walk(child)
    walk(tu.cursor)
    return (tokens, comments), extra_unordered


def load_compile_args(compile_commands_path):
    """Map absolute source path -> compiler args from the database."""
    args_by_file = {}
    try:
        with open(compile_commands_path, encoding="utf-8") as f:
            db = json.load(f)
    except (OSError, ValueError):
        return args_by_file
    for entry in db:
        path = os.path.normpath(
            os.path.join(entry["directory"], entry["file"]))
        raw = entry.get("arguments")
        if raw is None:
            raw = entry.get("command", "").split()
        # Drop compiler, -c, -o and the source file itself.
        args = []
        skip = False
        for a in raw[1:]:
            if skip:
                skip = False
                continue
            if a in ("-c", path, entry["file"]):
                continue
            if a == "-o":
                skip = True
                continue
            args.append(a)
        args_by_file[path] = args
    return args_by_file


# ----------------------------------------------------------- driver

def rel(path):
    return os.path.relpath(path, REPO_ROOT)


def path_excluded(relpath):
    return any(fnmatch.fnmatch(relpath, g) or
               fnmatch.fnmatch(relpath, g.rstrip("/*") + "/*")
               for g in EXCLUDE_GLOBS)


def rule_whitelisted(rule, relpath):
    return any(fnmatch.fnmatch(relpath, g)
               for g in RULES[rule]["whitelist"])


def analyze_file(path, mode_state):
    """Produce raw findings for one file (before suppression)."""
    relpath = rel(path)
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()

    lexed = None
    extra_unordered = set()
    used_clang = False
    if mode_state["index"] is not None:
        compile_args = mode_state["args_by_file"].get(os.path.abspath(path))
        if compile_args is not None:
            result, extra = clang_tokenize(mode_state["index"], path,
                                           compile_args)
            if result is not None:
                lexed = result
                extra_unordered = extra
                used_clang = True
    if lexed is None:
        lexed = tokenize(text)
    tokens, comments = lexed

    findings = []
    suppressions = collect_suppressions(relpath, comments, findings)

    unordered_vars, float_vars = track_declared_vars(tokens, suppressions)
    unordered_vars |= extra_unordered
    ctx = {"unordered_vars": unordered_vars, "float_vars": float_vars}

    for rule_fn in TOKEN_RULES:
        before = len(findings)
        rule_fn(relpath, tokens, ctx, findings)
        # Drop findings for rules whitelisted on this path.
        findings[before:] = [
            f for f in findings[before:]
            if not rule_whitelisted(f.rule, relpath)
        ]

    kept = []
    for f in findings:
        covered = False
        for s in suppressions:
            if s.covers(f):
                s.used = True
                covered = True
        if not covered:
            kept.append(f)
    unused = [s for s in suppressions if not s.used]
    return kept, unused, used_clang


def cache_key(path, mode_tag):
    h = hashlib.sha256()
    h.update(LINT_VERSION.encode())
    h.update(mode_tag.encode())
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def write_sarif(findings, out_path):
    rules_meta = [
        {
            "id": rid,
            "shortDescription": {"text": rid},
            "fullDescription": {"text": meta["description"]},
            "defaultConfiguration": {"level": "error"},
        }
        for rid, meta in sorted(RULES.items())
    ]
    rule_index = {r["id"]: i for i, r in enumerate(rules_meta)}
    results = [
        {
            "ruleId": f.rule,
            "ruleIndex": rule_index[f.rule],
            "level": "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": f.path.replace(os.sep, "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": f.line,
                        "startColumn": max(1, f.col),
                    },
                },
            }],
        }
        for f in findings
    ]
    sarif = {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/"
                   "sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "antsim-lint",
                    "version": LINT_VERSION,
                    "informationUri":
                        "docs/STATIC_ANALYSIS.md",
                    "rules": rules_meta,
                },
            },
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }],
    }
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(sarif, f, indent=1)
        f.write("\n")


def gather_files(paths):
    files = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(REPO_ROOT, p)
        if os.path.isdir(ap):
            for root, dirs, names in os.walk(ap):
                dirs.sort()
                dirs[:] = [d for d in dirs
                           if not path_excluded(rel(os.path.join(root, d)))]
                for name in sorted(names):
                    full = os.path.join(root, name)
                    if name.endswith(SOURCE_EXTENSIONS) and \
                            not path_excluded(rel(full)):
                        files.append(full)
        elif os.path.isfile(ap):
            files.append(ap)
        else:
            print(f"antsim-lint: no such path: {p}", file=sys.stderr)
            return None
    return files


def main(argv):
    parser = argparse.ArgumentParser(
        prog="antsim_lint.py",
        description="ANTSim determinism/conservation static analysis")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             f"(default: {' '.join(DEFAULT_SCAN_DIRS)})")
    parser.add_argument("--mode", choices=("auto", "clang", "tokens"),
                        default="auto",
                        help="frontend: libclang bindings, built-in "
                             "token lexer, or auto-detect (default)")
    parser.add_argument("--compile-commands",
                        default=os.path.join(REPO_ROOT, "build",
                                             "compile_commands.json"),
                        help="compilation database for clang mode")
    parser.add_argument("--sarif", metavar="FILE",
                        help="also write findings as SARIF 2.1.0")
    parser.add_argument("--cache-dir",
                        default=os.path.join(REPO_ROOT,
                                             ".antsim-lint-cache"),
                        help="per-file result cache directory")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache")
    parser.add_argument("--strict", action="store_true",
                        help="report unused suppressions as findings")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary line")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rid, meta in sorted(RULES.items()):
            print(f"{rid}\n    {meta['description']}\n")
        return 0

    files = gather_files(args.paths or list(DEFAULT_SCAN_DIRS))
    if files is None:
        return 2

    mode_state = {"index": None, "args_by_file": {}}
    if args.mode in ("auto", "clang"):
        index = load_clang_index()
        if index is not None and os.path.isfile(args.compile_commands):
            mode_state["index"] = index
            mode_state["args_by_file"] = \
                load_compile_args(args.compile_commands)
        elif args.mode == "clang":
            print("antsim-lint: clang mode requested but libclang "
                  "bindings or compile_commands.json are unavailable",
                  file=sys.stderr)
            return 2

    mode_tag = "clang" if mode_state["index"] is not None else "tokens"
    use_cache = not args.no_cache
    if use_cache:
        os.makedirs(args.cache_dir, exist_ok=True)

    all_findings = []
    all_unused = []
    for path in files:
        key = cache_key(path, mode_tag) if use_cache else None
        cache_path = os.path.join(args.cache_dir, key + ".json") \
            if key else None
        if cache_path and os.path.isfile(cache_path):
            try:
                with open(cache_path, encoding="utf-8") as f:
                    cached = json.load(f)
                all_findings.extend(
                    Finding.from_dict(d) for d in cached["findings"])
                all_unused.extend(
                    Finding.from_dict(d) for d in cached["unused"])
                continue
            except (OSError, ValueError, KeyError):
                pass
        findings, unused_sups, _ = analyze_file(path, mode_state)
        unused = [
            Finding("unused-suppression", s.path, s.line, 1,
                    "suppression for " + ", ".join(s.rules) +
                    " matches no finding")
            for s in unused_sups
        ]
        if cache_path:
            try:
                with open(cache_path, "w", encoding="utf-8") as f:
                    json.dump({
                        "findings": [x.to_dict() for x in findings],
                        "unused": [x.to_dict() for x in unused],
                    }, f)
            except OSError:
                pass
        all_findings.extend(findings)
        all_unused.extend(unused)

    if args.strict:
        all_findings.extend(all_unused)
    all_findings.sort(key=Finding.key)

    for f in all_findings:
        print(f"{f.path}:{f.line}:{f.col}: {f.rule}: {f.message}")
    if args.sarif:
        write_sarif(all_findings, args.sarif)
    if not args.quiet:
        print(f"antsim-lint: {len(all_findings)} finding(s) in "
              f"{len(files)} file(s) [{mode_tag} mode]",
              file=sys.stderr)
    return 1 if all_findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
