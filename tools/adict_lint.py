#!/usr/bin/env python3
"""adict_lint: repo-invariant checker for the adaptive-dictionary codebase.

The 18 dictionary formats, the metric names, the trace-span names, and the
HTTP exporter's routes each live in several independent places (dispatch
switches, docs tables, the committed benchmark baseline). Nothing ties
those surfaces together at compile time, so additions drift: a 19th format
lands in the enum but not in the size model, a new counter or endpoint
never reaches docs/observability.md. This lint parses the sources and docs
directly (plain text, no libclang) and fails CI the moment any surface
disagrees with the others.

Usage:
    tools/adict_lint.py [--root DIR] [--list-checks] [CHECK ...]

Exit codes: 0 clean, 1 violations found, 2 the lint itself could not run
(missing file, unparseable table). Every violation prints one pointed
`file:line: [check] message` line.

The enforced invariants, how to register a new format/metric/span so the
lint stays green, and the seeded-violation test live in
docs/static_analysis.md and tests/lint_test.cc.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Small helpers


class LintError(Exception):
    """The lint itself cannot run (exit 2), distinct from violations."""


class Reporter:
    def __init__(self) -> None:
        self.violations: list[str] = []

    def report(self, path, line: int | None, check: str, message: str) -> None:
        where = f"{path}:{line}" if line else str(path)
        self.violations.append(f"{where}: [{check}] {message}")


def read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as err:
        raise LintError(f"cannot read {path}: {err}") from err


def strip_comments(code: str) -> str:
    """Removes // and /* */ comments, preserving line numbers and string
    literals (so names quoted in commentary don't count as uses)."""
    out: list[str] = []
    i, n = 0, len(code)
    while i < n:
        ch = code[i]
        if ch == '"':
            j = i + 1
            while j < n and code[j] != '"':
                j += 2 if code[j] == "\\" else 1
            out.append(code[i : min(j + 1, n)])
            i = j + 1
        elif ch == "'":
            j = i + 1
            while j < n and code[j] != "'":
                j += 2 if code[j] == "\\" else 1
            out.append(code[i : min(j + 1, n)])
            i = j + 1
        elif code.startswith("//", i):
            j = code.find("\n", i)
            i = n if j == -1 else j
        elif code.startswith("/*", i):
            j = code.find("*/", i + 2)
            segment = code[i : n if j == -1 else j + 2]
            out.append("\n" * segment.count("\n"))
            i = n if j == -1 else j + 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# ---------------------------------------------------------------------------
# Source-of-truth parsers


def parse_format_enum(root: Path) -> list[str]:
    """Enum members of DictFormat, in declaration (== serde tag) order."""
    path = root / "src/dict/dictionary.h"
    text = read_text(path)
    match = re.search(r"enum class DictFormat \{(.*?)\};", text, re.S)
    if not match:
        raise LintError(f"{path}: cannot find `enum class DictFormat`")
    members = re.findall(r"^\s*(k\w+)\s*,", strip_comments(match.group(1)), re.M)
    if not members:
        raise LintError(f"{path}: DictFormat enum parsed to zero members")
    return members


def parse_declared_format_count(root: Path) -> int:
    path = root / "src/dict/dictionary.h"
    match = re.search(r"kNumDictFormats\s*=\s*(\d+)", read_text(path))
    if not match:
        raise LintError(f"{path}: cannot find kNumDictFormats")
    return int(match.group(1))


def parse_format_names(root: Path) -> dict[str, str]:
    """Enum member -> paper name, from the DictFormatName switch."""
    path = root / "src/dict/dictionary.cc"
    text = read_text(path)
    match = re.search(
        r"DictFormatName\(DictFormat format\) \{.*?\n\}", text, re.S
    )
    if not match:
        raise LintError(f"{path}: cannot find DictFormatName definition")
    pairs = re.findall(
        r"case DictFormat::(k\w+):\s*return \"([^\"]+)\";", match.group(0)
    )
    return dict(pairs)


def flatten(paper_name: str) -> str:
    """Paper name -> metric suffix, e.g. "fc block rp 12" -> fc_block_rp_12
    (mirrors ChosenFormatCounterName in compression_manager.cc)."""
    return paper_name.replace(" ", "_")


# ---------------------------------------------------------------------------
# Format checks: every surface lists exactly the enum's formats


def case_labels(text: str) -> set[str]:
    return set(re.findall(r"case DictFormat::(k\w+)\s*:", text))


def check_formats(root: Path, rep: Reporter) -> None:
    check = "formats"
    members = parse_format_enum(root)
    declared = parse_declared_format_count(root)
    if declared != len(members):
        rep.report(
            root / "src/dict/dictionary.h", None, check,
            f"kNumDictFormats is {declared} but the DictFormat enum has "
            f"{len(members)} members — update the constant with the enum",
        )

    # Dispatch surfaces that must name every format explicitly.
    for rel, what in [
        ("src/core/size_model.cc", "the SizeModel per-format switch"),
        ("src/dict/serialization.cc", "the serde payload dispatch"),
        ("src/dict/dictionary.cc", "the DictFormatName table"),
    ]:
        text = strip_comments(read_text(root / rel))
        missing = [m for m in members if m not in case_labels(text)]
        for m in missing:
            rep.report(
                root / rel, None, check,
                f"DictFormat::{m} is in the enum but missing from {what} — "
                f"add a `case DictFormat::{m}:` arm",
            )

    names = parse_format_names(root)
    unnamed = [m for m in members if m not in names]
    # Members without a paper name were already reported against the
    # DictFormatName table above; downstream name checks use what exists.
    paper_names = {names[m] for m in members if m in names}
    if len(paper_names) != len(names):
        rep.report(
            root / "src/dict/dictionary.cc", None, check,
            "DictFormatName returns duplicate paper names",
        )

    # The guarded-build degradation chain must reference live enum members.
    guard_path = root / "src/core/build_guard.cc"
    guard = strip_comments(read_text(guard_path))
    chain = re.search(
        r"std::array<DictFormat,\s*\d+>\s*chain\s*=\s*\{(.*?)\}", guard, re.S
    )
    if not chain:
        rep.report(
            guard_path, None, check,
            "cannot find the degradation chain "
            "(`std::array<DictFormat, N> chain = {...}`)",
        )
    else:
        chain_members = re.findall(r"DictFormat::(k\w+)", chain.group(1))
        for m in chain_members:
            if m not in members:
                rep.report(
                    guard_path, None, check,
                    f"degradation chain references DictFormat::{m}, which is "
                    f"not in the enum",
                )
        if chain_members and chain_members[-1] != "kArray":
            rep.report(
                guard_path, None, check,
                "degradation chain must terminate in DictFormat::kArray, the "
                "format that cannot fail on valid input",
            )

    # The perf harness sweeps AllDictFormats(), so it follows the enum by
    # construction — but the committed baseline it is compared against does
    # not. A format missing from BENCH_core.json would make every run of
    # `perf_regression --baseline` silently skip it.
    bench_path = root / "BENCH_core.json"
    try:
        rows = json.loads(read_text(bench_path))
    except json.JSONDecodeError as err:
        raise LintError(f"{bench_path}: not valid JSON: {err}") from err
    bench_formats = {row.get("format") for row in rows}
    for m in members:
        if m in unnamed:
            continue
        if names[m] not in bench_formats:
            rep.report(
                bench_path, None, check,
                f"format \"{names[m]}\" (DictFormat::{m}) has no rows in the "
                f"committed perf baseline — regenerate it with "
                f"bench/perf_regression",
            )
    for f in sorted(x for x in bench_formats if x not in paper_names):
        rep.report(
            bench_path, None, check,
            f"perf baseline contains unknown format \"{f}\" — stale after a "
            f"rename? regenerate with bench/perf_regression",
        )

    # docs/format_layouts.md: the canonical format table must mirror the
    # enum exactly — member, serde tag (== enum value), and paper name.
    doc_path = root / "docs/format_layouts.md"
    doc = read_text(doc_path)
    rows_re = re.findall(
        r"^\|\s*(\d+)\s*\|\s*`(k\w+)`\s*\|\s*`([^`]+)`\s*\|", doc, re.M
    )
    if not rows_re:
        rep.report(
            doc_path, None, check,
            "cannot find the format table (rows of `| tag | `kEnum` | "
            "`paper name` | ... |`) — see docs/static_analysis.md",
        )
    else:
        doc_by_member = {m: (int(tag), name) for tag, m, name in rows_re}
        for value, m in enumerate(members):
            if m not in doc_by_member:
                rep.report(
                    doc_path, None, check,
                    f"DictFormat::{m} is missing from the format table",
                )
                continue
            tag, name = doc_by_member[m]
            if tag != value:
                rep.report(
                    doc_path, None, check,
                    f"format table lists serde tag {tag} for {m}, but its "
                    f"enum value (the tag actually serialized) is {value}",
                )
            if m not in unnamed and name != names[m]:
                rep.report(
                    doc_path, None, check,
                    f"format table names {m} \"{name}\" but DictFormatName "
                    f"says \"{names[m]}\"",
                )
        for m in doc_by_member:
            if m not in members:
                rep.report(
                    doc_path, None, check,
                    f"format table lists `{m}`, which is not in the enum",
                )

    # docs/observability.md documents one manager.chosen.* counter per
    # format (flattened paper name).
    obs_doc = read_text(root / "docs/observability.md")
    for m in members:
        if m in unnamed:
            continue
        counter = f"manager.chosen.{flatten(names[m])}"
        if counter not in obs_doc:
            rep.report(
                root / "docs/observability.md", None, check,
                f"`{counter}` (the per-format decision counter for "
                f"\"{names[m]}\") is not documented in the manager.chosen "
                f"list",
            )


# ---------------------------------------------------------------------------
# Metric checks: code <-> docs/observability.md


METRIC_CALL_RE = re.compile(
    r"Get(?:Counter|Gauge|Histogram)\(\s*\"([^\"]+)\"", re.S
)
# Event-counter helpers (CountServerEvent, CountCacheEvent, ...) forward a
# literal name to GetCounter; the call sites carry the names the registry
# actually sees.
METRIC_HELPER_RE = re.compile(r"Count\w*Event\(\s*\"([^\"]+)\"", re.S)


def code_metric_names(root: Path) -> dict[str, tuple[Path, int]]:
    """Literal metric names registered anywhere under src/."""
    names: dict[str, tuple[Path, int]] = {}
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        text = strip_comments(read_text(path))
        for regex in (METRIC_CALL_RE, METRIC_HELPER_RE):
            for match in regex.finditer(text):
                names.setdefault(
                    match.group(1), (path, line_of(text, match.start()))
                )
    return names


def doc_metric_names(root: Path) -> dict[str, int]:
    """Metric names from the `## Metric reference` tables."""
    path = root / "docs/observability.md"
    doc = read_text(path)
    match = re.search(r"## Metric reference(.*?)\n## ", doc, re.S)
    if not match:
        raise LintError(f"{path}: cannot find the `## Metric reference` section")
    names: dict[str, int] = {}
    base = line_of(doc, match.start(1))
    for i, line in enumerate(match.group(1).splitlines()):
        row = re.match(r"\|\s*`([^`]+)`\s*\|", line)
        if row:
            names.setdefault(row.group(1), base + i)
    if not names:
        raise LintError(f"{path}: metric reference tables parsed to zero rows")
    return names


def check_metrics(root: Path, rep: Reporter) -> None:
    check = "metrics"
    code = code_metric_names(root)
    doc = doc_metric_names(root)
    doc_path = root / "docs/observability.md"

    exact_doc = {n for n in doc if "<" not in n}
    prefix_doc = {n.split("<", 1)[0] for n in doc if "<" in n}

    for name, (path, line) in sorted(code.items()):
        if name in exact_doc:
            continue
        if any(name.startswith(p) for p in prefix_doc):
            continue
        rep.report(
            path, line, check,
            f"metric \"{name}\" is registered here but not documented in "
            f"docs/observability.md — add it to the metric reference",
        )

    # Reverse direction: documented names must exist in code. Parameterized
    # rows (`x.<y>`) are satisfied by a literal `"x.` prefix anywhere.
    all_code_text = None
    for name, line in sorted(doc.items()):
        if "<" in name:
            prefix = name.split("<", 1)[0]
            if all_code_text is None:
                all_code_text = "\n".join(
                    strip_comments(read_text(p))
                    for p in sorted((root / "src").rglob("*"))
                    if p.suffix in (".h", ".cc")
                )
            if f'"{prefix}' not in all_code_text:
                rep.report(
                    doc_path, line, check,
                    f"documented metric family \"{name}\" has no "
                    f"\"{prefix}...\" registration in src/",
                )
        elif name not in code:
            rep.report(
                doc_path, line, check,
                f"documented metric \"{name}\" is not registered anywhere "
                f"in src/ — stale doc row?",
            )


# ---------------------------------------------------------------------------
# Span checks: code <-> the span catalog


SPAN_MACRO_RE = re.compile(r"ADICT_TRACE_SPAN\(\s*\"([^\"]+)\"")
# Direct ScopedSpan construction with a literal first argument, e.g.
#   obs::ScopedSpan span("x");  std::optional<obs::ScopedSpan> s("x");
SPAN_CTOR_RE = re.compile(r"ScopedSpan>?\s+\w+\s*\(\s*\"([^\"]+)\"")
SPAN_BLOCK_BEGIN = "adict-lint: span-names-begin"
SPAN_BLOCK_END = "adict-lint: span-names-end"


def code_span_names(root: Path) -> dict[str, tuple[Path, int]]:
    names: dict[str, tuple[Path, int]] = {}
    for base in ("src", "examples", "bench"):
        for path in sorted((root / base).rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            raw = read_text(path)
            text = strip_comments(raw)
            for regex in (SPAN_MACRO_RE, SPAN_CTOR_RE):
                for match in regex.finditer(text):
                    names.setdefault(
                        match.group(1), (path, line_of(text, match.start()))
                    )
            # Registered span-name arrays (dynamic dispatch like the TPC-H
            # per-query spans) are declared with marker comments; the raw
            # text is scanned because the markers themselves are comments.
            pos = 0
            while True:
                begin = raw.find(SPAN_BLOCK_BEGIN, pos)
                if begin == -1:
                    break
                end = raw.find(SPAN_BLOCK_END, begin)
                if end == -1:
                    raise LintError(
                        f"{path}: unterminated {SPAN_BLOCK_BEGIN} block"
                    )
                for match in re.finditer(r"\"([^\"]+)\"", raw[begin:end]):
                    names.setdefault(
                        match.group(1),
                        (path, line_of(raw, begin + match.start())),
                    )
                pos = end
    return names


def doc_span_names(root: Path) -> dict[str, int]:
    """Span names from the catalog table, expanding `a01` … `a22` ranges."""
    path = root / "docs/observability.md"
    doc = read_text(path)
    match = re.search(r"### Span catalog(.*?)(\n## |\Z)", doc, re.S)
    if not match:
        raise LintError(f"{path}: cannot find the `### Span catalog` section")
    names: dict[str, int] = {}
    base = line_of(doc, match.start(1))
    range_re = re.compile(
        r"`(?P<prefix>[\w.]*?)(?P<lo>\d+)`\s*(?:…|\.\.\.)\s*"
        r"`(?P=prefix)(?P<hi>\d+)`"
    )
    for i, line in enumerate(match.group(1).splitlines()):
        if not line.startswith("|"):
            continue
        cell = line.split("|")[1]
        expanded = range_re.search(cell)
        if expanded:
            lo, hi = expanded.group("lo"), expanded.group("hi")
            for v in range(int(lo), int(hi) + 1):
                names.setdefault(
                    f"{expanded.group('prefix')}{v:0{len(lo)}d}", base + i
                )
        else:
            for span in re.findall(r"`([^`]+)`", cell):
                names.setdefault(span, base + i)
    if not names:
        raise LintError(f"{path}: span catalog parsed to zero rows")
    return names


def check_spans(root: Path, rep: Reporter) -> None:
    check = "spans"
    code = code_span_names(root)
    doc = doc_span_names(root)
    for name, (path, line) in sorted(code.items()):
        if name not in doc:
            rep.report(
                path, line, check,
                f"span \"{name}\" is opened here but missing from the span "
                f"catalog in docs/observability.md",
            )
    for name, line in sorted(doc.items()):
        if name not in code:
            rep.report(
                root / "docs/observability.md", line, check,
                f"catalogued span \"{name}\" is never opened in "
                f"src/, examples/, or bench/ — stale catalog row?",
            )


# ---------------------------------------------------------------------------
# Endpoint checks: the HTTP exporter's route table <-> docs/observability.md


ROUTE_BLOCK_BEGIN = "adict-lint: http-routes-begin"
ROUTE_BLOCK_END = "adict-lint: http-routes-end"
ROUTE_ENTRY_RE = re.compile(r"\{\s*\"(/[^\"]*)\",\s*\"(GET|POST)\"\s*\}")
DOC_ENDPOINT_RE = re.compile(r"\|\s*`(GET|POST)\s+(/\S+)`\s*\|")


def code_endpoints(root: Path) -> dict[str, tuple[Path, int]]:
    """`METHOD /path` routes from the exporter's marked route table."""
    path = root / "src/obs/http_exporter.cc"
    raw = read_text(path)
    begin = raw.find(ROUTE_BLOCK_BEGIN)
    end = raw.find(ROUTE_BLOCK_END, begin)
    if begin == -1 or end == -1:
        raise LintError(f"{path}: cannot find the {ROUTE_BLOCK_BEGIN} block")
    routes: dict[str, tuple[Path, int]] = {}
    for match in ROUTE_ENTRY_RE.finditer(raw, begin, end):
        routes.setdefault(
            f"{match.group(2)} {match.group(1)}",
            (path, line_of(raw, match.start())),
        )
    if not routes:
        raise LintError(f"{path}: route table parsed to zero routes")
    return routes


def doc_endpoints(root: Path) -> dict[str, int]:
    """`METHOD /path` rows from the `## HTTP endpoints` table."""
    path = root / "docs/observability.md"
    doc = read_text(path)
    match = re.search(r"## HTTP endpoints(.*?)\n## ", doc, re.S)
    if not match:
        raise LintError(f"{path}: cannot find the `## HTTP endpoints` section")
    endpoints: dict[str, int] = {}
    base = line_of(doc, match.start(1))
    for i, line in enumerate(match.group(1).splitlines()):
        row = DOC_ENDPOINT_RE.match(line)
        if row:
            endpoints.setdefault(f"{row.group(1)} {row.group(2)}", base + i)
    if not endpoints:
        raise LintError(f"{path}: HTTP endpoints table parsed to zero rows")
    return endpoints


def check_endpoints(root: Path, rep: Reporter) -> None:
    check = "endpoints"
    code = code_endpoints(root)
    doc = doc_endpoints(root)
    doc_path = root / "docs/observability.md"
    for route, (path, line) in sorted(code.items()):
        if route not in doc:
            rep.report(
                path, line, check,
                f"HTTP route \"{route}\" is served here but not documented "
                f"in docs/observability.md — add it to the HTTP endpoints "
                f"table",
            )
    for route, line in sorted(doc.items()):
        if route not in code:
            rep.report(
                doc_path, line, check,
                f"documented HTTP endpoint \"{route}\" is not in the "
                f"exporter's route table — stale doc row?",
            )


# ---------------------------------------------------------------------------
# locks: ranked mutexes <-> lock-rank enum <-> docs/lock_hierarchy.md
#
# The lock hierarchy (util/lock_rank.h, enforced at runtime by the debug
# deadlock detector) only works if every mutex in the tree participates.
# This check keeps the three surfaces in lockstep:
#   - every Mutex/MutexCv declaration in src/ carries a LockRank and a name,
#     and no raw std::mutex & friends exist outside thread_annotations.h /
#     lock_rank.* (an unranked lock is invisible to the detector);
#   - every rank a declaration uses exists in the enum, every enum rank is
#     used by some declaration, and rank values sit in the stratum band
#     matching the declaring file's src/<subsystem>/ directory;
#   - the docs/lock_hierarchy.md rank table has exactly one row per declared
#     mutex, with the rank, value, and stratum the code declares (and no
#     stale rows);
#   - every enum member has a case in LockRankName() (lock_rank.cc).


_RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"recursive_timed_mutex|condition_variable(?:_any)?|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock)\b"
)

# A Mutex/MutexCv variable declaration, with its optional brace initializer.
# `Mutex\s+\w+` cannot match MutexLock (no whitespace mid-word) or pointer /
# reference parameters (`Mutex*`, `Mutex&`).
_MUTEX_DECL_RE = re.compile(
    r"\b(?:mutable\s+)?(Mutex|MutexCv)\s+(\w+)\s*(\{[^}]*\})?\s*;"
)

_LOCKS_EXEMPT = {
    "src/util/thread_annotations.h",
    "src/util/lock_rank.h",
    "src/util/lock_rank.cc",
}


def parse_lock_ranks(root: Path) -> tuple[dict[str, int], dict[int, str], int]:
    """(rank name -> value, stratum band -> name, stratum width)."""
    path = root / "src/util/lock_rank.h"
    text = read_text(path)
    match = re.search(r"enum class LockRank : int \{(.*?)\};", text, re.S)
    if not match:
        raise LintError(f"{path}: cannot find `enum class LockRank`")
    ranks = {
        name: int(value)
        for name, value in re.findall(
            r"(k\w+)\s*=\s*(\d+)", strip_comments(match.group(1))
        )
    }
    if not ranks:
        raise LintError(f"{path}: LockRank enum parsed to zero members")
    match = re.search(r"enum class LockStratum : int \{(.*?)\};", text, re.S)
    if not match:
        raise LintError(f"{path}: cannot find `enum class LockStratum`")
    strata = {
        int(value): name.lower()
        for name, value in re.findall(
            r"k(\w+)\s*=\s*(\d+)", strip_comments(match.group(1))
        )
    }
    if not strata:
        raise LintError(f"{path}: LockStratum enum parsed to zero members")
    match = re.search(r"kLockStratumWidth\s*=\s*(\d+)", text)
    if not match:
        raise LintError(f"{path}: cannot find kLockStratumWidth")
    return ranks, strata, int(match.group(1))


def parse_lock_table(root: Path) -> dict[str, tuple[int, str, int, str]]:
    """docs/lock_hierarchy.md rank-table rows:
    mutex name -> (line, rank name, rank value, stratum)."""
    path = root / "docs/lock_hierarchy.md"
    text = read_text(path)
    rows: dict[str, tuple[int, str, int, str]] = {}
    row_re = re.compile(
        r"^\|\s*`([^`]+)`\s*\|\s*`(k\w+)`\s*\|\s*(\d+)\s*\|\s*(\w+)\s*\|",
        re.M,
    )
    for match in row_re.finditer(text):
        name = match.group(1)
        if name in rows:
            raise LintError(
                f"{path}: duplicate rank-table row for mutex \"{name}\""
            )
        rows[name] = (
            line_of(text, match.start()),
            match.group(2),
            int(match.group(3)),
            match.group(4).lower(),
        )
    if not rows:
        raise LintError(f"{path}: cannot parse any rank-table rows")
    return rows


def check_locks(root: Path, rep: Reporter) -> None:
    check = "locks"
    ranks, strata, width = parse_lock_ranks(root)
    doc_path = root / "docs/lock_hierarchy.md"
    doc_rows = parse_lock_table(root)

    def stratum_of(value: int) -> str:
        return strata.get(value // width, f"(no stratum band {value // width})")

    # One entry per declared mutex: quoted name -> (path, line, rank name).
    declared: dict[str, tuple[Path, int, str]] = {}
    used_ranks: set[str] = set()

    sources = sorted((root / "src").rglob("*.h")) + sorted(
        (root / "src").rglob("*.cc")
    )
    for path in sources:
        rel = path.relative_to(root).as_posix()
        if rel in _LOCKS_EXEMPT:
            continue
        text = strip_comments(read_text(path))

        for match in _RAW_MUTEX_RE.finditer(text):
            rep.report(
                path, line_of(text, match.start()), check,
                f"raw {match.group(0)} — only thread_annotations.h and "
                f"lock_rank.* may use unranked primitives; use the ranked "
                f"Mutex/MutexCv wrappers (docs/lock_hierarchy.md)",
            )

        for match in _MUTEX_DECL_RE.finditer(text):
            kind, var, init = match.group(1), match.group(2), match.group(3)
            line = line_of(text, match.start())
            rank_match = re.search(r"LockRank::(k\w+)", init or "")
            name_match = re.search(r"\"([^\"]+)\"", init or "")
            if not rank_match:
                rep.report(
                    path, line, check,
                    f"{kind} member \"{var}\" declares no rank — construct "
                    f"it as {kind} {var}{{LockRank::<rank>, \"<Class>."
                    f"{var}\"}} and add a docs/lock_hierarchy.md row",
                )
                continue
            rank_name = rank_match.group(1)
            if rank_name not in ranks:
                rep.report(
                    path, line, check,
                    f"{kind} member \"{var}\" uses LockRank::{rank_name}, "
                    f"which is not in the LockRank enum",
                )
                continue
            if not name_match:
                rep.report(
                    path, line, check,
                    f"{kind} member \"{var}\" has a rank but no quoted "
                    f"name; the detector and the doc table key on the name",
                )
                continue
            used_ranks.add(rank_name)
            qname = name_match.group(1)
            if qname in declared:
                other_path, other_line, _ = declared[qname]
                rep.report(
                    path, line, check,
                    f"mutex name \"{qname}\" is also declared at "
                    f"{other_path}:{other_line}; names must be unique",
                )
                continue
            declared[qname] = (path, line, rank_name)

            # Stratum discipline: the rank's value band must match the
            # declaring subsystem directory.
            parts = path.relative_to(root).parts
            subsystem = parts[1] if len(parts) > 2 else None
            value = ranks[rank_name]
            band = stratum_of(value)
            if subsystem is not None and subsystem in strata.values():
                if band != subsystem:
                    lo = next(
                        k for k, v in strata.items() if v == subsystem
                    ) * width
                    rep.report(
                        path, line, check,
                        f"mutex \"{qname}\" has rank {rank_name} (value "
                        f"{value}, stratum {band}) but is declared in "
                        f"src/{subsystem}/ — {subsystem}-stratum locks must "
                        f"use a rank in [{lo}, {lo + width})",
                    )
            elif subsystem is not None:
                rep.report(
                    path, line, check,
                    f"mutex \"{qname}\" is declared in src/{subsystem}/, "
                    f"which has no stratum band — extend LockStratum and "
                    f"docs/lock_hierarchy.md first",
                )

    # Enum <-> declarations: a rank nobody uses is dead weight (or a typo'd
    # migration).
    for rank_name in sorted(ranks):
        if rank_name not in used_ranks:
            rep.report(
                root / "src/util/lock_rank.h", None, check,
                f"LockRank::{rank_name} is in the enum but no Mutex/MutexCv "
                f"declaration uses it — remove it or rank the lock it was "
                f"meant for",
            )

    # Declarations <-> doc table, both directions, with rank agreement.
    for qname, (path, line, rank_name) in sorted(declared.items()):
        if qname not in doc_rows:
            rep.report(
                path, line, check,
                f"mutex \"{qname}\" (rank {rank_name}) has no row in the "
                f"docs/lock_hierarchy.md rank table — every lock must be "
                f"documented with what it guards and what it may call",
            )
            continue
        doc_line, doc_rank, doc_value, doc_stratum = doc_rows[qname]
        if doc_rank != rank_name:
            rep.report(
                doc_path, doc_line, check,
                f"rank table says mutex \"{qname}\" has rank {doc_rank}, "
                f"but the declaration at {path}:{line} says {rank_name}",
            )
        elif doc_value != ranks[rank_name]:
            rep.report(
                doc_path, doc_line, check,
                f"rank table says {doc_rank} = {doc_value}, but the enum "
                f"says {ranks[rank_name]}",
            )
        elif doc_stratum != stratum_of(ranks[rank_name]):
            rep.report(
                doc_path, doc_line, check,
                f"rank table puts mutex \"{qname}\" in stratum "
                f"\"{doc_stratum}\", but rank {rank_name} is in "
                f"\"{stratum_of(ranks[rank_name])}\"",
            )
    for qname, (doc_line, _, _, _) in sorted(doc_rows.items()):
        if qname not in declared:
            rep.report(
                doc_path, doc_line, check,
                f"rank table documents mutex \"{qname}\", which is not "
                f"declared anywhere in src/ — stale row?",
            )

    # LockRankName() must name every rank (the detector's reports depend on
    # it; -Wswitch would catch this too, but only in builds that compile the
    # detector).
    name_impl = read_text(root / "src/util/lock_rank.cc")
    cases = set(re.findall(r"case LockRank::(k\w+):", name_impl))
    for rank_name in sorted(ranks):
        if rank_name not in cases:
            rep.report(
                root / "src/util/lock_rank.cc", None, check,
                f"LockRank::{rank_name} has no case in LockRankName() — "
                f"detector reports would print \"(unknown rank)\"",
            )


# ---------------------------------------------------------------------------
# Driver


CHECKS = {
    "formats": check_formats,
    "metrics": check_metrics,
    "spans": check_spans,
    "endpoints": check_endpoints,
    "locks": check_locks,
}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root to lint (default: this script's repo)",
    )
    parser.add_argument(
        "--list-checks", action="store_true", help="list check names and exit"
    )
    parser.add_argument(
        "checks", nargs="*", default=[], help="subset of checks to run"
    )
    args = parser.parse_args(argv)

    if args.list_checks:
        print("\n".join(CHECKS))
        return 0

    selected = args.checks or list(CHECKS)
    unknown = [c for c in selected if c not in CHECKS]
    if unknown:
        print(f"adict_lint: unknown check(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    rep = Reporter()
    try:
        for name in selected:
            CHECKS[name](args.root, rep)
    except LintError as err:
        print(f"adict_lint: error: {err}", file=sys.stderr)
        return 2

    for violation in rep.violations:
        print(violation)
    if rep.violations:
        print(f"adict_lint: {len(rep.violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"adict_lint: OK ({', '.join(selected)})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
