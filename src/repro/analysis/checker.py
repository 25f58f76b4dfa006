"""Tree walker driving the RC rules over files and directories.

:func:`check_paths` is the programmatic API the ``repro-check`` console
script and the test-suite both use.  It expands directories, parses each
``.py`` file once, runs every (selected) registered per-file rule, then
builds the cross-module :class:`~repro.analysis.graph.ProjectGraph` over
the package files and runs the project rules (RC1xx) on it.  Suppression
happens at two levels, most local wins:

* inline ``# noqa: RC00X`` on the violating line (codes required — a bare
  ``noqa`` does not silence RC rules);
* file-level ``# repro-check: noqa`` (whole file) or
  ``# repro-check: noqa: RC101`` (listed codes, file-wide) on any line.

There is no findings baseline: a finding is either fixed or the rule is
wrong.

Violations return in a deterministic (path, line, column, rule) order —
determinism of the checker itself is held to the same standard it
enforces.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

# Importing ``concurrency`` / ``kernels`` / ``threads`` registers the
# RC1xx concurrency, RC2xx kernel-dtype and RC3xx thread/lock project
# rules respectively.
from . import concurrency  # noqa: F401  (import-for-registration)
from . import kernels  # noqa: F401  (import-for-registration)
from . import threads  # noqa: F401  (import-for-registration)
from .flows import ProjectAnalyses
from .graph import ProjectGraph
from .rules import FileContext, ProjectRule, Violation, iter_rules, package_relative

__all__ = ["CheckResult", "check_paths", "collect_files", "parse_file"]

#: Directories never descended into.  ``analysis_fixtures`` holds the
#: deliberately-violating RC1xx test fixtures — they are checked by the
#: tests via explicit paths, never swept up in a tree walk.
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".ruff_cache", ".mypy_cache", "analysis_fixtures"}
)

#: ``# noqa: RC001, RC004`` (codes required — a bare ``# noqa`` does not
#: silence RC rules; invariants are suppressed one at a time, on purpose).
_NOQA = re.compile(r"#\s*noqa:\s*(?P<codes>RC\d{3}(?:\s*,\s*RC\d{3})*)", re.IGNORECASE)

#: File-level suppression: ``# repro-check: noqa`` silences every rule for
#: the file; ``# repro-check: noqa: RC101, RC103`` only the listed codes.
_FILE_NOQA = re.compile(
    r"#\s*repro-check:\s*noqa(?::\s*(?P<codes>RC\d{3}(?:\s*,\s*RC\d{3})*))?",
    re.IGNORECASE,
)


class CheckResult:
    """Violations plus the bookkeeping the CLI reports."""

    def __init__(self) -> None:
        self.violations: list[Violation] = []
        self.files_checked: int = 0
        self.parse_errors: list[str] = []

    @property
    def ok(self) -> bool:
        """True when no violation and no parse error was recorded."""
        return not self.violations and not self.parse_errors


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand file/directory arguments into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in path.rglob("*.py"):
                # Skip components *below* the argument only: explicitly
                # pointing repro-check inside a skipped directory (the
                # fixture tests do) must still work.
                if not _SKIP_DIRS.intersection(sub.relative_to(path).parts[:-1]):
                    out.add(sub)
        elif path.suffix == ".py":
            out.add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(out)


def parse_file(path: Path) -> FileContext:
    """Read and parse one file into a rule context (may raise SyntaxError)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return FileContext(
        path=path,
        package_rel=package_relative(path),
        tree=tree,
        source=source,
    )


def _suppressed_codes(source: str) -> dict[int, frozenset[str]]:
    """Line number → RC codes silenced by a ``# noqa: RC...`` comment."""
    out: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _NOQA.search(line)
        if m:
            codes = frozenset(
                c.strip().upper() for c in m.group("codes").split(",")
            )
            out[lineno] = codes
    return out


def _file_suppression(source: str) -> frozenset[str] | None:
    """File-wide suppression: ``None`` off, empty set = all codes, else codes."""
    for line in source.splitlines():
        m = _FILE_NOQA.search(line)
        if m:
            codes = m.group("codes")
            if codes is None:
                return frozenset()
            return frozenset(c.strip().upper() for c in codes.split(","))
    return None


class _Suppressions:
    """Per-file inline and file-level noqa state, keyed by path string."""

    def __init__(self) -> None:
        self._by_file: dict[str, tuple[dict[int, frozenset[str]], frozenset[str] | None]] = {}

    def scan(self, ctx: FileContext) -> None:
        self._by_file[str(ctx.path)] = (
            _suppressed_codes(ctx.source),
            _file_suppression(ctx.source),
        )

    def silences(self, violation: Violation) -> bool:
        lines, file_level = self._by_file.get(violation.path, ({}, None))
        if file_level is not None and (
            not file_level or violation.rule in file_level
        ):
            return True
        return violation.rule in lines.get(violation.line, frozenset())


def check_paths(
    paths: Sequence[str | Path],
    select: Iterable[str] | None = None,
) -> CheckResult:
    """Run the (selected) RC rules over *paths*.

    Parse failures are recorded, not raised: a file the checker cannot read
    is a finding, never a crash that hides other findings.
    """
    selected = frozenset(s.upper() for s in select) if select is not None else None
    result = CheckResult()
    suppressions = _Suppressions()
    contexts: list[FileContext] = []
    for path in collect_files(paths):
        try:
            ctx = parse_file(path)
        except (SyntaxError, UnicodeDecodeError) as exc:
            result.parse_errors.append(f"{path}: {exc}")
            continue
        result.files_checked += 1
        suppressions.scan(ctx)
        contexts.append(ctx)

    violations: list[Violation] = []
    file_rules = [r for r in iter_rules(selected) if not isinstance(r, ProjectRule)]
    project_rules = [r for r in iter_rules(selected) if isinstance(r, ProjectRule)]
    for ctx in contexts:
        for rule in file_rules:
            violations.extend(rule.check(ctx))
    if project_rules:
        project = ProjectAnalyses(
            ProjectGraph.from_contexts(c for c in contexts if c.in_package)
        )
        for project_rule in project_rules:
            violations.extend(project_rule.check_project(project))

    violations = [v for v in violations if not suppressions.silences(v)]
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    result.violations = violations
    return result


def iter_rendered(result: CheckResult) -> Iterator[str]:
    """Render parse errors then violations as report lines."""
    for err in result.parse_errors:
        yield f"error: {err}"
    for v in result.violations:
        yield v.render()
