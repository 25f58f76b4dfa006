"""``repro-check`` — the project-invariant lint gate.

Usage::

    repro-check src tests            # check trees, exit 1 on violations
    repro-check --select RC002 src   # one rule only
    repro-check --list-rules         # what is enforced, and why
    repro-check --github src         # emit GitHub ::error annotations too
    repro-check --verify-determinism Q.fasta G.fasta --workers 1,2
                                     # run the pipeline per worker count
                                     # and diff the detsan manifests

Exit codes: ``0`` clean, ``1`` violations (or unparsable files, or a
determinism diff) found, ``2`` usage error (argparse, missing paths).
Output is one ``path:line:col: RC00X message`` line per finding,
deterministic across runs.  There is no findings baseline: the tree must
be clean, and a finding is either fixed or its rule is wrong.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from .checker import CheckResult, check_paths, iter_rendered
from .rules import REGISTRY, Violation

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-check`` argument parser."""
    p = argparse.ArgumentParser(
        prog="repro-check",
        description="AST lint for repro's correctness invariants "
        "(determinism, dtype discipline, timing, annotations)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (e.g. `src tests`)",
    )
    p.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    p.add_argument(
        "--github",
        action="store_true",
        help="additionally emit GitHub Actions ::error annotations",
    )
    p.add_argument(
        "--verify-determinism",
        nargs=2,
        metavar=("QUERIES", "GENOME"),
        help="instead of linting: run the pipeline on this FASTA pair "
        "once per worker count and diff the determinism manifests",
    )
    p.add_argument(
        "--workers",
        default="1,2",
        metavar="N,M,...",
        help="worker counts exercised by --verify-determinism "
        "(default: 1,2)",
    )
    p.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the summary line (violations still print)",
    )
    return p


def _validate_select(raw: str, parser: argparse.ArgumentParser) -> list[str]:
    codes = [c.strip().upper() for c in raw.split(",") if c.strip()]
    unknown = [c for c in codes if c not in REGISTRY]
    if unknown:
        parser.error(
            f"unknown rule code(s): {', '.join(unknown)} "
            f"(known: {', '.join(REGISTRY)})"
        )
    return codes


def _github_annotation(violation: Violation) -> str:
    """One ``::error`` workflow command per finding.

    GitHub renders these inline on the PR diff; ``%`` , CR and LF must be
    escaped per the workflow-command spec or the message truncates.
    """
    message = (
        f"{violation.rule} {violation.message}".replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
    )
    return (
        f"::error file={violation.path},line={violation.line},"
        f"col={violation.col},title=repro-check {violation.rule}::{message}"
    )


def _parse_workers(raw: str, parser: argparse.ArgumentParser) -> list[int]:
    try:
        counts = [int(c) for c in raw.split(",") if c.strip()]
    except ValueError:
        counts = []
    if not counts or any(c < 1 for c in counts):
        parser.error(f"--workers must be positive integers, got {raw!r}")
    return counts


def _run_verify(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """``--verify-determinism`` mode: N pipeline runs, manifest diff."""
    # Lazy import: the lint path must not pull in numpy + the pipeline.
    from .determinism import verify_pipeline_determinism

    queries, genome = args.verify_determinism
    for path in (queries, genome):
        if not Path(path).exists():
            parser.error(f"no such file: {path}")
    counts = _parse_workers(args.workers, parser)
    ok, manifests, diffs = verify_pipeline_determinism(
        queries, genome, worker_counts=counts
    )
    if not args.quiet:
        for manifest in manifests:
            workers = manifest["meta"].get("workers")
            for name, stage in manifest["stages"].items():
                print(
                    f"workers={workers} {name}: {stage['digest']} "
                    f"(n={stage['n']})"
                )
    if ok:
        print(
            f"repro-check: determinism verified across workers="
            f"{','.join(str(c) for c in counts)}"
        )
        return 0
    for line in diffs:
        print(f"determinism mismatch: {line}")
        if args.github:
            print(f"::error title=repro-check determinism::{line}")
    return 1


def _print_summary(result: CheckResult) -> None:
    n = len(result.violations)
    summary = (
        f"repro-check: {result.files_checked} files, "
        f"{n} violation{'s' if n != 1 else ''}"
    )
    if result.parse_errors:
        summary += f", {len(result.parse_errors)} unparsable"
    print(summary)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for code, rule in REGISTRY.items():
            print(f"{code}  {rule.summary}")
        return 0
    if args.verify_determinism:
        return _run_verify(args, parser)
    if not args.paths:
        parser.error("no paths given (try `repro-check src tests`)")
    select = _validate_select(args.select, parser) if args.select else None
    try:
        result = check_paths(args.paths, select=select)
    except FileNotFoundError as exc:
        parser.error(str(exc))
    for line in iter_rendered(result):
        print(line)
    if args.github:
        for violation in result.violations:
            print(_github_annotation(violation))
    if not args.quiet:
        _print_summary(result)
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
