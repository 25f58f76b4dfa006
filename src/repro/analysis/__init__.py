"""Correctness tooling: the lint, importable without numpy, never imported
by the runtime.

``repro-check`` is an AST lint of RC rules. The parallel step-2 engine's
headline guarantee — a bit-identical merge for any worker count — is an
invariant of the *code*, not of any test input. This package
machine-checks the code properties that guarantee rests on:
seeded randomness, explicit hot-path dtypes, no mutable defaults, monotonic
timing, and fully annotated public hot-path APIs (RC001–RC005), plus
cross-module project rules over a call-graph/taint substrate (RC100–RC104:
nondeterministic order reaching the merge, fork-unsafe module state,
shared-memory lifecycle, unordered float reductions, ad-hoc retry loops).
The runtime counterpart is the determinism sanitizer
(:mod:`repro.core.determinism`, ``REPRO_DETSAN=1``): per-stage digest
manifests, compared across worker counts by ``repro-check
--verify-determinism``, which imports it lazily.
"""

from .checker import CheckResult, check_paths, collect_files
from .rules import REGISTRY, FileContext, ProjectRule, Rule, Violation, register

__all__ = [
    "CheckResult",
    "FileContext",
    "ProjectRule",
    "REGISTRY",
    "Rule",
    "Violation",
    "check_paths",
    "collect_files",
    "register",
]
