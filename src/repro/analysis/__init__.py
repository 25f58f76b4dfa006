"""Correctness tooling: the ``repro-check`` AST lint (RC rules) and the
opt-in runtime ndarray contracts (``REPRO_CONTRACTS=1``).

The parallel step-2 engine's headline guarantee — a bit-identical merge for
any worker count — is an invariant of the *code*, not of any test input.
This package machine-checks the code properties that guarantee rests on:
seeded randomness, explicit hot-path dtypes, no mutable defaults, monotonic
timing, and fully annotated public hot-path APIs (RC001–RC005), plus
cross-module project rules over a call-graph/taint substrate (RC100–RC104:
nondeterministic order reaching the merge, fork-unsafe module state,
shared-memory lifecycle, unordered float reductions, ad-hoc retry loops).
The runtime counterpart is the determinism sanitizer
(:mod:`repro.analysis.determinism`, ``REPRO_DETSAN=1``): per-stage digest
manifests and the ``repro-check --verify-determinism`` two-run harness.

Only the numpy-free lint surface is re-exported here, so ``repro-check``
runs on a bare interpreter; import the numpy-backed runtime checkers from
their own modules (:mod:`~repro.analysis.contracts`,
:mod:`~repro.analysis.determinism`).
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
