"""Correctness tooling: the lint, importable without numpy, never imported
by the runtime.

``repro-check`` is an AST lint of RC rules. The parallel step-2 engine's
headline guarantee — a bit-identical merge for any worker count — is an
invariant of the *code*, not of any test input. This package
machine-checks the code properties that guarantee rests on:
seeded randomness, explicit hot-path dtypes, no mutable defaults, monotonic
timing, and fully annotated public hot-path APIs (RC001–RC005), plus
cross-module project rules over a call-graph/taint substrate (RC100, RC101,
RC103, RC104: nondeterministic order reaching the merge, fork-unsafe module
state, unordered float reductions, ad-hoc retry loops), serving hygiene
(RC105, RC107, RC110) and thread/lock rules (RC300, RC303).  The
step-2 kernel's allocation contract is a test of ``FusedKernel.score``
(``tests/test_backends.py::TestAllocation``), not a rule.
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
