"""RC3xx thread/lock project-rule tests: fixtures, real tree, mutations."""

import ast
import pathlib
import re
import shutil

import pytest

from repro.analysis.checker import check_paths, collect_files, parse_file
from repro.analysis.graph import ProjectGraph
from repro.analysis.locks import LockAnalysis

FIXTURES = pathlib.Path(__file__).resolve().parent / "analysis_fixtures"
REPO = pathlib.Path(__file__).resolve().parents[1]

RC3XX = ["RC300", "RC303"]


def codes_for(tree):
    result = check_paths([FIXTURES / tree], select=RC3XX)
    assert not result.parse_errors
    return sorted({v.rule for v in result.violations})


class TestFixtures:
    """Each rule has a tree it must flag and a twin it must pass."""

    @pytest.mark.parametrize("code", RC3XX)
    def test_flag_tree_fires(self, code):
        assert codes_for(f"{code.lower()}_flags") == [code]

    @pytest.mark.parametrize("code", RC3XX)
    def test_clean_tree_passes(self, code):
        assert codes_for(f"{code.lower()}_clean") == []

    def test_rc300_catches_the_drain_race_shape(self):
        # The distilled PR-8 bug: the dispatcher thread writes `_busy`
        # bare while drain() samples it under a lock the writer ignores.
        result = check_paths([FIXTURES / "rc300_flags"], select=["RC300"])
        [v] = result.violations
        assert "_busy" in v.message
        assert "thread:_dispatch_loop" in v.message


class TestRealTree:
    def test_src_is_clean_under_rc3xx(self):
        # The acceptance gate for the thread/lock family, with no
        # suppression file: every shared field holds one common lock.
        result = check_paths([REPO / "src"], select=RC3XX)
        assert result.violations == []

    def test_serve_locks_keep_their_canonical_names(self):
        # The names every RC3xx finding carries, and the one nesting the
        # serve stack has: the dispatcher records metrics under its lock.
        # A lock-order cycle (a deadlock) needs a second edge, so pinning
        # the edge set fails on any new nesting before it can close one.
        contexts = [parse_file(p) for p in collect_files([REPO / "src" / "repro"])]
        model = LockAnalysis(
            ProjectGraph.from_contexts(c for c in contexts if c.in_package)
        ).model
        assert {
            "repro.serve.service.SearchService._dispatch_lock",
            "repro.core.executor.ShardedStep2Executor._pool_lock",
            "repro.serve.breaker.CircuitBreaker._lock",
        } <= set(model.locks)
        assert set(model.order_edges) == {
            (
                "repro.serve.service.SearchService._dispatch_lock",
                "repro.obs.metrics.MetricsRegistry._lock",
            )
        }


class TestRealServeMutations:
    """RC300 must catch a dropped lock in the real serve code, not only in
    the synthetic fixtures: each mutation turns one ``with self._lock:``
    into ``if True:`` in a copy of ``src/repro``.  Findings are pinned by
    field, not line — RC300 reports at a write site, so a read-only
    mutation (``pool_alive``) is reported at the write in ``_hold``.  The
    pool's fields live in ``ShardedStep2Executor``, which the service
    holds as its ``WarmPool`` subclass: the thread model must follow the
    base class for these to be flagged."""

    PREFIX = {
        "core/executor.py": "repro.core.executor.ShardedStep2Executor.",
        "serve/breaker.py": "repro.serve.breaker.CircuitBreaker.",
    }

    #: (file under repro/, method whose one ``with`` is dropped, fields).
    MUTATIONS = [
        ("serve/breaker.py", "record_success", {"_state", "_consecutive_failures"}),
        ("serve/breaker.py", "trips", {"_trips"}),
        ("core/executor.py", "_keep", {"_last_health", "_last_timings"}),
        ("core/executor.py", "close", {"_pool", "_closed", "_bank"}),
        ("core/executor.py", "corrupt_staged_bank", {"_bank"}),
        ("core/executor.py", "pool_alive", {"_pool"}),
        ("core/executor.py", "heal_if_corrupt", {"_bank", "_bank_heals"}),
        ("core/executor.py", "_take_pool", {"_pool"}),
        ("core/executor.py", "bank_heals", {"_bank_heals"}),
    ]

    @pytest.fixture
    def copy(self, tmp_path):
        copy = tmp_path / "repro"
        shutil.copytree(
            REPO / "src" / "repro",
            copy,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        return copy

    def test_unmutated_copy_is_clean(self, copy):
        assert check_paths([copy], select=RC3XX).violations == []

    @pytest.mark.parametrize(
        "module,method,fields", MUTATIONS, ids=[m for _, m, _ in MUTATIONS]
    )
    def test_dropped_lock_names_the_field(self, copy, module, method, fields):
        path = copy / module
        source = path.read_text()
        [func] = [
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == method
        ]
        [scope] = [node for node in ast.walk(func) if isinstance(node, ast.With)]
        lines = source.splitlines(keepends=True)
        line = lines[scope.lineno - 1]
        assert line.strip() in ("with self._lock:", "with self._pool_lock:")
        lines[scope.lineno - 1] = line.replace(line.strip(), "if True:")
        path.write_text("".join(lines))

        result = check_paths([copy], select=RC3XX)
        assert not result.parse_errors
        found = set()
        for v in result.violations:
            named = re.search(r"shared field `([^`]+)`", v.message)
            found.add((v.rule, named.group(1) if named else v.message))
        assert found == {("RC300", self.PREFIX[module] + f) for f in fields}
