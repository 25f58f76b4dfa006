"""RC3xx thread/lock project-rule tests: fixtures, real tree, properties."""

import ast
import pathlib
import re
import shutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.checker import check_paths, collect_files, parse_file
from repro.analysis.graph import ProjectGraph
from repro.analysis.locks import LockAnalysis, find_lock_cycle

FIXTURES = pathlib.Path(__file__).resolve().parent / "analysis_fixtures"
REPO = pathlib.Path(__file__).resolve().parents[1]

RC3XX = ["RC300", "RC301", "RC303"]


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

    def test_rc301_names_the_cycle(self):
        result = check_paths([FIXTURES / "rc301_flags"], select=["RC301"])
        [v] = result.violations
        assert "_accounts" in v.message and "_journal" in v.message


class TestRealTree:
    def test_src_is_clean_under_rc3xx(self):
        # The acceptance gate for the thread/lock family, with no
        # suppression file: every shared field holds one common lock.
        result = check_paths([REPO / "src"], select=RC3XX)
        assert result.violations == []

    def test_serve_locks_keep_their_canonical_names(self):
        # The names every RC3xx finding carries, and the one nesting the
        # serve stack has: the dispatcher records metrics under its lock.
        contexts = [parse_file(p) for p in collect_files([REPO / "src" / "repro"])]
        model = LockAnalysis(
            ProjectGraph.from_contexts(c for c in contexts if c.in_package)
        ).model
        assert {
            "repro.serve.service.SearchService._dispatch_lock",
            "repro.serve.pool.WarmPool._pool_lock",
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
    mutation (``pool_alive``) is reported at the write in ``_hold``."""

    PREFIX = {
        "pool.py": "repro.serve.pool.WarmPool.",
        "breaker.py": "repro.serve.breaker.CircuitBreaker.",
    }

    #: (file under serve/, method whose one ``with`` is dropped, fields).
    MUTATIONS = [
        ("breaker.py", "record_success", {"_state", "_consecutive_failures"}),
        ("breaker.py", "trips", {"_trips"}),
        ("pool.py", "_keep", {"_last_health", "_last_timings"}),
        ("pool.py", "close", {"_pool", "_closed"}),
        ("pool.py", "corrupt_staged_bank", {"_staged"}),
        ("pool.py", "pool_alive", {"_pool"}),
        ("pool.py", "heal_if_corrupt", {"_staged", "_bank_heals"}),
        ("pool.py", "step2", {"_pool"}),
        ("pool.py", "bank_heals", {"_bank_heals"}),
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
        path = copy / "serve" / module
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


def _named(edges):
    return [(f"L{a}", f"L{b}") for a, b in edges]


@st.composite
def dag_edges(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda e: e[0] < e[1]),
            max_size=30,
        )
    )
    return _named(pairs)


@st.composite
def cycle_plus_noise(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    cycle = [(f"C{i}", f"C{(i + 1) % n}") for i in range(n)]
    noise = draw(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
                lambda e: e[0] < e[1]
            ),
            max_size=20,
        )
    )
    edges = cycle + [(f"N{a}", f"N{b}") for a, b in noise]
    return draw(st.permutations(edges))


class TestCycleDetectorProperties:
    @given(dag_edges())
    def test_random_dags_are_never_flagged(self, edges):
        assert find_lock_cycle(edges) is None

    @given(cycle_plus_noise())
    def test_planted_cycles_are_always_found(self, edges):
        cycle = find_lock_cycle(edges)
        assert cycle is not None
        # The witness must be a genuine closed walk over the given edges.
        assert cycle[0] == cycle[-1] and len(cycle) >= 3
        edge_set = set(edges)
        for a, b in zip(cycle, cycle[1:]):
            assert (a, b) in edge_set

    def test_deterministic_witness(self):
        edges = [("B", "A"), ("A", "B"), ("C", "A")]
        assert find_lock_cycle(edges) == find_lock_cycle(list(reversed(edges)))
