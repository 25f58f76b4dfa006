"""RC3xx thread/lock project-rule tests: fixtures, real tree, properties."""

import ast
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.checker import check_paths, collect_files, parse_file
from repro.analysis.locks import find_lock_cycle

FIXTURES = pathlib.Path(__file__).resolve().parent / "analysis_fixtures"
REPO = pathlib.Path(__file__).resolve().parents[1]

RC3XX = ["RC300", "RC301", "RC302", "RC303", "RC304"]


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
    def test_src_is_clean_under_rc3xx_modulo_baseline(self):
        # The acceptance gate for the thread/lock family: the remaining
        # RC3xx debt is signal-context state that cannot take locks —
        # the sampling profiler's SIGALRM handler (lock-free by design:
        # the `_flight` lock serialises window owners and samples are
        # read only while disarmed — DESIGN §10).
        from repro.analysis.baseline import load_baseline

        baseline = load_baseline(REPO / "repro-baseline.json")
        result = check_paths([REPO / "src"], select=RC3XX, baseline=baseline)
        assert result.violations == []
        assert result.baseline_suppressed == 15
        assert [k for k in result.baseline_stale if k[0] in RC3XX] == []


class TestLockNameAgreement:
    """Factory-seam string literals must be names the static model knows.

    ``make_lock("repro.serve...")`` literals are the join key between the
    runtime manifest and :class:`LockModel` — a typo in one would silently
    break the ``--verify-locks`` cross-check, so the agreement is a test.
    """

    FACTORIES = {"make_lock", "make_rlock", "make_condition"}

    def _factory_literals(self):
        literals = []
        for path in collect_files([REPO / "src" / "repro"]):
            if path.name == "locksan.py":
                continue  # the factory definitions themselves
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None
                )
                if name in self.FACTORIES and node.args:
                    arg = node.args[0]
                    assert isinstance(arg, ast.Constant) and isinstance(
                        arg.value, str
                    ), f"{path}: factory call without a literal name"
                    literals.append(arg.value)
        return literals

    def test_every_factory_literal_is_a_model_lock(self):
        from repro.analysis.graph import ProjectGraph
        from repro.analysis.locks import LockAnalysis

        contexts = [
            parse_file(p) for p in collect_files([REPO / "src" / "repro"])
        ]
        analysis = LockAnalysis(
            ProjectGraph.from_contexts(c for c in contexts if c.in_package)
        )
        literals = self._factory_literals()
        assert literals, "the factory seam is not wired anywhere"
        unknown = sorted(set(literals) - set(analysis.model.locks))
        assert unknown == [], f"factory names the model never discovered: {unknown}"


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
