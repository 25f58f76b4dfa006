"""RC2xx kernel-rule tests: committed fixtures, real tree, kernel anchors."""

import pathlib
import shutil

import pytest

from repro.analysis.checker import check_paths
from repro.analysis.flows import ProjectAnalyses

FIXTURES = pathlib.Path(__file__).resolve().parent / "analysis_fixtures"
REPO = pathlib.Path(__file__).resolve().parents[1]

RC2XX = ["RC201", "RC202", "RC203"]


def codes_for(tree):
    result = check_paths([FIXTURES / tree], select=RC2XX)
    assert not result.parse_errors
    return sorted({v.rule for v in result.violations})


def project_for(paths):
    from repro.analysis.checker import collect_files, parse_file
    from repro.analysis.graph import ProjectGraph

    contexts = [
        ctx
        for ctx in map(parse_file, collect_files(paths))
        if ctx.in_package
    ]
    return ProjectAnalyses(ProjectGraph.from_contexts(contexts))


class TestFixtures:
    """Each rule has a tree it must flag and a twin it must pass."""

    #: Every RC2xx finding over all fixture trees, as (rule, file, line).
    PINNED = [
        ("RC201", "rc201_flags/repro/extend/backends/gather.py", 18),
        ("RC201", "rc201_flags/repro/extend/backends/gather.py", 19),
        ("RC201", "rc201_flags/repro/extend/backends/gather.py", 20),
        ("RC202", "rc202_flags/repro/extend/backends/mixed.py", 17),
        ("RC203", "rc203_flags/repro/extend/backends/alloc.py", 15),
    ]

    @pytest.mark.parametrize("code", RC2XX)
    def test_flag_tree_fires(self, code):
        assert codes_for(f"{code.lower()}_flags") == [code]

    @pytest.mark.parametrize("code", RC2XX)
    def test_clean_tree_passes(self, code):
        assert codes_for(f"{code.lower()}_clean") == []

    def test_findings_are_pinned_by_line(self):
        found = []
        for tree in sorted(p for p in FIXTURES.iterdir() if p.is_dir()):
            result = check_paths([tree], select=RC2XX)
            assert not result.parse_errors
            found += [
                (v.rule, pathlib.Path(v.path).relative_to(FIXTURES).as_posix(), v.line)
                for v in result.violations
            ]
        assert sorted(found) == self.PINNED


class TestKernelAnchors:
    """The rules only see what the graph anchors; a broken anchor would
    turn every RC2xx rule silent ("no information ⇒ no finding")."""

    FUSED = "repro.extend.backends.fused.FusedKernel"
    RUN_STREAM = "repro.extend.batched.BatchedUngappedEngine.run_stream"

    def test_fused_kernel_is_discovered(self):
        graph = project_for([REPO / "src"]).graph
        methods = graph.kernel_classes[self.FUSED]
        assert methods["score"] == f"{self.FUSED}.score"
        assert methods["prepare"] == f"{self.FUSED}.prepare"
        assert {methods["score"], methods["prepare"]} <= set(graph.functions)

    def test_engine_batch_loop_reaches_the_kernel(self):
        graph = project_for([REPO / "src"]).graph
        callees = set(graph.callees(self.RUN_STREAM))
        assert {f"{self.FUSED}.score", f"{self.FUSED}.prepare"} <= callees


class TestRealTree:
    def test_src_is_clean_under_rc2xx(self):
        # The acceptance gate: RC201/RC202/RC203 report zero findings on
        # the step-2 kernel and everything its score path reaches.
        result = check_paths([REPO / "src"], select=RC2XX)
        assert result.violations == []


class TestRealKernelMutations:
    """The rules must catch per-batch allocation in the real kernel, not
    only in the synthetic fixtures: one mutation per rule in a copy of
    ``FusedKernel.score``, each pinned to the line it changes."""

    #: (rule, exact line in fused.py, replacement whose first line is
    #: the one the rule must flag).
    MUTATIONS = [
        (
            "RC201",
            "            np.take(scaled0[t:], base0, out=x)\n",
            "            x[...] = scaled0[t:][base0]\n",
        ),
        (
            "RC203",
            "            np.take(sub_flat, idx, out=cost)\n",
            "            tmp = np.empty(n, dtype=np.int16)\n"
            "            np.take(sub_flat, idx, out=tmp)\n"
            "            cost = tmp\n",
        ),
        (
            "RC202",
            "                np.add(score, cost, out=score)\n",
            "                score[...] = score + cost\n",
        ),
    ]

    def test_each_mutation_is_flagged_at_its_line(self, tmp_path):
        copy = tmp_path / "repro"
        shutil.copytree(
            REPO / "src" / "repro",
            copy,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        assert check_paths([copy], select=RC2XX).violations == []

        fused = copy / "extend" / "backends" / "fused.py"
        source = fused.read_text()
        for _, old, new in self.MUTATIONS:
            assert old in source, f"fused.py no longer contains {old!r}"
            source = source.replace(old, new, 1)
        fused.write_text(source)
        lines = source.splitlines()
        expected = sorted(
            (rule, lines.index(new.splitlines()[0]) + 1)
            for rule, _, new in self.MUTATIONS
        )

        result = check_paths([copy], select=RC2XX)
        assert not result.parse_errors
        assert {v.path for v in result.violations} == {str(fused)}
        assert sorted((v.rule, v.line) for v in result.violations) == expected


class TestSeededBug:
    """A planted per-batch allocation must be caught statically."""

    def test_alloc_in_score_loop_is_flagged(self, tmp_path):
        bugged = tmp_path / "repro" / "extend" / "backends" / "bad.py"
        bugged.parent.mkdir(parents=True)
        bugged.write_text(
            "import numpy as np\n\n\n"
            "class BadKernel:\n"
            "    def __init__(self, config):\n"
            "        self._config = config\n\n"
            "    def prepare(self, buf0, buf1):\n"
            "        self._buf0 = buf0\n\n"
            "    def score(self, anchors0, anchors1):\n"
            "        acc = None\n"
            "        for t in range(4):\n"
            "            tmp = np.zeros(8, dtype=np.int32)\n"
            "            acc = tmp\n"
            "        return acc\n"
        )
        result = check_paths([tmp_path], select=["RC203"])
        assert [v.rule for v in result.violations] == ["RC203"]
        assert "score()" in result.violations[0].message


class TestConstantOutsideDtype:
    """RC202's second clause: an exact constant beyond a narrow dtype."""

    @staticmethod
    def findings(tmp_path, expr):
        kernel = tmp_path / "repro" / "extend" / "backends" / "narrow.py"
        kernel.parent.mkdir(parents=True)
        kernel.write_text(
            "import numpy as np\n\n\n"
            "class NarrowKernel:\n"
            "    def __init__(self, config):\n"
            "        self._acc = np.zeros(8, dtype=np.int16)\n\n"
            "    def prepare(self, buf0, buf1):\n"
            "        self._buf0 = buf0\n\n"
            "    def score(self, anchors0, anchors1):\n"
            "        acc = self._acc\n"
            f"        return {expr}\n"
        )
        return check_paths([tmp_path], select=["RC202"]).violations

    @pytest.mark.parametrize(
        "expr, constant",
        [("acc + 40000", 40000), ("acc + (30000 + 5000)", 35000)],
    )
    def test_constant_beyond_int16_is_flagged(self, tmp_path, expr, constant):
        violations = self.findings(tmp_path, expr)
        assert [(v.rule, v.line) for v in violations] == [("RC202", 13)]
        assert f"constant {constant} outside [-32768, 32767]" in violations[0].message

    @pytest.mark.parametrize(
        "expr", ["acc + 100", "np.add(acc, 40000, dtype=np.int32)"]
    )
    def test_fitting_or_pinned_constant_is_clean(self, tmp_path, expr):
        assert self.findings(tmp_path, expr) == []


def test_rc002_covers_backend_constructors(tmp_path):
    # Satellite regression: extend/backends/ is hot-path scope, and
    # np.ones joined the dtype-required constructor set.
    bugged = tmp_path / "repro" / "extend" / "backends" / "x.py"
    bugged.parent.mkdir(parents=True)
    bugged.write_text(
        "import numpy as np\n\n\n"
        "def make(n: int) -> np.ndarray:\n"
        "    return np.ones(n)\n"
    )
    result = check_paths([tmp_path], select=["RC002"])
    assert [v.rule for v in result.violations] == ["RC002"]


def test_rc005_covers_backend_signatures(tmp_path):
    bugged = tmp_path / "repro" / "extend" / "backends" / "x.py"
    bugged.parent.mkdir(parents=True)
    bugged.write_text("def make(config):\n    return None\n")
    result = check_paths([tmp_path], select=["RC005"])
    assert [v.rule for v in result.violations] == ["RC005"]
