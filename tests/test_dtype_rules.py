"""RC2xx kernel-rule tests: committed fixtures, real tree, kernel anchors."""

import pathlib

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

    @pytest.mark.parametrize("code", RC2XX)
    def test_flag_tree_fires(self, code):
        assert codes_for(f"{code.lower()}_flags") == [code]

    @pytest.mark.parametrize("code", RC2XX)
    def test_clean_tree_passes(self, code):
        assert codes_for(f"{code.lower()}_clean") == []


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
