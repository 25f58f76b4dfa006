"""RC1xx project-rule tests: committed fixtures, real tree, seeded bugs."""

import pathlib

import pytest

from repro.analysis.checker import check_paths, collect_files, parse_file
from repro.analysis.concurrency import _worker_entry_seeds
from repro.analysis.graph import ProjectGraph

FIXTURES = pathlib.Path(__file__).resolve().parent / "analysis_fixtures"
REPO = pathlib.Path(__file__).resolve().parents[1]

RC1XX = ["RC100", "RC101", "RC102", "RC103", "RC104", "RC105", "RC107", "RC110"]


def codes_for(tree):
    result = check_paths([FIXTURES / tree], select=RC1XX)
    assert not result.parse_errors
    return sorted({v.rule for v in result.violations})


class TestFixtures:
    """Each rule has a tree it must flag and a twin it must pass."""

    @pytest.mark.parametrize("code", RC1XX)
    def test_flag_tree_fires(self, code):
        assert codes_for(f"{code.lower()}_flags") == [code]

    @pytest.mark.parametrize("code", RC1XX)
    def test_clean_tree_passes(self, code):
        assert codes_for(f"{code.lower()}_clean") == []

    def test_rc100_catches_the_cross_module_variant(self):
        result = check_paths([FIXTURES / "rc100_flags"], select=["RC100"])
        flagged = {v.message.split("(")[0].strip() for v in result.violations}
        assert any("merge_remote" in m for m in flagged)
        assert any("merge_results" in m for m in flagged)

    def test_rc101_spares_only_initializer_cleared_state(self):
        # `_STATE` is cleared by its pool initializer in both trees; the
        # flags tree's `_CACHE` (no initializer) and `_MEMO` (filled but
        # never cleared by the initializer) are still fork-inherited.
        flagged = check_paths([FIXTURES / "rc101_flags"], select=["RC101"])
        names = sorted(v.message.split("`")[1] for v in flagged.violations)
        assert names == ["_CACHE", "_MEMO"]
        clean = check_paths([FIXTURES / "rc101_clean"], select=["RC101"])
        assert clean.violations == []


class TestRealTree:
    def test_src_is_clean_under_rc1xx(self):
        # The acceptance gate: the RC1xx family over the real source tree
        # is clean with no suppression file.  The executor's per-worker
        # `_WORKER` state and `_LIVE_SEGMENTS` registry pass because the
        # pool initializer clears both in every worker.
        result = check_paths([REPO / "src"], select=RC1XX)
        assert result.violations == []

    def test_step2_kernel_modules_are_worker_reachable(self):
        # The pool task reaches the supervisor as a constructor argument
        # and is submitted as ``self._task``; RC101 must still follow it
        # into the batched engine and its kernel, which run in every
        # worker, rather than stop at the initializer's modules.
        contexts = [parse_file(p) for p in collect_files([REPO / "src"])]
        graph = ProjectGraph.from_contexts(c for c in contexts if c.in_package)
        initializers, tasks = _worker_entry_seeds(graph)
        assert "repro.core.executor._score_shard" in tasks
        modules = {
            graph.functions[q].module
            for q in graph.reachable_from(initializers | tasks)
        }
        assert {
            "repro.extend.batched",
            "repro.extend.backends.fused",
            "repro.extend.ungapped",
        } <= modules


class TestSeededBug:
    """An ordering bug planted in merge code must be caught statically."""

    def test_set_iteration_merge_is_flagged(self, tmp_path):
        bugged = tmp_path / "repro" / "core" / "executor.py"
        bugged.parent.mkdir(parents=True)
        bugged.write_text(
            "def merge(shard_results: dict) -> list:\n"
            "    out = []\n"
            "    for shard in set(shard_results):\n"
            "        out.append(shard_results[shard])\n"
            "    return out\n"
        )
        result = check_paths([tmp_path], select=["RC100"])
        assert [v.rule for v in result.violations] == ["RC100"]
        assert "merge()" in result.violations[0].message

    def test_listdir_order_in_results_is_flagged(self, tmp_path):
        bugged = tmp_path / "repro" / "core" / "results.py"
        bugged.parent.mkdir(parents=True)
        bugged.write_text(
            "import os\n\n\n"
            "def load_reports(d: str) -> list:\n"
            "    out = []\n"
            "    for name in os.listdir(d):\n"
            "        out.append(name)\n"
            "    return out\n"
        )
        result = check_paths([tmp_path], select=["RC100"])
        assert [v.rule for v in result.violations] == ["RC100"]

    def test_sorted_merge_is_not_flagged(self, tmp_path):
        fixed = tmp_path / "repro" / "core" / "executor.py"
        fixed.parent.mkdir(parents=True)
        fixed.write_text(
            "def merge(shard_results: dict) -> list:\n"
            "    out = []\n"
            "    for shard in sorted(shard_results):\n"
            "        out.append(shard_results[shard])\n"
            "    return out\n"
        )
        result = check_paths([tmp_path], select=["RC100"])
        assert result.violations == []


class TestHeldPoolTask:
    """A task handed to a supervisor's constructor and submitted as
    ``self._task`` is a worker entry point like a directly submitted one."""

    SUPERVISOR = (
        "class Supervisor:\n"
        "    def __init__(self, pool: object, task: object) -> None:\n"
        "        self._pool = pool\n"
        "        self._task = task\n\n"
        "    def run(self, shard: int) -> object:\n"
        "        return self._pool.submit(self._task, shard)\n"
    )

    def write(self, tmp_path, caller):
        core = tmp_path / "repro" / "core"
        core.mkdir(parents=True)
        (core / "supervisor.py").write_text(self.SUPERVISOR)
        (core / "kernel.py").write_text(
            "_CACHE = {}\n\n\n"
            "def score(shard: int) -> int:\n"
            "    _CACHE[shard] = shard\n"
            "    return shard\n"
        )
        (core / "executor.py").write_text(
            "from .kernel import score\n"
            "from .supervisor import Supervisor\n\n\n"
            "def _task(shard: int) -> int:\n"
            "    return score(shard)\n\n\n"
            f"def run(pool: object) -> object:\n    {caller}\n"
        )
        return check_paths([tmp_path], select=["RC101"]).violations

    @pytest.mark.parametrize(
        "caller",
        [
            "return Supervisor(pool, _task).run(0)",
            "sup = Supervisor(pool, task=_task)\n    return sup.run(0)",
        ],
    )
    def test_state_behind_a_held_task_is_flagged(self, tmp_path, caller):
        violations = self.write(tmp_path, caller)
        assert [v.message.split("`")[1] for v in violations] == ["_CACHE"]

    def test_unrelated_constructor_argument_is_not_a_task(self, tmp_path):
        # Only the parameter stored in the submitted attribute counts.
        assert self.write(tmp_path, "return Supervisor(_task, pool).run(0)") == []
