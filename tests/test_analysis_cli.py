"""repro-check CLI tests: exit codes, --github, verify mode."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.cli import main

REPO = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = REPO / "examples" / "data"


def write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


VIOLATING = "import numpy as np\nx = np.zeros(8)\n"


class TestExitCodes:
    def test_clean_is_zero(self, tmp_path):
        write(tmp_path, "ok.py", "def f(x: int) -> int:\n    return x\n")
        assert main(["-q", str(tmp_path)]) == 0

    def test_violation_is_one(self, tmp_path):
        write(tmp_path, "repro/extend/k.py", VIOLATING)
        assert main(["-q", str(tmp_path)]) == 1

    def test_missing_path_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / "does-not-exist")])
        assert exc.value.code == 2

    def test_select_unknown_code_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--select", "RC999", str(tmp_path)])
        assert exc.value.code == 2

    def test_select_restricts(self, tmp_path, capsys):
        write(tmp_path, "repro/extend/k.py", VIOLATING)
        assert main(["-q", "--select", "RC001", str(tmp_path)]) == 0
        assert main(["-q", "--select", "RC002", str(tmp_path)]) == 1

    def test_list_rules_includes_rc1xx(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RC001", "RC100", "RC101", "RC103", "RC104"):
            assert code in out


class TestGithubAnnotations:
    def test_error_lines_are_emitted(self, tmp_path, capsys):
        path = write(tmp_path, "repro/extend/k.py", VIOLATING)
        assert main(["-q", "--github", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        (annotation,) = [
            line for line in out.splitlines() if line.startswith("::error ")
        ]
        assert f"file={path}" in annotation
        assert "line=2" in annotation
        assert "RC002" in annotation

    def test_no_annotations_when_clean(self, tmp_path, capsys):
        write(tmp_path, "ok.py", "def f(x: int) -> int:\n    return x\n")
        assert main(["-q", "--github", str(tmp_path)]) == 0
        assert "::error" not in capsys.readouterr().out


class TestVerifyDeterminism:
    def test_smoke_on_examples_data(self, capsys):
        code = main(
            [
                "--verify-determinism",
                str(EXAMPLES / "demo_proteins.fasta"),
                str(EXAMPLES / "demo_genome.fasta"),
                "--workers",
                "1,2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "determinism verified across workers=1,2" in out
        assert "step2.merged" in out

    def test_missing_fasta_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "--verify-determinism",
                    str(tmp_path / "nope.fasta"),
                    str(tmp_path / "nope2.fasta"),
                ]
            )
        assert exc.value.code == 2

    def test_bad_workers_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "--verify-determinism",
                    str(EXAMPLES / "demo_proteins.fasta"),
                    str(EXAMPLES / "demo_genome.fasta"),
                    "--workers",
                    "zero,none",
                ]
            )
        assert exc.value.code == 2


#: Runs repro-check with every ``numpy`` import refused, as on the CI job
#: that installs nothing.
NO_NUMPY = """
import runpy
import sys


class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"numpy is not installed: {name}")
        return None


sys.meta_path.insert(0, RefuseNumpy())
runpy.run_module("repro.analysis.cli", run_name="__main__")
"""


def test_runs_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, "src", "tests", "benchmarks"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 violations" in proc.stdout


#: Imports the runtime entry points and prints every loaded ``repro.analysis``
#: module: the lint stays out of ``compare`` and serve start-up.
RUNTIME_IMPORTS = """
import sys

import repro.cli
import repro.serve.server

print(sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "analysis"]))
"""


def test_runtime_never_imports_lint():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", RUNTIME_IMPORTS],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "[]"
