"""Smoke test of the layer ledger at tiny scale (``--smoke``, ~30 s).

Run from the repository root::

    python -m pytest benchmarks/ledger/test_ledger_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from run import COUNTS, WORKLOADS  # noqa: E402


def _ledger(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "benchmarks/ledger/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _check_names(line: dict, metrics: list[dict]) -> None:
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] >= len(WORKLOADS)
    for workload in WORKLOADS:
        for m in metrics:
            got = line["metrics"][f"{workload}/{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))


@pytest.fixture(scope="module")
def traced() -> list[dict]:
    runs = []
    for _ in range(2):
        code, lines = _ledger("--smoke", "--seed", "3", "--seconds", "1", "--trace", "1")
        assert code == 0, "\n".join(lines[-20:])
        runs.append(json.loads(lines[-1]))
    return runs


def test_spec_names_every_workload() -> None:
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


def test_timed_pass_emits_every_end_to_end_metric() -> None:
    code, lines = _ledger("--smoke", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert code == 0, "\n".join(lines[-20:])
    line = json.loads(lines[-1])
    _check_names(line, _spec()["end_to_end"])
    for key, value in line["metrics"].items():
        assert value["value"] > 0, key


def test_traced_pass_emits_every_per_layer_metric(traced: list[dict]) -> None:
    _check_names(traced[0], _spec()["per_layer"])
    for workload in WORKLOADS:
        assert traced[0]["metrics"][f"{workload}/coverage"]["value"] >= 0.95


def test_counts_repeat_for_a_seed(traced: list[dict]) -> None:
    for workload in WORKLOADS:
        for name in COUNTS:
            key = f"{workload}/{name}"
            assert traced[0]["metrics"][key] == traced[1]["metrics"][key], key


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/ledger")
    code, lines = _ledger("--workload", "short-closed", "--seed", "1", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
