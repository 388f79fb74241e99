"""Tests of the benchmark itself, in its fast n=4 mode.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LINE = re.compile(r"^(\S+) = (\S+) (\S+)(  # .*)?$")


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--seed", "3", "--seconds", "0", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace, listed", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, listed):
    proc = run(ROOT, "--workload", "chain-n5-sparsenew", "--fast", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 6
    printed = {m[1]: m[3] for m in map(LINE.match, lines[:-1]) if m}
    expected = {m["name"]: m["unit"] for m in SPEC[listed]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert printed[name] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
    assert float(re.search(r"failed_frac = (\S+)", proc.stdout)[1]) == 0.0


@pytest.fixture
def checkout(tmp_path):
    """A copy of the benchmark next to the real sources."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path


@pytest.mark.parametrize("field, wrong", [("certified", False), ("c0", 199.0)])
def test_wrong_reference_fails_the_run(checkout, field, wrong):
    path = checkout / "perfbench" / "references.json"
    refs = json.loads(path.read_text())
    refs["dense-n4-x1-a2-b2"][field] = wrong
    path.write_text(json.dumps(refs))
    shutil.copytree(ROOT / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(checkout, "--workload", "chain-n5-dense", "--fast", "--trace", "0")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert float(re.search(r"failed_frac = (\S+)", proc.stdout)[1]) > 0.0
    assert "FAILED dense-n4-x1-a2-b2" in proc.stdout


def test_without_sources_it_fails_and_prints_no_result(checkout):
    proc = run(checkout, "--workload", "mutants-n4", "--fast", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
