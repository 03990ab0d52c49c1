"""Smoke tests for the example scripts.

Each example must at least compile and run its fast path end-to-end.
Heavyweight examples run with aggressively reduced inputs via their CLI
flags or monkeypatched workloads.
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


class TestCompile:
    @pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
    def test_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    def test_expected_examples_present(self):
        names = {p.name for p in ALL_EXAMPLES}
        assert {
            "quickstart.py",
            "icache_policy_study.py",
            "btb_study.py",
            "custom_policy.py",
            "efficiency_heatmap.py",
            "workload_characterization.py",
        } <= names


def run_example(name, *args, timeout=600):
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestRun:
    def test_workload_characterization_runs(self):
        result = run_example("workload_characterization.py", "--branches", "1500")
        assert result.returncode == 0, result.stderr
        assert "single-use fraction" in result.stdout

    def test_efficiency_heatmap_runs(self):
        result = run_example(
            "efficiency_heatmap.py", "--policies", "lru", "--structure", "btb"
        )
        assert result.returncode == 0, result.stderr
        assert "efficiency" in result.stdout
