"""Shared fixtures for the test suite."""

import os
from pathlib import Path

import pytest

import repro
from repro.analysis.lint import LintEngine

REPRO_PACKAGE = Path(repro.__file__).resolve().parent
REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def shipped_tree_lint():
    """One lint of the shipped package with every rule, shared by the
    syntax-tier and flow-tier shipped-tree gates."""
    return LintEngine([REPRO_PACKAGE]).run()


def _bundle_entries(directory: Path) -> set[str]:
    return set(os.listdir(directory)) if directory.is_dir() else set()


@pytest.fixture(scope="session", autouse=True)
def no_stray_repro_bundles():
    """Fail the session if a test left sentinel repro bundles in the
    default ``artifacts/repro-bundles/`` (under the repository or the
    working directory).  CI uploads that directory as failure evidence,
    so a test that provokes a bundle must pass ``repro_bundle_dir``."""
    directories = {
        (root / "artifacts" / "repro-bundles").resolve()
        for root in (REPO_ROOT, Path.cwd())
    }
    before = {directory: _bundle_entries(directory) for directory in directories}
    yield
    added = sorted(
        str(directory / name)
        for directory, seen in before.items()
        for name in _bundle_entries(directory) - seen
    )
    if added:
        pytest.fail(
            "tests wrote repro bundles outside tmp_path: " + ", ".join(added)
        )
