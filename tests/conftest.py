"""Shared fixtures for the test suite."""

from pathlib import Path

import pytest

import repro
from repro.analysis.lint import LintEngine

REPRO_PACKAGE = Path(repro.__file__).resolve().parent


@pytest.fixture(scope="session")
def shipped_tree_lint():
    """One lint of the shipped package with every rule, shared by the
    syntax-tier and flow-tier shipped-tree gates."""
    return LintEngine([REPRO_PACKAGE]).run()
