"""The dependency contract: spdekit imports the standard library and numpy only."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "spdekit").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "spdekit"}


def imported_modules(path):
    """The top-level package of each absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "integrators.py", "verify.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_declared(path):
    # scipy and the test tools may be installed, but are not dependencies
    assert set(imported_modules(path)) <= ALLOWED
