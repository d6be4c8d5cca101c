"""The public names: each module's ``__all__`` and the package's re-exports resolve."""

import ast
import importlib
from pathlib import Path

import pytest

import spdekit

PACKAGE = Path(spdekit.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def reexports():
    """(module, name) of each ``from .module import name`` in the package's ``__init__``."""
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield from ((node.module, alias.name) for alias in node.names)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # a stale name would be skipped silently by tools that walk __all__
    module = importlib.import_module(f"spdekit.{name}")
    assert len(set(module.__all__)) == len(module.__all__) > 0
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_top_level_export_is_a_public_name_of_its_module():
    pairs = list(reexports())
    assert {module for module, _ in pairs} == set(MODULES) - {"cli"}
    for module_name, name in pairs:
        module = importlib.import_module(f"spdekit.{module_name}")
        assert name in module.__all__, (module_name, name)
        assert getattr(spdekit, name) is getattr(module, name)
