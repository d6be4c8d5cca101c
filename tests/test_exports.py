"""The public names: each module's ``__all__`` and the package's re-exports resolve,
and ``import spdekit`` and each command load only the modules they use."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spdekit

PACKAGE = Path(spdekit.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def reexports():
    """(module, name) of each name the package's ``__init__`` re-exports.

    They are its ``from .module import name`` lines.
    """
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
    assert {module for module, _ in pairs} == {"spectral", "noise", "models", "integrators"}
    for module_name, name in pairs:
        module = importlib.import_module(f"spdekit.{module_name}")
        assert name in module.__all__, (module_name, name)
        assert getattr(spdekit, name) is getattr(module, name)


SIMULATE_INI = """[model]
kind = reaction_diffusion
theta = -1.0
m = 3
[grid]
modes = 8
[scheme]
kind = euler_maruyama
dt = 1e-4
[noise]
kind = power
gamma = 1.0
[experiment]
t = 0.001
u0 = cos
[output]
prefix = sim
"""

VERIFY_INI = """[model]
kind = transport_heat
sigma = 1.0
[grid]
modes = 8
[scheme]
kind = heun_stratonovich
dt = 1e-4
[experiment]
t = 0.001
u0 = cos
n_paths = 2
checks = mass_conservation, gronwall
[output]
prefix = ver
"""


BURGERS_INI = """[model]
kind = burgers
[grid]
modes = 8
[scheme]
dt = 1e-3
[experiment]
t = 0.01
window = 0.005
n_paths = 1
[output]
prefix = bur
"""

# run in a fresh interpreter: (burgers/verify loaded by importing spdekit and
# its command line, the exit code, burgers/verify loaded after the command)
COMMAND = """
import json, sys
import spdekit
from spdekit.cli import main

def loaded():
    return sorted(m for m in ("spdekit.burgers", "spdekit.verify") if m in sys.modules)

imported = loaded()
code = main(sys.argv[1:])
print(json.dumps([imported, code, loaded()]))
"""


def run_fresh(code, *args):
    """Run ``code`` in a new interpreter that imports spdekit from this package; its stdout."""
    path = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    res = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


@pytest.mark.parametrize(
    "command,config,loaded",
    [
        ("simulate", SIMULATE_INI, []),
        ("verify", VERIFY_INI, ["spdekit.verify"]),
        ("burgers", BURGERS_INI, ["spdekit.burgers"]),
    ],
    ids=["simulate", "verify", "burgers"],
)
def test_each_command_loads_only_its_modules(tmp_path, command, config, loaded):
    (tmp_path / "run.ini").write_text(config)
    out = run_fresh(COMMAND, command, "--config", tmp_path / "run.ini", "--out", tmp_path / "out")
    assert json.loads(out) == [[], 0, loaded]


def test_public_names_are_the_reexports_and_two_constants():
    # in a fresh interpreter, so that no other test has imported a module into the package
    code = """
import json
import types
import spdekit

names = [n for n in dir(spdekit) if n == "__version__" or not n.startswith("_")]
print(json.dumps([n for n in names if not isinstance(getattr(spdekit, n), types.ModuleType)]))
assert spdekit.NUMBA_ENABLED is False
import spdekit.burgers
assert spdekit.PicardError is spdekit.burgers.PicardError
"""
    eager = {name for _, name in reexports()}
    assert sorted(json.loads(run_fresh(code))) == sorted(eager | {"__version__", "NUMBA_ENABLED"})
