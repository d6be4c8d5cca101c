"""Reduced forms of the four shipped configs against the values pinned in ``tests/pinned/``.

Output bytes depend on numpy's CPU dispatch.  With its AVX-512 targets
disabled, the Burgers ``residual`` column, a difference of nearly equal
numbers near 1e-12, moved by up to 1.6e-6 relative, while the norms moved by
at most 6.3e-16.  So each field is compared at a tolerance, not byte for
byte:

* text and integer fields (names, counts, seeds, ``pass``, notes) exactly;
* the Burgers ``residual`` and ``max_residual`` within ``RESIDUAL_SCALE``
  times the largest pinned value of their column;
* every other number (times, norms, estimates, targets, ``se``) at rtol
  ``RTOL``.

The first line of each pinned file records the numpy version and the CPU
dispatch targets it was written under.  A change that moves outputs on
purpose rewrites the files with ``PYTHONPATH=src python
tests/test_pinned_outputs.py`` and shows the old and new values in CHANGES.md.
"""

import csv
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from spdekit import cli

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).resolve().parent / "pinned"

# shipped config -> (command, the keys shortened so that each run takes well under a second)
CASES = {
    "transport_simulate": ("simulate", {"t": "0.001"}),
    "transport_verify": ("verify", {"t": "0.001", "n_paths": "4"}),
    "burgers_ensemble": ("burgers", {"t": "0.025", "window": "0.01", "n_paths": "2"}),
    "she_regularity": ("regularity", {}),
}
TEXT = {"name", "n", "pass", "seed", "note", "picard_iters", "max_iters"}
RESIDUAL = {"residual", "max_residual"}
RTOL = 1e-12
RESIDUAL_SCALE = 1e-3
# the targets whose removal moved the Burgers residual (an unknown name is ignored by numpy)
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def reduced_config(case: str, directory: Path) -> Path:
    """Write the shipped config of ``case`` with its keys shortened; its path."""
    text = (ROOT / "configs" / f"{case}.ini").read_text()
    for key, value in CASES[case][1].items():
        text, n = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert n == 1, (case, key)
    path = directory / f"{case}.ini"
    path.write_text(text)
    return path


def run_case(case: str, directory: Path) -> dict:
    """Run ``case`` in this process; its CSVs, name -> bytes."""
    out = directory / case
    config = reduced_config(case, directory)
    assert cli.main([CASES[case][0], "--config", str(config), "--out", str(out)]) == 0
    return read_csvs(out)


def read_csvs(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def rows(text: str) -> list:
    return list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))


def floats(column: list) -> np.ndarray:
    # a list-valued field (a tolerance band) is colon-joined
    return np.array([float(v) for cell in column for v in cell.split(":")])


def mismatches(name: str, got: str, pinned: str) -> list:
    """The columns of CSV ``name`` where ``got`` leaves the tolerance of ``pinned``."""
    (head, *want), (got_head, *have) = rows(pinned), rows(got)
    if got_head != head or len(have) != len(want):
        return [f"{name}: header or row count"]
    bad = []
    for j, column in enumerate(head):
        a, b = [r[j] for r in have], [r[j] for r in want]
        if column in TEXT:
            ok = a == b
        else:
            x, y = floats(a), floats(b)
            if column in RESIDUAL:
                rtol, atol = 0.0, RESIDUAL_SCALE * float(np.max(np.abs(y), initial=0.0))
            else:
                rtol, atol = RTOL, 0.0
            ok = [c.count(":") for c in a] == [c.count(":") for c in b] and bool(
                np.allclose(x, y, rtol=rtol, atol=atol, equal_nan=True)
            )
        if not ok:
            bad.append(f"{name}: {column}")
    return bad


def check_against_pinned(case: str, csvs: dict) -> None:
    pinned = {p.name: p.read_text() for p in sorted((PINNED / case).glob("*.csv"))}
    assert sorted(csvs) == sorted(pinned)
    bad = [m for name, data in csvs.items() for m in mismatches(name, data.decode(), pinned[name])]
    assert bad == []


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_pinned_values(tmp_path, case):
    first = run_case(case, tmp_path)
    # criterion 15: a rerun in the same process writes the same bytes
    assert run_case(case, tmp_path) == first
    check_against_pinned(case, first)


CHILD = """
import sys
from spdekit.cli import main

for command, config, out in zip(*[iter(sys.argv[1:])] * 3):
    assert main([command, "--config", config, "--out", out]) == 0
"""


def test_pinned_values_hold_without_avx512(tmp_path):
    args = []
    for case, (command, _) in CASES.items():
        args += [command, str(reduced_config(case, tmp_path)), str(tmp_path / case)]
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": NO_AVX512}
    res = subprocess.run([sys.executable, "-c", CHILD, *args], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    for case in CASES:
        check_against_pinned(case, read_csvs(tmp_path / case))


def dispatch_line() -> str:
    """numpy's version, CPU baseline and the dispatch targets this process runs."""
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

    used = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    baseline = " ".join(__cpu_baseline__)
    return f"# numpy {np.__version__}; CPU baseline {baseline}; dispatch targets {' '.join(used)}\n"


def write_pinned() -> None:
    """Rewrite ``tests/pinned/<case>/*.csv`` from runs of the installed spdekit."""
    header = dispatch_line()
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            target = PINNED / case
            target.mkdir(parents=True, exist_ok=True)
            for old in target.glob("*.csv"):
                old.unlink()
            for name, data in run_case(case, Path(tmp)).items():
                lines = data.decode().splitlines()
                (target / name).write_text(header + "".join(line + "\n" for line in lines))


if __name__ == "__main__":
    write_pinned()
