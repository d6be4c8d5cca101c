"""The four benchmark workloads: INI generation, work counts and output checks.

Each workload is one ``spdekit`` subcommand on one generated INI file.  The
file depends only on the workload seed (through ``experiment.base_seed``)
and on the size profile, so the same seed always gives the same inputs and
the program sees nothing but the INI file.

Sizes are chosen so that one command takes 1.3 to 2 seconds on a 2-core
x86 machine: long enough that process start is a small share, short enough
that a run measures more than a dozen commands and reports their median.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOAD_NAMES = ("transport_paths", "burgers_split", "mc_identities", "nonlinear_paths")

# Monte Carlo reports are gated at this many standard errors.  The shipped
# configs use 3; with six independent reports that fails about 1 seed in 60
# by chance alone, and a comparison runs dozens of seeds, so a sound program
# would often be reported as failing.  At 4.5 the chance is about 4e-5.
MC_TOLERANCE = 4.5


@dataclass
class Outcome:
    """What one command did: operations attempted and failed, and why."""

    ops: int
    failed: int
    problems: list[str] = field(default_factory=list)
    reports: int = 0
    reports_failed: int = 0
    digest: str = ""


@dataclass(frozen=True)
class Workload:
    """One CLI command on a generated config, with its sizes and its checks.

    The callables take the size profile's parameters: ``sections`` builds the
    INI sections, ``count_work`` and ``count_ops`` count work units and
    operations per command, and ``check_outputs`` reads an output directory.
    """

    name: str
    command: str
    why: str
    work_unit: str
    full: dict
    tiny: dict
    sections: Callable[[dict, int, Path], dict]
    count_work: Callable[[dict], int]
    count_ops: Callable[[dict], int]
    check_outputs: Callable[[dict, Path], "Outcome"]

    def params(self, size: str) -> dict:
        return self.full if size == "full" else self.tiny

    def ini(self, seed: int, size: str, out_dir: Path) -> str:
        base_seed = random.Random(seed).randrange(2**31)
        return _render(self.sections(self.params(size), base_seed, out_dir))

    def setup_ini(self, size: str, out_dir: Path) -> str:
        """The same model, grid and scheme on a zero-length horizon."""
        sections = self.sections(self.params(size), 0, out_dir)
        sections["experiment"]["t"] = "0.0"
        return _render(sections)

    def work(self, size: str) -> int:
        """Units of work per command, counted from the config."""
        return self.count_work(self.params(size))

    def check(self, size: str, exit_code: int, out_dir: Path) -> Outcome:
        p = self.params(size)
        expected = self.count_ops(p)
        if exit_code not in (0, 1):
            return Outcome(expected, expected, [f"exit code {exit_code}"])
        try:
            outcome = self.check_outputs(p, out_dir)
        except (OSError, ValueError, KeyError) as exc:
            return Outcome(expected, expected, [f"unreadable output: {exc}"])
        if exit_code == 1 and outcome.failed == 0:
            outcome.problems.append("exit code 1 without a failed report")
        if outcome.ops != expected:
            outcome.problems.append(f"{outcome.ops} operations, expected {expected}")
        outcome.digest = csv_digest(out_dir)
        return outcome


def _render(sections: dict) -> str:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in items.items())
        lines.append("")
    return "\n".join(lines)


def _steps(t: float, dt: float) -> int:
    return int(round(t / dt))


# ---------------------------------------------------------------------------
# transport_paths: pathwise identities of the transport-noise heat equation
# ---------------------------------------------------------------------------

TRANSPORT_CHECKS = ("mass_conservation", "energy_identity", "gronwall")


def _transport_sections(p, base_seed, out_dir):
    return {
        "model": {"kind": "transport_heat", "sigma": "1.0"},
        "grid": {"modes": p["modes"]},
        "scheme": {"kind": "heun_stratonovich", "dt": repr(p["dt"])},
        "noise": {"kind": "white"},
        "experiment": {
            "t": repr(p["t"]),
            "u0": "cos",
            "n_paths": p["n_paths"],
            "base_seed": base_seed,
            "checks": ", ".join(TRANSPORT_CHECKS),
        },
        "output": {"directory": str(out_dir), "prefix": "transport"},
    }


def _transport_work(p):
    # mass_conservation and gronwall step every path once at dt; the energy
    # ladder steps it again at dt and at dt/2.
    return p["n_paths"] * _steps(p["t"], p["dt"]) * 5


def _check_transport(p, out_dir):
    return _check_reports(out_dir / "transport_reports.csv", _transport_verdict)


def _transport_verdict(row):
    """The benchmark's own verdict on a pathwise row, and the row's expected target."""
    est, target, tol = float(row["estimate"]), float(row["target"]), float(row["tolerance"])
    if row["name"] in ("mass_conservation", "energy_identity"):
        return est <= tol, 0.0
    if row["name"] == "gronwall":
        return est <= target, 1.0 + tol
    raise ValueError(f"unexpected report {row['name']!r}")


# ---------------------------------------------------------------------------
# mc_identities: Monte Carlo identities of the Q-Wiener process, no stepping
# ---------------------------------------------------------------------------

MC_CHECKS = ("ito_isometry", "trace_identity", "wiener_covariance", "gaussian_moment", "ou_exactness")
OU_MODES = (0, 1, 8)


def _mc_sections(p, base_seed, out_dir):
    return {
        "model": {"kind": "additive_heat"},
        "grid": {"modes": p["modes"]},
        "scheme": {"kind": "exact_ou", "dt": repr(p["dt"])},
        "noise": {"kind": "white"},
        "experiment": {
            "t": repr(p["t"]),
            "s": repr(p["s"]),
            "h": "cos",
            "g": "cos",
            "ou_modes": ", ".join(str(k) for k in OU_MODES),
            "n_paths": p["n_paths"],
            "base_seed": base_seed,
            "tolerance_multiplier": repr(MC_TOLERANCE),
            "checks": ", ".join(MC_CHECKS),
        },
        "output": {"directory": str(out_dir), "prefix": "mc"},
    }


def _mc_reports(p):
    return 4 + len(OU_MODES)


def _mc_work(p):
    return _mc_reports(p) * p["n_paths"]


def _check_mc(p, out_dir):
    K, T, s, dt = p["modes"], p["t"], p["s"], p["dt"]
    channels = 2 * K + 1
    # closed forms, computed here independently of spdekit
    targets = {
        "ito_isometry": T,
        "trace_identity": T * channels,
        "wiener_covariance": min(s, T) * 0.5,  # <Q cos, cos> = 2 |1/2|^2
        "gaussian_fourth_moment": channels**2 + 2.0 * channels,
    }
    for k in OU_MODES:
        mu = (2.0 * math.pi * k) ** 2
        targets[f"ou_variance_mode{k}"] = dt if k == 0 else -math.expm1(-2.0 * mu * dt) / (2.0 * mu)

    def verdict(row):
        name = row["name"]
        if name not in targets:
            raise ValueError(f"unexpected report {name!r}")
        est, se, tol = float(row["estimate"]), float(row["se"]), float(row["tolerance"])
        return abs(est - targets[name]) <= tol * se, targets[name]

    return _check_reports(out_dir / "mc_reports.csv", verdict)


def _check_reports(path: Path, verdict) -> Outcome:
    """Gate every non-skipped report row on the benchmark's own verdict.

    A row fails when the benchmark's verdict is false; the program's ``pass``
    column must agree with it, and its target must match the closed form.
    """
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = Outcome(0, 0)
    for row in rows:
        if row["pass"] == "skipped":
            continue
        out.ops += 1
        passed, target = verdict(row)
        if not passed or row["pass"] != "true":
            out.failed += 1
        if passed != (row["pass"] == "true"):
            out.problems.append(f"{row['name']}: pass column {row['pass']} disagrees")
        if not math.isclose(float(row["target"]), target, rel_tol=1e-9, abs_tol=1e-300):
            out.problems.append(f"{row['name']}: target {row['target']} is not {target!r}")
    out.reports, out.reports_failed = out.ops, out.failed
    return out


# ---------------------------------------------------------------------------
# burgers_split: v + w splitting with windowed Picard iteration
# ---------------------------------------------------------------------------

BURGERS_MAXIT = 25


def _burgers_sections(p, base_seed, out_dir):
    return {
        "model": {"kind": "burgers"},
        "grid": {"modes": p["modes"]},
        "scheme": {"kind": "exponential_euler", "dt": repr(p["dt"])},
        "noise": {"kind": "mean_free_white"},
        "experiment": {
            "t": repr(p["t"]),
            "w0": "sin",
            "w0_amplitude": "1.0",
            "p": "4.0",
            "picard_tol": "1e-9",
            "picard_maxit": BURGERS_MAXIT,
            "window": "0.05",
            "alpha": "0.25",
            "n_paths": p["n_paths"],
            "base_seed": base_seed,
        },
        "output": {"directory": str(out_dir), "prefix": "burgers"},
    }


def _burgers_work(p):
    return p["n_paths"] * _steps(p["t"], p["dt"])


def _check_burgers(p, out_dir):
    n_rows = _steps(p["t"], p["dt"]) + 1
    out = Outcome(0, 0)
    with open(out_dir / "burgers_summary.csv", newline="") as fh:
        summary = {row["seed"]: row for row in csv.DictReader(fh)}
    for i in range(p["n_paths"]):
        out.ops += 1
        row = summary.get(str(i))
        ok = row is not None
        if ok:
            values = [float(v) for k, v in row.items() if k != "seed"]
            ok = all(math.isfinite(v) for v in values)
            ok = ok and float(row["max_iters"]) <= BURGERS_MAXIT
            ok = ok and _finite_table(out_dir / f"burgers_seed{i:03d}.csv") == n_rows
        out.failed += not ok
    return out


# ---------------------------------------------------------------------------
# nonlinear_paths: reaction-diffusion through models.drift
# ---------------------------------------------------------------------------


def _nonlinear_sections(p, base_seed, out_dir):
    return {
        "model": {"kind": "reaction_diffusion", "theta": "-1.0", "m": "3"},
        "grid": {"modes": p["modes"]},
        "scheme": {"kind": "euler_maruyama", "dt": repr(p["dt"])},
        "noise": {"kind": "power", "gamma": "1.0"},
        "experiment": {"t": repr(p["t"]), "u0": "cos", "base_seed": base_seed},
        "output": {"directory": str(out_dir), "prefix": "nonlinear"},
    }


def _nonlinear_work(p):
    return _steps(p["t"], p["dt"])


def _check_nonlinear(p, out_dir):
    rows = _finite_table(out_dir / "nonlinear_norms.csv")
    ok = rows == _steps(p["t"], p["dt"]) + 1
    out = Outcome(1, int(not ok))
    if not ok:
        out.problems.append(f"norm series has {rows} finite rows")
    return out


def _finite_table(path: Path) -> int:
    """Number of data rows of a numeric CSV, or -1 if any value is not finite."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        count = 0
        for row in reader:
            if not all(math.isfinite(float(v)) for v in row):
                return -1
            count += 1
    return count


def csv_digest(out_dir: Path) -> str:
    """sha256 over every CSV body of a command, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "transport_paths",
            "verify",
            "Pathwise checks on transport noise (K=32, Heun): per-step Python stepping and "
            "noise packing dominate, and every path is held in memory.",
            "path_steps",
            full={"modes": 32, "dt": 2.5e-6, "t": 0.0035, "n_paths": 2},
            tiny={"modes": 16, "dt": 2.5e-6, "t": 2.5e-4, "n_paths": 2},
            sections=_transport_sections,
            count_work=_transport_work,
            count_ops=lambda p: len(TRANSPORT_CHECKS),
            check_outputs=_check_transport,
        ),
        Workload(
            "burgers_split",
            "burgers",
            "The Burgers ensemble config at 3 seeds: Picard sweeps, FFTs and CSV writing "
            "dominate, while stepping is only the cheap OU lane.",
            "path_steps",
            full={"modes": 64, "dt": 2.5e-4, "t": 0.5, "n_paths": 3},
            tiny={"modes": 16, "dt": 2.5e-4, "t": 0.05, "n_paths": 1},
            sections=_burgers_sections,
            count_work=_burgers_work,
            count_ops=lambda p: p["n_paths"],
            check_outputs=_check_burgers,
        ),
        Workload(
            "mc_identities",
            "verify",
            "Monte Carlo identities at 10^4 samples and K=128: no time stepping, many short "
            "counter-keyed RNG streams; the bypass case for stepping changes.",
            "mc_samples",
            full={"modes": 128, "dt": 1e-3, "t": 1.0, "s": 0.3, "n_paths": 10_000},
            tiny={"modes": 16, "dt": 1e-3, "t": 1.0, "s": 0.3, "n_paths": 400},
            sections=_mc_sections,
            count_work=_mc_work,
            count_ops=_mc_reports,
            check_outputs=_check_mc,
        ),
        Workload(
            "nonlinear_paths",
            "simulate",
            "Cubic reaction-diffusion with power-law noise (K=64, Euler-Maruyama): the only "
            "workload through models.drift, with every noise channel used.",
            "path_steps",
            full={"modes": 64, "dt": 1e-5, "t": 0.06},
            tiny={"modes": 16, "dt": 1e-5, "t": 1e-3},
            sections=_nonlinear_sections,
            count_work=_nonlinear_work,
            count_ops=lambda p: 1,
            check_outputs=_check_nonlinear,
        ),
    )
}
