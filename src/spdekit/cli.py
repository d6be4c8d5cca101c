"""Configuration-driven experiment runner.

Experiments are declared in a flat INI file with bracketed sections and
``key = value`` lines (see README for the grammar) and run through four
subcommands::

    spdekit simulate   --config run.ini [--seed N] [--out DIR]
    spdekit verify     --config run.ini [--seed N] [--out DIR]
    spdekit burgers    --config run.ini [--seed N] [--out DIR]
    spdekit regularity --config run.ini [--seed N] [--out DIR]

Exit status: 0 success, 1 a requested check failed, 2 configuration error,
3 numerical failure (blow-up or non-convergent Picard iteration).  Exit 0 or
1 writes the outputs and then the manifest; exit 2 or 3 leaves no file that
the run wrote and no directory that it made.

All CSV bodies are deterministic functions of the configuration (17
significant digits, fixed row order); wall-clock timestamps appear only in
the JSON manifest written next to the outputs, together with a hash of the
semantic configuration values.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import re
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

from .integrators import BlowUpError, PicardError, SCHEME_KINDS, SchemeSpec, _resolve_steps
from .integrators import block_norms, check_scheme, noise_spec, step_blocks
from .models import (
    AdditiveHeat,
    Burgers,
    PorousMedium,
    ReactionDiffusion,
    TransportHeat,
)
from .noise import CovarianceSpec, NoiseSampler
from .spectral import SpectralField, TorusGrid, field_from_modes, halpha_rows, l2_sq_rows
from .spectral import zero_field

# ``verify`` and ``burgers`` are imported, as ``verify_mod`` and ``burgers_mod``,
# by the runners that use them, so a command loads only the modules it runs.

__all__ = ["main", "ConfigError", "RunConfig", "load_config"]


class ConfigError(Exception):
    """Invalid or missing configuration; the message names the offending key."""


MODEL_KINDS = (
    "transport_heat",
    "additive_heat",
    "reaction_diffusion",
    "porous_medium",
    "burgers",
)


class RunConfig:
    """Typed view over the parsed INI sections."""

    def __init__(self, sections: dict[str, dict[str, str]]):
        self.sections = sections

    def get_str(self, section: str, key: str, default=None, required=False):
        value = self.sections.get(section, {}).get(key)
        if value is None:
            if required:
                raise ConfigError(f"missing required key {section}.{key}")
            return default
        return value

    def get_float(self, section, key, default=None, required=False, low=None, strict=False):
        """``section.key`` as a finite number, at least ``low`` (above it if ``strict``)."""
        raw = self.get_str(section, key, None, required)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key} must be a number, got {raw!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"{section}.{key} must be finite, got {raw!r}")
        return _bounded(f"{section}.{key}", value, low, strict)

    def get_int(self, section, key, default=None, required=False, low=None):
        """``section.key`` as an integer, at least ``low``."""
        raw = self.get_str(section, key, None, required)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key} must be an integer, got {raw!r}") from exc
        return _bounded(f"{section}.{key}", value, low)

    def get_list(self, section, key):
        raw = self.get_str(section, key, "")
        return [item.strip() for item in raw.split(",") if item.strip()]

    def get_floats(self, section, key, default=None):
        items = self.get_list(section, key)
        if not items:
            return default if default is not None else []
        try:
            values = [float(item) for item in items]
        except ValueError as exc:
            raise ConfigError(f"{section}.{key} must be a comma list of numbers") from exc
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"{section}.{key} must be a comma list of finite numbers")
        return values

    def semantic_hash(self) -> str:
        pairs = []
        for section in sorted(self.sections):
            for key in sorted(self.sections[section]):
                raw = self.sections[section][key].strip()
                try:
                    canon = repr(float(raw))
                except ValueError:
                    canon = raw
                pairs.append(f"{section}.{key}={canon}")
        return hashlib.sha256("\n".join(pairs).encode()).hexdigest()


def _bounded(name: str, value, low, strict=False):
    """``value`` of the key ``name`` if it is at least ``low`` (above it if ``strict``)."""
    if low is None or value > low or (value == low and not strict):
        return value
    if low == 0:
        bound = "positive" if strict else "nonnegative"
    else:
        bound = f"greater than {low}" if strict else f"at least {low}"
    raise ConfigError(f"{name} must be {bound}, got {value}")


@contextmanager
def _naming(prefix: str):
    """Re-raise a library ``ValueError`` as a ``ConfigError``: ``prefix`` names the key."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ConfigError(f"config file {path} is not UTF-8 text: byte {byte:#04x}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config file {path}, {_ini_error(exc)}") from exc
    return RunConfig(sections)


def _ini_error(exc: configparser.Error) -> str:
    """The line and the fault of a malformed INI file, on one line."""
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"line {exc.lineno}: {exc.section}.{exc.option} is given twice"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: section [{exc.section}] is given twice"
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: a key before any [section] header"
    if isinstance(exc, configparser.ParsingError):
        return f"line {exc.errors[0][0]}: neither a [section] header nor a key = value line"
    if isinstance(exc, configparser.InterpolationError):
        return f"{exc.section}.{exc.option}: {exc.message}"
    return " ".join(str(exc).split())


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_grid(cfg: RunConfig) -> TorusGrid:
    modes = cfg.get_int("grid", "modes", required=True)
    points = cfg.get_int("grid", "points", 0)
    try:
        return TorusGrid(modes, points)
    except ValueError as exc:  # TorusGrid names n_modes and n_points: name the keys
        raise ConfigError(re.sub(r"n_(modes|points)", r"grid.\1", str(exc))) from exc


def build_noise(cfg: RunConfig, grid: TorusGrid) -> CovarianceSpec:
    kind = cfg.get_str("noise", "kind", "white")
    if kind == "white":
        return CovarianceSpec.white(grid)
    if kind == "mean_free_white":
        return CovarianceSpec.mean_free_white(grid)
    if kind == "power":
        gamma = cfg.get_float("noise", "gamma", required=True)
        return CovarianceSpec.power(grid, gamma)
    if kind == "list":
        values = cfg.get_floats("noise", "values")
        if not values:
            raise ConfigError("noise.values required for noise.kind = list")
        lam = np.zeros(grid.n_modes + 1)
        if len(values) > grid.n_modes + 1:
            raise ConfigError(
                f"noise.values lists {len(values)} eigenvalues, grid holds {grid.n_modes + 1}"
            )
        lam[: len(values)] = values
        with _naming("noise.values invalid: "):
            return CovarianceSpec.from_eigenvalues(grid, lam)
    raise ConfigError(f"noise.kind must be white|mean_free_white|power|list, got {kind!r}")


def build_model(cfg: RunConfig, grid: TorusGrid):
    kind = cfg.get_str("model", "kind", required=True)
    if kind not in MODEL_KINDS:
        raise ConfigError(f"model.kind must be one of {MODEL_KINDS}, got {kind!r}")
    with _naming("model section invalid: "):
        if kind == "transport_heat":
            sigma = tuple(cfg.get_floats("model", "sigma", [1.0]))
            with _naming("model.sigma invalid: "):
                return TransportHeat(grid, sigma)
        q = build_noise(cfg, grid)
        if kind == "additive_heat":
            return AdditiveHeat(q)
        if kind == "reaction_diffusion":
            theta = cfg.get_float("model", "theta", required=True)
            m = cfg.get_int("model", "m", required=True)
            return ReactionDiffusion(theta, m, q)
        if kind == "porous_medium":
            m = cfg.get_int("model", "m", required=True)
            return PorousMedium(m, q)
        return Burgers(q)


def build_scheme(cfg: RunConfig) -> SchemeSpec:
    kind = cfg.get_str("scheme", "kind", "euler_maruyama")
    if kind not in SCHEME_KINDS:
        raise ConfigError(f"scheme.kind must be one of {SCHEME_KINDS}, got {kind!r}")
    dt = cfg.get_float("scheme", "dt", required=True)
    with _naming("scheme."):  # with a known kind, SchemeSpec names dt first
        return SchemeSpec(kind, dt)


def build_initial_field(cfg: RunConfig, grid: TorusGrid, key="u0") -> SpectralField:
    kind = cfg.get_str("experiment", key, "cos")
    amplitude = cfg.get_float("experiment", f"{key}_amplitude", 1.0)
    mode = cfg.get_int("experiment", f"{key}_mode", 1)
    if kind == "zero":
        return zero_field(grid)
    if mode < 1 or mode > grid.n_modes:
        raise ConfigError(f"experiment.{key}_mode must lie in 1..{grid.n_modes}")
    if kind == "cos":
        return field_from_modes(grid, [(mode, amplitude / 2.0)])
    if kind == "sin":
        return field_from_modes(grid, [(mode, amplitude / 2j)])
    raise ConfigError(f"experiment.{key} must be cos|sin|zero, got {kind!r}")


def effective_seed(cfg: RunConfig, override: int | None) -> int:
    """The run's seed: ``--seed`` if given, else ``experiment.base_seed``.

    Philox keys are unsigned 64-bit words, so the seed must lie in [0, 2^64).
    """
    if override is not None:
        seed, source = override, "--seed"
    else:
        seed, source = cfg.get_int("experiment", "base_seed", 0), "experiment.base_seed"
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{source} must lie in [0, 2^64), got {seed}")
    return seed


# ---------------------------------------------------------------------------
# CSV / manifest plumbing
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17e" % float(x)
    if isinstance(x, tuple):
        return ":".join(_fmt(v) for v in x)
    return str(x)


_CSV_ROWS = 4096  # table rows formatted per chunk in _write_table


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write the header and the rows: a list of rows or a structured array.

    A structured array is written by :func:`_write_table`; a list of rows
    is formatted value by value with :func:`_fmt`.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            _write_table(fh, rows)
        else:
            for row in rows:
                writer.writerow([_fmt(x) for x in row])


def _write_table(fh, rows: np.ndarray) -> None:
    """Append a structured array (one field per column, as from ``np.rec.fromarrays``).

    Each row is one %-string, integer fields as ``%d`` and the others as
    ``%.17e``: the bytes :func:`_fmt` gives row by row.  Rows are turned
    into Python tuples ``_CSV_ROWS`` at a time, so a long table holds one
    chunk of them.
    """
    kinds = [rows.dtype[name].kind for name in rows.dtype.names]
    line = ",".join("%d" if k in "iu" else "%.17e" for k in kinds) + "\r\n"
    for r0 in range(0, rows.shape[0], _CSV_ROWS):
        fh.writelines(line % row for row in rows[r0 : r0 + _CSV_ROWS].tolist())


class _Outputs:
    """The one owner of a command's files: ``main`` makes it before the run.

    It checks ``output.prefix``, a file name stem, and makes the directory
    (``--out``, else ``output.directory``) with its parents.  Each output is
    recorded as it is opened, and the first takes back the previous run's
    manifest and the files that it lists.
    ``main`` has the manifest written last, or on any exception the run's
    files and directories taken back.
    """

    def __init__(self, cfg: RunConfig, override: str | None):
        self.cfg = cfg
        self.prefix = cfg.get_str("output", "prefix", "run")
        if {os.sep, os.altsep} & set(self.prefix):
            raise ConfigError(f"output.prefix must not name a directory, got {self.prefix!r}")
        key = "--out" if override else "output.directory"
        path = self.dir = Path(override or cfg.get_str("output", "directory", "out"))
        self.made = [p for p in (path, *path.parents) if not p.exists()]  # deepest first
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{key}: cannot make directory {str(path)!r}: {exc.strerror}") from exc
        self.files: list[Path] = []
        self.handles = []

    def _record(self, stem: str) -> Path:
        """The path of ``<prefix>_<stem>``, recorded and unlinked before it is written.

        So a rerun writes each output as a new file: a link at the path is
        replaced, not written through, and no file is truncated in place.
        The first output takes back the previous run: the files its manifest
        lists, then the manifest.
        """
        if not self.files:
            self._take_back(self.dir / f"{self.prefix}_manifest.json")
        self.files.append(self.dir / f"{self.prefix}_{stem}")
        self.files[-1].unlink(missing_ok=True)
        return self.files[-1]

    def _take_back(self, manifest: Path) -> None:
        """Unlink the outputs that ``manifest`` lists, then ``manifest``.

        The manifest is read from disk and may have been edited, so only a
        plain file name of this prefix is taken; an unreadable one lists none.
        """
        try:
            listed = json.loads(manifest.read_bytes()).get("outputs")
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, AttributeError):
            listed = None
        for name in listed if isinstance(listed, list) else []:
            if not isinstance(name, str) or {os.sep, os.altsep, "\0"} & set(name):
                continue
            if name.startswith(f"{self.prefix}_") and not (self.dir / name).is_dir():
                (self.dir / name).unlink(missing_ok=True)
        manifest.unlink(missing_ok=True)

    def open(self, stem: str, header: list[str]):
        """A streamed CSV: the header is written, the rows are appended by the caller."""
        self.handles.append(open(self._record(stem), "w", newline=""))
        csv.writer(self.handles[-1]).writerow(header)
        return self.handles[-1]

    def table(self, stem: str, header: list[str], rows) -> None:
        """A whole table, through :func:`write_csv`."""
        write_csv(self._record(stem), header, rows)

    def write_manifest(self, command: str, seed: int) -> None:
        """Close every output and list it in ``<prefix>_manifest.json``, written last."""
        for fh in self.handles:
            fh.close()
        manifest = {
            "command": command,
            "config_hash": self.cfg.semantic_hash(),
            "seed": seed,
            "outputs": sorted(path.name for path in self.files),
            "created_unix": time.time(),
        }
        with open(self._record("manifest.json"), "w", newline="") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def discard(self) -> None:
        """Close and remove every recorded file, then each directory made that is now empty."""
        for fh in self.handles:
            fh.close()
        for path in self.files:
            path.unlink(missing_ok=True)
        for path in self.made:
            if any(path.iterdir()):
                break
            path.rmdir()


def report_row(report: verify_mod.StatReport, seed: int):
    return [
        report.name,
        report.estimate,
        report.target,
        report.se,
        report.n,
        "skipped" if report.skipped else ("true" if report.passed else "false"),
        seed,
        report.tolerance,
        report.note,
    ]


REPORT_HEADER = ["name", "estimate", "target", "se", "n", "pass", "seed", "tolerance", "note"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


NORMS_HEADER = ["t", "l2", "h1", "mode0"]
SPECTRA_HEADER = ["t", "k", "re", "im"]


def run_simulate(cfg: RunConfig, outputs: _Outputs, seed: int) -> int:
    """Step one path and write its norm series (and spectra) block by block.

    Each stepped block is reduced to its norm rows (the norms written as
    square roots) and its spectra, and they are appended to the CSVs before
    the next block is stepped: the command holds one block of states, never
    the path.
    """
    grid = build_grid(cfg)
    model, scheme, T, u0 = _path_run(cfg, grid)
    blocks = step_blocks(model, scheme, u0, T, sampler=NoiseSampler(noise_spec(model), seed, 0))
    n_k = grid.n_modes + 1

    raw = cfg.get_str("experiment", "save_spectra", "false")
    flags = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
    save_spectra = flags.get(raw.lower())
    if save_spectra is None:
        raise ConfigError(f"experiment.save_spectra must be one of {'|'.join(flags)}, got {raw!r}")
    norms_fh = outputs.open("norms.csv", NORMS_HEADER)
    spectra_fh = outputs.open("spectra.csv", SPECTRA_HEADER) if save_spectra else None

    def emit(times: np.ndarray, rows: np.ndarray, l2_sq: np.ndarray | None = None) -> None:
        """Append the norm rows (and spectra) of the states ``rows`` at ``times``."""
        norms = block_norms(times, rows, grid, l2_sq)
        for name in ("l2_sq", "h1_sq"):
            np.sqrt(norms[name], out=norms[name])
        _write_table(norms_fh, norms)
        if spectra_fh is not None:
            coef = rows.ravel()
            k = np.tile(np.arange(n_k), rows.shape[0])
            spectra = np.rec.fromarrays([np.repeat(times, n_k), k, coef.real, coef.imag])
            _write_table(spectra_fh, spectra)

    emit(np.zeros(1), u0.coef[None])
    for step0, rows, l2_sq in blocks:
        emit(np.arange(step0 + 1, step0 + rows.shape[0]) * scheme.dt, rows[1:], l2_sq)
    return 0


def run_verify(cfg: RunConfig, outputs: _Outputs, seed: int) -> int:
    """Plan every listed check, then run the plan: every key is read before anything is drawn.

    A ``CHECKS`` entry validates its keys and returns its units in report order:
    a report, a ``verify.McStatistic``, a pathwise unit ``(scheme, report)``
    whose ``report`` reads the ``verify.PathBalance`` of a path stepped with
    ``scheme``, or a zero-argument function returning a report.  Then the
    statistics share one streamed pass, each path is stepped once per
    distinct scheme, and the functions are called.  Checks look ``verify``
    names up on the module, so wrappers installed there (tracers) see them.
    """
    global verify_mod
    from . import verify as verify_mod

    checks = cfg.get_list("experiment", "checks")
    unknown = [repr(name) for name in checks if name not in CHECKS]
    if unknown or not checks:  # a run with no check would pass vacuously
        what = f"unknown check {unknown[0]}" if unknown else "no check"
        raise ConfigError(f"experiment.checks names {what}; known: {', '.join(CHECKS)}")
    grid = build_grid(cfg)
    units = [unit for name in checks for unit in CHECKS[name](cfg, grid, seed)]
    stats = [unit for unit in units if isinstance(unit, verify_mod.McStatistic)]
    on_path = [unit for unit in units if isinstance(unit, tuple)]
    mc = _mc_config(cfg, seed) if stats else None
    n_paths = cfg.get_int("experiment", "n_paths", 1, low=1) if on_path else 0
    streamed = iter(verify_mod.mc_reports(stats, mc) if stats else ())
    worst = iter(_pathwise_reports(cfg, grid, seed, n_paths, on_path) if on_path else ())
    reports = [
        next(streamed) if isinstance(unit, verify_mod.McStatistic)
        else next(worst) if isinstance(unit, tuple)
        else unit() if callable(unit) else unit
        for unit in units
    ]
    outputs.table("reports.csv", REPORT_HEADER, [report_row(r, seed) for r in reports])
    return 0 if all(r.passed for r in reports) else 1


def _pathwise_reports(cfg: RunConfig, grid: TorusGrid, seed: int, n_paths: int, units) -> list:
    """Each ``(scheme, report)`` unit's worst report over paths 0 .. n_paths - 1.

    A path is stepped once per distinct scheme and reduced to reports before the next.
    """
    model, _, T, u0 = _path_run(cfg, grid)
    per_path = []
    for i in range(n_paths):
        sampler = NoiseSampler(noise_spec(model), seed, i)
        balances = {scheme: verify_mod.PathBalance(model, scheme.dt, u0) for scheme, _ in units}
        for scheme, balance in balances.items():
            for block in step_blocks(model, scheme, u0, T, sampler):
                balance.add(*block)
        per_path.append([report(balances[scheme]) for scheme, report in units])
    return [_worst(reports) for reports in zip(*per_path)]


# ---------------------------------------------------------------------------
# verify checks: one function per config name, (cfg, grid, seed) -> plan units
# ---------------------------------------------------------------------------


def _mc_config(cfg: RunConfig, seed: int) -> verify_mod.McConfig:
    """The Monte Carlo budget: ``experiment.n_paths`` and ``tolerance_multiplier`` at ``seed``."""
    with _naming("experiment."):  # McConfig names the field first
        return verify_mod.McConfig(
            n_paths=cfg.get_int("experiment", "n_paths", 100),
            base_seed=seed,
            tolerance_multiplier=cfg.get_float("experiment", "tolerance_multiplier", 3.0),
        )


def _check_steps(T: float, dt: float, where: str = "") -> None:
    with _naming(f"{where}scheme.dt / experiment.t: "):
        _resolve_steps(T, dt)


def _path_run(cfg: RunConfig, grid: TorusGrid, check: str = ""):
    """(model, scheme, T, u0) of the configured path experiment, checked for stepping.

    ``check`` names the verify check in the ConfigError of a bad scheme or dt.
    """
    where = f"{check} with " if check else ""
    model = build_model(cfg, grid)
    scheme = build_scheme(cfg)
    T = cfg.get_float("experiment", "t", required=True)
    u0 = build_initial_field(cfg, grid)
    with _naming(f"{where}scheme.kind = {scheme.kind}: "):
        check_scheme(model, scheme.kind)
    _check_steps(T, scheme.dt, where)
    return model, scheme, T, u0


def _require_transport(model, check: str) -> None:
    if not isinstance(model, TransportHeat):
        raise ConfigError(f"{check} check requires model.kind = transport_heat")


def _worst(reports) -> verify_mod.StatReport:
    """The report furthest above its target, the first of equals: a check's worst path."""
    return max(reports, key=lambda r: r.estimate - r.target)


def _skipped(name, note, tol_kind="abs", tolerance=0.0, value=0.0):
    return [
        verify_mod.StatReport(
            name=name, estimate=value, target=value, se=0.0, n=0,
            tol_kind=tol_kind, tolerance=tolerance, skipped=True, note=note,
        )
    ]


def _check_mass_conservation(cfg, grid, seed):
    model, scheme, T, u0 = _path_run(cfg, grid, "mass_conservation")
    if isinstance(model, (AdditiveHeat, ReactionDiffusion, PorousMedium)):
        return _skipped(
            "mass_conservation", "inapplicable: mean mode is a Brownian motion for additive noise"
        )
    return [(scheme, verify_mod.PathBalance.mass_report)]


def _check_energy_identity(cfg, grid, seed):
    model, scheme, T, u0 = _path_run(cfg, grid, "energy_identity")
    _require_transport(model, "energy_identity")
    # the finest rung of the dt, dt/2 ladder of verify.energy_identity_refinement
    fine = SchemeSpec(scheme.kind, scheme.dt / 2.0)
    rel_tol = cfg.get_float("experiment", "rel_tol", 0.05, low=0.0, strict=True)
    return [(fine, lambda balance: balance.energy_report(rel_tol))]


def _check_gronwall(cfg, grid, seed):
    model, scheme, T, u0 = _path_run(cfg, grid, "gronwall")
    _require_transport(model, "gronwall")
    slack = cfg.get_float("experiment", "slack", 0.05, low=0.0)
    if model.sigma_total >= 2.0:
        note = f"sigma >= 2 (sigma = {model.sigma_total:g}); bound undefined"
        return _skipped("gronwall", note, "upper", slack, float("nan"))
    return [(scheme, lambda balance: balance.gronwall_report(slack))]


def _phi_weights(cfg):
    """(phi, lambda) of the ito_isometry check: one weight and variance per channel."""
    phi_kind = cfg.get_str("experiment", "phi", "single_mode")
    if phi_kind == "single_mode":
        return np.array([1.0]), np.array([1.0])
    if phi_kind not in ("inverse_k", "white"):
        raise ConfigError("experiment.phi must be single_mode|inverse_k|white")
    count = cfg.get_int("experiment", "phi_count", 16, low=1)
    if phi_kind == "inverse_k":
        return 1.0 / np.arange(1, count + 1), np.ones(count)
    return np.ones(2 * count + 1), np.ones(2 * count + 1)


def _check_ito_isometry(cfg, grid, seed):
    phi, lam = _phi_weights(cfg)
    t = cfg.get_float("experiment", "t", required=True, low=0.0)
    return [verify_mod.ito_isometry_stat(phi, lam, t)]


def _check_trace_identity(cfg, grid, seed):
    spec = build_noise(cfg, grid)
    t = cfg.get_float("experiment", "t", required=True, low=0.0)
    return [verify_mod.trace_identity_stat(spec, t)]


def _check_wiener_covariance(cfg, grid, seed):
    spec = build_noise(cfg, grid)
    s = cfg.get_float("experiment", "s", 0.3, low=0.0)
    t = cfg.get_float("experiment", "t", required=True, low=0.0)
    h = build_initial_field(cfg, grid, key="h")
    g = build_initial_field(cfg, grid, key="g")
    return [verify_mod.wiener_covariance_stat(spec, h, g, s, t)]


def _check_quadratic_variation(cfg, grid, seed):
    mc = _mc_config(cfg, seed)
    T = cfg.get_float("experiment", "t", required=True, low=0.0, strict=True)
    n_int = cfg.get_int("experiment", "qv_intervals", 2**14, low=1)
    rel_tol = cfg.get_float("experiment", "rel_tol", 0.05, low=0.0, strict=True)
    levels = [max(1, n_int // 16), max(1, n_int // 4), n_int]
    if any(n_int % level for level in levels):
        raise ConfigError(
            f"experiment.qv_intervals must be a positive multiple of {levels[:2]}, got {n_int}"
        )

    def fraction():
        hit = 0
        for i in range(mc.n_paths):
            values = verify_mod.brownian_scalar_path(seed, n_int, T, stream_id=i)
            hit += verify_mod.quadratic_variation_partition(values, levels, T, rel_tol).passed
        return verify_mod.fraction_report("quadratic_variation", hit, mc.n_paths, intervals=n_int)

    return [fraction, lambda: verify_mod.smooth_quadratic_variation(T)]


def _check_ito_strat(cfg, grid, seed):
    mc = _mc_config(cfg, seed)
    # the ladder, not [scheme], sets the steps here
    model = build_model(cfg, grid)
    T = cfg.get_float("experiment", "t", required=True, low=0.0, strict=True)
    u0 = build_initial_field(cfg, grid)
    _require_transport(model, "ito_strat")
    ladder = cfg.get_floats("experiment", "dt_ladder", [1e-3, 2.5e-4, 6.25e-5])
    with _naming("experiment.dt_ladder invalid: "):
        verify_mod.ladder_rungs(ladder, T)
    return [lambda: verify_mod.ito_strat_compare(model, u0, ladder, T, mc)]


def _check_gaussian_moment(cfg, grid, seed):
    return [verify_mod.gaussian_moment_stat(build_noise(cfg, grid))]


def _check_ou_exactness(cfg, grid, seed):
    spec = build_noise(cfg, grid)
    dt = cfg.get_float("scheme", "dt", required=True, low=0.0, strict=True)
    values = cfg.get_floats("experiment", "ou_modes", [0, 1, 8])
    modes = [int(k) for k in values]
    if modes != values or len(set(modes)) < len(modes):
        raise ConfigError(f"experiment.ou_modes must be distinct integers, got {values}")
    with _naming("experiment.ou_modes invalid: "):
        return verify_mod.ou_variance_stats(spec, dt, modes)


def _holder_report(cfg: RunConfig, grid: TorusGrid, alpha: float) -> verify_mod.StatReport:
    """The Hoelder-exponent fit at ``alpha`` over ``experiment.lags`` and ``base_time``."""
    lags = cfg.get_floats("experiment", "lags", [2.0**-e for e in range(8, 15)])
    base_time = cfg.get_float("experiment", "base_time", 0.5, low=0.0)
    with _naming("experiment.alpha or experiment.lags invalid: "):
        return verify_mod.holder_exponent_fit(alpha, grid.n_modes, lags, base_time)


def _check_holder_exponent(cfg, grid, seed):
    return [_holder_report(cfg, grid, cfg.get_float("experiment", "alpha", -0.25))]


# The verify checks by config name, in README order; run_verify says what they return.
CHECKS: dict[str, Callable[[RunConfig, TorusGrid, int], list]] = {
    "mass_conservation": _check_mass_conservation,
    "energy_identity": _check_energy_identity,
    "gronwall": _check_gronwall,
    "ito_isometry": _check_ito_isometry,
    "trace_identity": _check_trace_identity,
    "wiener_covariance": _check_wiener_covariance,
    "quadratic_variation": _check_quadratic_variation,
    "ito_strat": _check_ito_strat,
    "gaussian_moment": _check_gaussian_moment,
    "ou_exactness": _check_ou_exactness,
    "holder_exponent": _check_holder_exponent,
}


BURGERS_HEADER = ["t", "v_halpha", "w_lp", "u_l2", "picard_iters", "residual"]


def _burgers_seed(problem, seed: int, i: int, outputs: _Outputs) -> list:
    """Solve seed ``i``, write its series to ``<prefix>_seed<i>.csv`` and return its summary row.

    Each Picard window is reduced to its rows of the series before the next
    window is solved, so a ``burgers`` command holds one window of v, w and
    u and one seed's series, never a path.  The a priori ratio of the row,
    sup |w|_{L^p} / (|w_0|_{L^p} + sup |v|_{H^alpha}), is reported, not gated.
    """
    n_steps = problem.n_steps
    series = np.empty(
        n_steps + 1, [(n, np.int64 if n == "picard_iters" else float) for n in BURGERS_HEADER]
    )
    series["t"] = np.arange(n_steps + 1) * problem.dt
    for win in burgers_mod.split_windows(problem, NoiseSampler(problem.q, seed, i)):
        rows = series[win.step0 : win.step0 + win.v.shape[0]]
        rows["v_halpha"] = halpha_rows(win.v, problem.grid, problem.alpha)
        rows["w_lp"] = win.w_lp
        rows["u_l2"] = np.sqrt(l2_sq_rows(win.v + win.w))
        rows["picard_iters"] = win.iters
        rows["residual"] = win.residual
    outputs.table(f"seed{i:03d}.csv", BURGERS_HEADER, series)
    sup_w, w0_lp = float(np.max(series["w_lp"])), float(series["w_lp"][0])
    sup_v = float(np.max(series["v_halpha"]))
    denom = w0_lp + sup_v
    ratio = sup_w / denom if denom > 0 else 0.0
    return [
        i,
        sup_w,
        w0_lp,
        sup_v,
        ratio,
        int(np.max(series["picard_iters"])),
        float(np.max(series["residual"])),
    ]


def run_burgers(cfg: RunConfig, outputs: _Outputs, seed: int) -> int:
    global burgers_mod
    from . import burgers as burgers_mod

    kind = cfg.get_str("model", "kind", required=True)
    if kind != "burgers":
        raise ConfigError(f"burgers command requires model.kind = burgers, got {kind!r}")
    grid = build_grid(cfg)
    T = cfg.get_float("experiment", "t", required=True)
    dt = cfg.get_float("scheme", "dt", required=True)
    _check_steps(T, dt)
    w0 = build_initial_field(cfg, grid, key="w0")
    with _naming("experiment."):  # BurgersProblem names the field first
        problem = burgers_mod.BurgersProblem(
            grid=grid,
            T=T,
            dt=dt,
            w0=w0,
            p=cfg.get_float("experiment", "p", 4.0),
            picard_tol=cfg.get_float("experiment", "picard_tol", 1e-9),
            picard_maxit=cfg.get_int("experiment", "picard_maxit", 25),
            alpha=cfg.get_float("experiment", "alpha", 0.25),
            window=cfg.get_float("experiment", "window", 0.05),
            q=build_noise(cfg, grid) if "noise" in cfg.sections else None,
        )
    n_paths = cfg.get_int("experiment", "n_paths", 1, low=1)
    summary_rows = [_burgers_seed(problem, seed, i, outputs) for i in range(n_paths)]
    agg = ["ensemble", *(max(column) for column in list(zip(*summary_rows))[1:])]
    outputs.table(
        "summary.csv",
        ["seed", "sup_w_lp", "w0_lp", "sup_v_halpha", "apriori_ratio", "max_iters", "max_residual"],
        summary_rows + [agg],
    )
    return 0


def run_regularity(cfg: RunConfig, outputs: _Outputs, seed: int) -> int:
    global verify_mod
    from . import verify as verify_mod

    grid = build_grid(cfg)
    reports = [_holder_report(cfg, grid, a) for a in cfg.get_floats("experiment", "alpha", [-0.25])]
    curve_rows = [
        [rep.metadata["alpha"], lag, value]
        for rep in reports
        for lag, value in zip(rep.metadata["lags"], rep.metadata["structure_values"])
    ]
    outputs.table("structure.csv", ["alpha", "lag", "structure"], curve_rows)
    outputs.table("reports.csv", REPORT_HEADER, [report_row(r, seed) for r in reports])
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spdekit",
        description="Spectral Galerkin SPDE simulation and verification on the torus",
    )
    runners = {
        "simulate": run_simulate,
        "verify": run_verify,
        "burgers": run_burgers,
        "regularity": run_regularity,
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name in runners:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the INI experiment file")
        cmd.add_argument("--seed", type=int, default=None, help="override experiment.base_seed")
        cmd.add_argument("--out", default=None, help="override output.directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        outputs = _Outputs(cfg, args.out)
        try:
            seed = effective_seed(cfg, args.seed)
            code = runners[args.command](cfg, outputs, seed)
            outputs.write_manifest(args.command, seed)
        except BaseException:
            outputs.discard()
            raise
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (BlowUpError, PicardError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
