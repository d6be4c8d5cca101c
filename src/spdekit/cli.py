"""Configuration-driven experiment runner.

Experiments are declared in a flat INI file with bracketed sections and
``key = value`` lines (see README for the grammar) and run through four
subcommands::

    spdekit simulate   --config run.ini [--seed N] [--out DIR]
    spdekit verify     --config run.ini [--seed N] [--out DIR]
    spdekit burgers    --config run.ini [--seed N] [--out DIR]
    spdekit regularity --config run.ini [--seed N] [--out DIR]

Exit status: 0 success, 1 a requested check failed, 2 configuration error,
3 numerical failure (blow-up or non-convergent Picard iteration).

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
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from .integrators import BlowUpError, PicardError, SchemeSpec, _resolve_steps, block_norms
from .integrators import check_scheme, noise_spec, step_blocks
from .models import (
    AdditiveHeat,
    Burgers,
    PorousMedium,
    ReactionDiffusion,
    TransportHeat,
)
from .noise import CovarianceSpec, NoiseSampler
from .spectral import SpectralField, TorusGrid, field_from_modes, halpha_rows, l2_sq_rows
from .spectral import lp_rows, zero_field

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

    def get_float(self, section, key, default=None, required=False):
        raw = self.get_str(section, key, None, required)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key} must be a number, got {raw!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"{section}.{key} must be finite, got {raw!r}")
        return value

    def get_int(self, section, key, default=None, required=False):
        raw = self.get_str(section, key, None, required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key} must be an integer, got {raw!r}") from exc

    def get_list(self, section, key, default=None):
        raw = self.get_str(section, key)
        if raw is None:
            return default if default is not None else []
        return [item.strip() for item in raw.split(",") if item.strip()]

    def get_floats(self, section, key, default=None):
        items = self.get_list(section, key, None)
        if items is None or not items:
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


def load_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    return RunConfig(sections)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_grid(cfg: RunConfig) -> TorusGrid:
    modes = cfg.get_int("grid", "modes", required=True)
    points = cfg.get_int("grid", "points", 0)
    try:
        return TorusGrid(modes, points)
    except ValueError as exc:
        raise ConfigError(f"grid section invalid: {exc}") from exc


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
        try:
            return CovarianceSpec.from_eigenvalues(grid, lam)
        except ValueError as exc:
            raise ConfigError(f"noise.values invalid: {exc}") from exc
    raise ConfigError(f"noise.kind must be white|mean_free_white|power|list, got {kind!r}")


def build_model(cfg: RunConfig, grid: TorusGrid):
    kind = cfg.get_str("model", "kind", required=True)
    if kind not in MODEL_KINDS:
        raise ConfigError(f"model.kind must be one of {MODEL_KINDS}, got {kind!r}")
    try:
        if kind == "transport_heat":
            model = TransportHeat(grid, tuple(cfg.get_floats("model", "sigma", [1.0])))
            try:
                noise_spec(model)
            except ValueError as exc:
                raise ConfigError(f"model.sigma lists too many intensities: {exc}") from exc
            return model
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
    except ValueError as exc:
        raise ConfigError(f"model section invalid: {exc}") from exc


def build_scheme(cfg: RunConfig) -> SchemeSpec:
    kind = cfg.get_str("scheme", "kind", "euler_maruyama")
    dt = cfg.get_float("scheme", "dt", required=True)
    try:
        return SchemeSpec(kind, dt)
    except ValueError as exc:
        raise ConfigError(f"scheme section invalid: {exc}") from exc


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


def output_dir(cfg: RunConfig, override: str | None) -> Path:
    raw = override or cfg.get_str("output", "directory", "out")
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def output_prefix(cfg: RunConfig) -> str:
    return cfg.get_str("output", "prefix", "run")


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


def _open_new(path: Path):
    """Open ``path`` for writing as a new file: a rerun replaces each output.

    Unlinking first means a link at ``path`` is replaced, not written
    through, and no existing file is truncated in place.
    """
    path.unlink(missing_ok=True)
    return open(path, "w", newline="")


_CSV_ROWS = 4096  # table rows formatted per chunk in _write_table


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write the header and the rows: a list of rows or a structured array.

    A structured array is written by :func:`_write_table`; a list of rows
    is formatted value by value with :func:`_fmt`.
    """
    with _open_new(path) as fh:
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


def write_manifest(path: Path, cfg: RunConfig, command: str, seed: int, outputs) -> None:
    manifest = {
        "command": command,
        "config_hash": cfg.semantic_hash(),
        "seed": seed,
        "outputs": sorted(str(o) for o in outputs),
        "created_unix": time.time(),
    }
    with _open_new(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def run_simulate(cfg: RunConfig, out: Path, seed: int) -> int:
    """Step one path and write its norm series (and spectra) block by block.

    Each stepped block is reduced to its norm rows (the norms written as
    square roots) and its spectra, and they are appended to the CSVs before
    the next block is stepped: the command holds one block of states, never
    the path.  A failure (a blow-up) removes the partial files.
    """
    grid = build_grid(cfg)
    model, scheme, T, u0 = _path_run(cfg, grid)
    blocks = step_blocks(model, scheme, u0, T, sampler=NoiseSampler(noise_spec(model), seed, 0))
    n_k = grid.n_modes + 1

    prefix = output_prefix(cfg)
    files = {out / f"{prefix}_norms.csv": NORMS_HEADER}
    raw = cfg.get_str("experiment", "save_spectra", "false")
    flags = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
    save_spectra = flags.get(raw.lower())
    if save_spectra is None:
        raise ConfigError(f"experiment.save_spectra must be one of {'|'.join(flags)}, got {raw!r}")
    if save_spectra:
        files[out / f"{prefix}_spectra.csv"] = SPECTRA_HEADER
    handles = []

    def emit(times: np.ndarray, rows: np.ndarray, l2_sq: np.ndarray | None = None) -> None:
        """Append the norm rows (and spectra) of the states ``rows`` at ``times``."""
        norms = block_norms(times, rows, grid, l2_sq)
        for name in ("l2_sq", "h1_sq"):
            np.sqrt(norms[name], out=norms[name])
        _write_table(handles[0], norms)
        if len(handles) > 1:
            coef = rows.ravel()
            k = np.tile(np.arange(n_k), rows.shape[0])
            spectra = np.rec.fromarrays([np.repeat(times, n_k), k, coef.real, coef.imag])
            _write_table(handles[1], spectra)

    try:
        for path, header in files.items():
            handles.append(_open_new(path))
            csv.writer(handles[-1]).writerow(header)
        emit(np.zeros(1), u0.coef[None])
        for step0, rows, l2_sq in blocks:
            emit(np.arange(step0 + 1, step0 + rows.shape[0]) * scheme.dt, rows[1:], l2_sq)
    except BaseException:
        for fh, path in zip(handles, files):
            fh.close()
            path.unlink()
        raise
    for fh in handles:
        fh.close()
    write_manifest(out / f"{prefix}_manifest.json", cfg, "simulate", seed, [p.name for p in files])
    return 0


def run_verify(cfg: RunConfig, out: Path, seed: int) -> int:
    global verify_mod
    from . import verify as verify_mod

    checks = cfg.get_list("experiment", "checks")
    if not checks:
        raise ConfigError(f"experiment.checks names no check; known: {', '.join(CHECKS)}")
    for name in checks:
        if name not in CHECKS:
            raise ConfigError(
                f"experiment.checks names unknown check {name!r}; known: {', '.join(CHECKS)}"
            )
    grid = build_grid(cfg)
    items = [item for name in checks for item in CHECKS[name](cfg, grid, seed)]
    # the Monte Carlo statistics of every listed check share one streamed pass,
    # and the pathwise checks one stepping of each path
    stats = [item for item in items if isinstance(item, verify_mod.McStatistic)]
    on_path = [item for item in items if callable(item)]
    streamed = iter(verify_mod.mc_reports(stats, _mc_config(cfg, seed)) if stats else ())
    worst = iter(_pathwise_reports(cfg, grid, seed, on_path) if on_path else ())
    reports = [
        next(streamed) if isinstance(item, verify_mod.McStatistic)
        else next(worst) if callable(item) else item
        for item in items
    ]
    return _write_reports(cfg, out, seed, "verify", reports)


def _pathwise_reports(cfg: RunConfig, grid: TorusGrid, seed: int, checks) -> list:
    """Each check's worst report over paths 0 .. n_paths - 1, each stepped into a PathBalance."""
    model, scheme, T, u0 = _path_run(cfg, grid)
    reports = []
    for i in range(_n_paths(cfg)):
        balance = verify_mod.PathBalance(model, scheme.dt, u0)
        sampler = NoiseSampler(noise_spec(model), seed, i)
        for block in step_blocks(model, scheme, u0, T, sampler):
            balance.add(*block)
        reports.append([check(balance) for check in checks])
    return [_worst(path_reports) for path_reports in zip(*reports)]


def _write_reports(cfg: RunConfig, out: Path, seed: int, command: str, reports, outputs=()) -> int:
    """Write ``<prefix>_reports.csv`` and the manifest; exit 1 if a report failed."""
    prefix = output_prefix(cfg)
    report_file = out / f"{prefix}_reports.csv"
    write_csv(report_file, REPORT_HEADER, [report_row(r, seed) for r in reports])
    outputs = [*outputs, report_file.name]
    write_manifest(out / f"{prefix}_manifest.json", cfg, command, seed, outputs)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# verify checks: one function per config name, (cfg, grid, seed) -> reports,
# Monte Carlo statistics or functions of a path's PathBalance
# ---------------------------------------------------------------------------


def _mc_config(cfg: RunConfig, seed: int) -> verify_mod.McConfig:
    """The Monte Carlo budget; each Monte Carlo check reads it before its other keys."""
    try:
        return verify_mod.McConfig(
            n_paths=cfg.get_int("experiment", "n_paths", 100),
            base_seed=seed,
            tolerance_multiplier=cfg.get_float("experiment", "tolerance_multiplier", 3.0),
        )
    except ValueError as exc:
        raise ConfigError(f"experiment.{exc}") from exc  # McConfig names the field first


def _check_steps(T: float, dt: float, where: str = "") -> None:
    try:
        _resolve_steps(T, dt)
    except ValueError as exc:
        raise ConfigError(f"{where}scheme.dt / experiment.t: {exc}") from exc


def _path_run(cfg: RunConfig, grid: TorusGrid, check: str = ""):
    """(model, scheme, T, u0) of the configured path experiment, checked for stepping.

    ``check`` names the verify check in the ConfigError of a bad scheme or dt.
    """
    where = f"{check} with " if check else ""
    model = build_model(cfg, grid)
    scheme = build_scheme(cfg)
    T = cfg.get_float("experiment", "t", required=True)
    u0 = build_initial_field(cfg, grid)
    try:
        check_scheme(model, scheme.kind)
    except ValueError as exc:
        raise ConfigError(f"{where}scheme.kind = {scheme.kind}: {exc}") from exc
    _check_steps(T, scheme.dt, where)
    return model, scheme, T, u0


def _require_transport(model, check: str) -> None:
    if not isinstance(model, TransportHeat):
        raise ConfigError(f"{check} check requires model.kind = transport_heat")


def _n_paths(cfg: RunConfig) -> int:
    """``experiment.n_paths`` of the pathwise checks and of ``burgers``: at least 1."""
    n_paths = cfg.get_int("experiment", "n_paths", 1)
    if n_paths < 1:
        raise ConfigError(f"experiment.n_paths must be at least 1, got {n_paths}")
    return n_paths


def _time(cfg: RunConfig, key: str, default=None) -> float:
    """``experiment.<key>``, a time (required without a ``default``): a number >= 0."""
    value = cfg.get_float("experiment", key, default, required=default is None)
    if value < 0:
        raise ConfigError(f"experiment.{key} must be nonnegative, got {value}")
    return value


def _rel_tol(cfg: RunConfig) -> float:
    """``experiment.rel_tol`` of the energy and quadratic-variation gates: a number > 0."""
    rel_tol = cfg.get_float("experiment", "rel_tol", 0.05)
    if rel_tol <= 0:
        raise ConfigError(f"experiment.rel_tol must be positive, got {rel_tol}")
    return rel_tol


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
    return [verify_mod.PathBalance.mass_report]


def _check_energy_identity(cfg, grid, seed):
    model, scheme, T, u0 = _path_run(cfg, grid, "energy_identity")
    _require_transport(model, "energy_identity")
    rel_tol = _rel_tol(cfg)
    dts, n_paths = [scheme.dt, scheme.dt / 2.0], _n_paths(cfg)
    refine = verify_mod.energy_identity_refinement  # a path's report is its finest rung
    finest = (refine(model, u0, T, dts, seed, i, rel_tol, scheme.kind)[-1] for i in range(n_paths))
    return [_worst(finest)]


def _check_gronwall(cfg, grid, seed):
    model, scheme, T, u0 = _path_run(cfg, grid, "gronwall")
    _require_transport(model, "gronwall")
    slack = cfg.get_float("experiment", "slack", 0.05)
    if slack < 0:
        raise ConfigError(f"experiment.slack must be nonnegative, got {slack}")
    if model.sigma_total >= 2.0:
        note = f"sigma >= 2 (sigma = {model.sigma_total:g}); bound undefined"
        return _skipped("gronwall", note, "upper", slack, float("nan"))
    return [lambda balance: balance.gronwall_report(slack)]


def _phi_weights(cfg):
    """(phi, lambda) of the ito_isometry check: one weight and variance per channel."""
    phi_kind = cfg.get_str("experiment", "phi", "single_mode")
    count = cfg.get_int("experiment", "phi_count", 16)
    if phi_kind == "single_mode":
        return np.array([1.0]), np.array([1.0])
    if phi_kind not in ("inverse_k", "white"):
        raise ConfigError("experiment.phi must be single_mode|inverse_k|white")
    if count < 1:
        raise ConfigError(f"experiment.phi_count must be at least 1, got {count}")
    if phi_kind == "inverse_k":
        return 1.0 / np.arange(1, count + 1), np.ones(count)
    return np.ones(2 * count + 1), np.ones(2 * count + 1)


def _check_ito_isometry(cfg, grid, seed):
    _mc_config(cfg, seed)
    return [verify_mod.ito_isometry_stat(*_phi_weights(cfg), _time(cfg, "t"))]


def _check_trace_identity(cfg, grid, seed):
    _mc_config(cfg, seed)
    spec = build_noise(cfg, grid)
    return [verify_mod.trace_identity_stat(spec, _time(cfg, "t"))]


def _check_wiener_covariance(cfg, grid, seed):
    _mc_config(cfg, seed)
    spec = build_noise(cfg, grid)
    s, t = _time(cfg, "s", 0.3), _time(cfg, "t")
    h = build_initial_field(cfg, grid, key="h")
    g = build_initial_field(cfg, grid, key="g")
    return [verify_mod.wiener_covariance_stat(spec, h, g, s, t)]


def _check_quadratic_variation(cfg, grid, seed):
    mc = _mc_config(cfg, seed)
    T = _time(cfg, "t")
    if T == 0:
        raise ConfigError("experiment.t must be positive for quadratic_variation, got 0")
    n_int = cfg.get_int("experiment", "qv_intervals", 2**14)
    rel_tol = _rel_tol(cfg)
    levels = [max(1, n_int // 16), max(1, n_int // 4), n_int]
    if n_int < 1 or any(n_int % level for level in levels):
        raise ConfigError(
            f"experiment.qv_intervals must be a positive multiple of {levels[:2]}, got {n_int}"
        )
    hit = 0
    for i in range(mc.n_paths):
        values = verify_mod.brownian_scalar_path(seed, n_int, T, stream_id=i)
        hit += verify_mod.quadratic_variation_partition(values, levels, T, rel_tol).passed
    frac = verify_mod.StatReport(
        name="quadratic_variation",
        estimate=hit / mc.n_paths,
        target=0.9,
        se=0.0,
        n=mc.n_paths,
        tol_kind="lower",
        tolerance=0.0,
        metadata={"intervals": n_int},
    )
    return [frac, verify_mod.smooth_quadratic_variation(T)]


def _check_ito_strat(cfg, grid, seed):
    mc = _mc_config(cfg, seed)
    # the ladder, not [scheme], sets the steps here
    model = build_model(cfg, grid)
    T = _time(cfg, "t")
    if T == 0:
        raise ConfigError("experiment.t must be positive for ito_strat, got 0")
    u0 = build_initial_field(cfg, grid)
    _require_transport(model, "ito_strat")
    ladder = cfg.get_floats("experiment", "dt_ladder", [1e-3, 2.5e-4, 6.25e-5])
    try:
        return [verify_mod.ito_strat_compare(model, u0, ladder, T, mc)]
    except ValueError as exc:
        raise ConfigError(f"experiment.dt_ladder invalid: {exc}") from exc


def _check_gaussian_moment(cfg, grid, seed):
    _mc_config(cfg, seed)
    return [verify_mod.gaussian_moment_stat(build_noise(cfg, grid))]


def _check_ou_exactness(cfg, grid, seed):
    _mc_config(cfg, seed)
    spec = build_noise(cfg, grid)
    dt = cfg.get_float("scheme", "dt", required=True)
    if dt <= 0:
        raise ConfigError(f"scheme.dt must be positive, got {dt}")
    values = cfg.get_floats("experiment", "ou_modes", [0, 1, 8])
    modes = [int(k) for k in values]
    if modes != values or len(set(modes)) < len(modes):
        raise ConfigError(f"experiment.ou_modes must be distinct integers, got {values}")
    try:
        return verify_mod.ou_variance_stats(spec, dt, modes)
    except ValueError as exc:
        raise ConfigError(f"experiment.ou_modes invalid: {exc}") from exc


def _holder_report(cfg: RunConfig, grid: TorusGrid, alpha: float) -> verify_mod.StatReport:
    """The Hoelder-exponent fit at ``alpha`` over ``experiment.lags`` and ``base_time``."""
    lags = cfg.get_floats("experiment", "lags", [2.0**-e for e in range(8, 15)])
    base_time = _time(cfg, "base_time", 0.5)
    try:
        return verify_mod.holder_exponent_fit(alpha, grid.n_modes, lags, base_time)
    except ValueError as exc:
        raise ConfigError(f"experiment.alpha or experiment.lags invalid: {exc}") from exc


def _check_holder_exponent(cfg, grid, seed):
    return [_holder_report(cfg, grid, cfg.get_float("experiment", "alpha", -0.25))]


# The verify checks by config name, in README order.  Each entry looks up the
# builders and the ``verify`` checkers as module attributes when it runs, so
# wrappers installed on those attributes (timers, tracers) see it.  A Monte
# Carlo check returns its statistics, which ``run_verify`` streams in one
# pass, and a pathwise check a function from a path's ``PathBalance`` to its
# report, which ``run_verify`` calls on the balance of every path it steps
# (``_pathwise_reports``); the other checks return their reports.
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


def _burgers_seed(problem, seed: int, i: int, seed_file: Path) -> list:
    """Solve seed ``i``, write its series to ``seed_file`` and return its summary row.

    Each Picard window is reduced to its rows of the series before the next
    window is solved, so a ``burgers`` command holds one window of v, w and
    u and one seed's series, never a path.
    """
    n_steps = problem.n_steps
    series = np.empty(
        n_steps + 1, [(n, np.int64 if n == "picard_iters" else float) for n in BURGERS_HEADER]
    )
    series["t"] = np.arange(n_steps + 1) * problem.dt

    def reduce_rows(rows, v, w, w_lp, iters, residual):
        rows["v_halpha"] = halpha_rows(v, problem.grid, problem.alpha)
        rows["w_lp"] = w_lp
        rows["u_l2"] = np.sqrt(l2_sq_rows(v + w))
        rows["picard_iters"] = iters
        rows["residual"] = residual

    for win in burgers_mod.split_windows(problem, NoiseSampler(problem.q, seed, i)):
        # row 0 and the rows ending the steps of window w belong to window w
        k = 1 if win.index else 0
        rows = series[win.step0 + k : win.step0 + win.v.shape[0]]
        reduce_rows(rows, win.v[k:], win.w[k:], win.w_lp[k:], win.iters, win.residual)
    if n_steps == 0:  # no window: the one row is the initial state, 0 iterations, residual 0
        w0 = problem.w0.coef[None]
        w0_lp = lp_rows(w0, problem.p, problem.quad_points)
        reduce_rows(series, np.zeros_like(w0), w0, w0_lp, 0, 0.0)
    write_csv(seed_file, BURGERS_HEADER, series)
    rep = burgers_mod.apriori_report(problem, series["w_lp"], series["v_halpha"])
    return [
        i,
        rep.metadata["sup_w_lp"],
        rep.metadata["w0_lp"],
        rep.metadata["sup_v_halpha"],
        rep.estimate,
        int(np.max(series["picard_iters"])),
        float(np.max(series["residual"])),
    ]


def run_burgers(cfg: RunConfig, out: Path, seed: int) -> int:
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
    try:
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
    except ValueError as exc:
        raise ConfigError(f"experiment section invalid: {exc}") from exc
    n_seeds = _n_paths(cfg)
    prefix = output_prefix(cfg)
    outputs = []
    summary_rows = []
    for i in range(n_seeds):
        seed_file = out / f"{prefix}_seed{i:03d}.csv"
        summary_rows.append(_burgers_seed(problem, seed, i, seed_file))
        outputs.append(seed_file.name)
    agg = ["ensemble", *(max(column) for column in list(zip(*summary_rows))[1:])]
    summary_file = out / f"{prefix}_summary.csv"
    write_csv(
        summary_file,
        ["seed", "sup_w_lp", "w0_lp", "sup_v_halpha", "apriori_ratio", "max_iters", "max_residual"],
        summary_rows + [agg],
    )
    outputs.append(summary_file.name)
    write_manifest(out / f"{prefix}_manifest.json", cfg, "burgers", seed, outputs)
    return 0


def run_regularity(cfg: RunConfig, out: Path, seed: int) -> int:
    global verify_mod
    from . import verify as verify_mod

    grid = build_grid(cfg)
    reports = [_holder_report(cfg, grid, a) for a in cfg.get_floats("experiment", "alpha", [-0.25])]
    curve_rows = [
        [rep.metadata["alpha"], lag, value]
        for rep in reports
        for lag, value in zip(rep.metadata["lags"], rep.metadata["structure_values"])
    ]
    curve_file = out / f"{output_prefix(cfg)}_structure.csv"
    write_csv(curve_file, ["alpha", "lag", "structure"], curve_rows)
    return _write_reports(cfg, out, seed, "regularity", reports, [curve_file.name])


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
        out = output_dir(cfg, args.out)
        seed = effective_seed(cfg, args.seed)
        return runners[args.command](cfg, out, seed)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (BlowUpError, PicardError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
