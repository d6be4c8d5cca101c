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

``verify`` and ``regularity`` run in :mod:`spdekit.cli_verify` and ``burgers``
in :mod:`spdekit.cli_burgers`; :func:`main` imports a runner's module only
when its command runs.

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
from .spectral import SpectralField, TorusGrid, field_from_modes, zero_field

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
    """Write the header and the rows, list rows only: each value through :func:`_fmt`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(x) for x in row] for row in rows)


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
        """A whole table of list rows only, through :func:`write_csv`."""
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


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _runner(command: str) -> Callable[[RunConfig, _Outputs, int], int]:
    """The run function of ``command``, its module imported only now.

    So a command compiles and loads only its own runner: ``cli_verify`` and
    ``verify`` for ``verify`` and ``regularity``, ``cli_burgers`` and
    ``burgers`` for ``burgers``, neither for ``simulate``.
    """
    if command == "simulate":
        return run_simulate
    if command == "burgers":
        from .cli_burgers import run_burgers

        return run_burgers
    from . import cli_verify

    return cli_verify.run_verify if command == "verify" else cli_verify.run_regularity


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spdekit",
        description="Spectral Galerkin SPDE simulation and verification on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "verify", "burgers", "regularity"):
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
            code = _runner(args.command)(cfg, outputs, seed)
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
    # ``python -m spdekit.cli`` runs this file as ``__main__``; the runner modules
    # import ``spdekit.cli``, so call its ``main``, which catches their ``ConfigError``
    from spdekit.cli import main as cli_main

    sys.exit(cli_main())
