"""The ``verify`` and ``regularity`` commands: the verify plan and its checks.

``spdekit.cli.main`` imports this module only when one of the two runs, so
the other commands neither load ``verify`` nor compile this module.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import verify as verify_mod
from .cli import ConfigError, RunConfig, _Outputs, _naming, _path_run
from .cli import build_grid, build_initial_field, build_model, build_noise
from .integrators import SchemeSpec, noise_spec, step_blocks
from .models import AdditiveHeat, PorousMedium, ReactionDiffusion, TransportHeat
from .noise import NoiseSampler
from .spectral import TorusGrid

__all__ = ["run_verify", "run_regularity", "CHECKS", "report_row", "REPORT_HEADER"]


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


def run_regularity(cfg: RunConfig, outputs: _Outputs, seed: int) -> int:
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
