"""The ``burgers`` command: an ensemble of split Burgers solves, streamed seed by seed.

``spdekit.cli.main`` imports this module only when ``burgers`` runs, so the
other commands neither load ``burgers`` nor compile this module.
"""

from __future__ import annotations

import numpy as np

from . import burgers as burgers_mod
from .cli import ConfigError, RunConfig, _Outputs, _check_steps, _naming, _write_table
from .cli import build_grid, build_initial_field, build_noise
from .noise import NoiseSampler
from .spectral import halpha_rows, l2_sq_rows

__all__ = ["run_burgers", "BURGERS_HEADER"]


BURGERS_HEADER = ["t", "v_halpha", "w_lp", "u_l2", "picard_iters", "residual"]


def _burgers_seed(problem, seed: int, i: int, outputs: _Outputs) -> list:
    """Solve seed ``i``, stream its rows to ``<prefix>_seed<i>.csv`` and return its summary row.

    Each Picard window's rows are appended before the next window is solved,
    and the file is closed when the seed ends, so a ``burgers`` command holds
    one window of v, w and u and one open file, never a path.  The summary
    keeps running maxima; its a priori ratio,
    sup |w|_{L^p} / (|w_0|_{L^p} + sup |v|_{H^alpha}), is reported, not gated.
    """
    peaks = np.full(4, -np.inf)  # sup w_lp, sup v_halpha, max iterations, max residual
    with outputs.open(f"seed{i:03d}.csv", BURGERS_HEADER) as fh:
        for win in burgers_mod.split_windows(problem, NoiseSampler(problem.q, seed, i)):
            n = win.v.shape[0]
            v_halpha = halpha_rows(win.v, problem.grid, problem.alpha)
            if win.index == 0:
                w0_lp = float(win.w_lp[0])
            _write_table(fh, np.rec.fromarrays([
                (win.step0 + np.arange(n)) * problem.dt,
                v_halpha,
                win.w_lp,
                np.sqrt(l2_sq_rows(win.v + win.w)),
                np.full(n, win.iters),
                np.full(n, win.residual),
            ]))
            peaks = np.maximum(peaks, [win.w_lp.max(), v_halpha.max(), win.iters, win.residual])
    sup_w, sup_v, iters, residual = peaks.tolist()
    denom = w0_lp + sup_v
    ratio = sup_w / denom if denom > 0 else 0.0
    return [i, sup_w, w0_lp, sup_v, ratio, int(iters), residual]


def run_burgers(cfg: RunConfig, outputs: _Outputs, seed: int) -> int:
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
