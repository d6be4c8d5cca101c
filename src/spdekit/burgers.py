"""Pathwise stochastic Burgers via the linear/remainder splitting.

The solution of du = (u_xx + (u^2)_x) dt + dW is built as u = v + w:

* v solves the linear stochastic heat equation dv = v_xx dt + dW with v(0)=0
  and is sampled distributionally exactly, mode by mode (Ornstein-Uhlenbeck
  transitions);
* w solves the random-coefficient PDE w_t = w_xx + ((w + v)^2)_x with the
  rough input v frozen pathwise, found as the fixed point of the Duhamel map

      (Psi w)_t = e^{t Lap} w_0 + int_0^t e^{(t-s) Lap} ((w_s + v_s)^2)_x ds

  by Picard iteration on time windows, discretized with left-endpoint
  exponential-Euler quadrature (exact semigroup weights).

One generator, :func:`split_windows`, solves the windows in turn: it steps
v as each window needs it and yields the window's rows of v and w with its
diagnostics, each row of the split in exactly one window.  ``spdekit
burgers`` reduces each window to its output rows before the next is solved,
so the command holds one window, never a path; :func:`solve_split` is the
held view, the windows collected into the paths of v, w and u = v + w.

The iteration diagnostics (counts, contraction ratios, mild-equation
residual) are part of the product: they witness the contraction that the
fixed-point argument relies on, and failure to converge within the iteration
cap signals leaving the contraction regime for the chosen window length.

The default driving noise is mean-free truncated white noise, so the k = 0
momentum of u is a pathwise invariant, matching the conservation property
of the divergence-form nonlinearity.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .integrators import PicardError, SamplePath, SchemeSpec, _resolve_steps, step_blocks
from .models import AdditiveHeat, Burgers, nonlinear_quad_points
from .noise import CovarianceSpec, NoiseSampler
from .spectral import SpectralField, TorusGrid, _coef_to_samples, _lp_of_squares, lp_rows
from .spectral import zero_field

__all__ = [
    "BurgersProblem",
    "SplitSolution",
    "PicardError",
    "PicardWindow",
    "split_windows",
    "solve_split",
]

_CHUNK = 64  # rows per forcing rfft of a window


@dataclass(frozen=True)
class BurgersProblem:
    """Splitting configuration: horizon, step, remainder data and norms."""

    grid: TorusGrid
    T: float
    dt: float
    w0: SpectralField
    p: float = 4.0
    picard_tol: float = 1e-9
    picard_maxit: int = 25
    alpha: float = 0.25
    window: float = 0.05
    q: CovarianceSpec | None = None

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.picard_maxit < 1:
            raise ValueError("picard_maxit must be at least 1")
        _resolve_steps(self.T, self.dt)
        if not 0 < self.window < np.inf:
            raise ValueError(f"window must be positive and finite, got {self.window}")
        try:
            _resolve_steps(self.window, self.dt)
        except ValueError:
            raise ValueError(
                f"window = {self.window} is not a whole multiple of dt = {self.dt}"
            ) from None
        if self.w0.grid != self.grid:
            raise ValueError("w0 grid does not match problem grid")
        if self.q is None:
            object.__setattr__(self, "q", CovarianceSpec.mean_free_white(self.grid))
        elif self.q.grid != self.grid:
            raise ValueError("covariance grid does not match problem grid")

    @property
    def n_steps(self) -> int:
        return _resolve_steps(self.T, self.dt)

    @property
    def steps_per_window(self) -> int:
        """Steps in one Picard window: ``window / dt``, whole by the rule of ``T / dt``."""
        return _resolve_steps(self.window, self.dt)

    @property
    def quad_points(self) -> int:
        """Alias-free grid for the quadratic nonlinearity (>= 3K+1, power of 2)."""
        return nonlinear_quad_points(Burgers(self.q))


@dataclass(frozen=True)
class SplitSolution:
    """v, w and u = v + w on one time grid, plus iteration diagnostics."""

    v_path: SamplePath
    w_path: SamplePath
    u_path: SamplePath
    picard_iters: list[int]
    residuals: list[float]
    iterate_distances: list[list[float]] = dc_field(default_factory=list)

    @property
    def residual(self) -> float:
        return max(self.residuals)


def _decay_powers(decay: np.ndarray, n_rows: int) -> np.ndarray:
    """decay ** 2**l for every scan shift 2**l < n_rows, one row per level."""
    shifts = 2.0 ** np.arange((n_rows - 1).bit_length())
    return decay ** shifts[:, None]


def _semigroup_scan(x: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """x[j] <- sum_{i <= j} decay**(j - i) x[i] in place (Hillis-Steele scan).

    With x[0] the window's initial state and x[j + 1] = decay * dt * f[j], this
    is the recurrence out[j + 1] = decay * (out[j] + dt * f[j]) in one vector
    pass per row of ``powers`` (``_decay_powers(decay, len(x))``). Every
    multiplier is a power of decay <= 1 and nothing divides by decay**j, so
    modes whose decay**j underflows stay finite.
    """
    for level, power in enumerate(powers):
        shift = 1 << level
        x[shift:] += power * x[:-shift]
    return x


class PicardWindow(NamedTuple):
    """One converged Picard window: the split's rows ``step0 .. step0 + len(v) - 1``.

    ``v`` and ``w`` hold the window's states of the linear part and of the
    remainder, ``w_lp`` the L^p norm of each row of ``w``.  Window 0 holds
    the initial state (v = 0, w = w0) and its steps, every later window
    only the states of its own steps, so the windows tile the rows
    ``0 .. n_steps`` once.  The three are views of the generator's buffers,
    valid until the next window is asked for.  ``distances`` are the
    successive-iterate distances, the last at most ``picard_tol``, and
    ``residual`` the mild-equation residual.
    """

    index: int
    step0: int
    v: np.ndarray
    w: np.ndarray
    w_lp: np.ndarray
    iters: int
    residual: float
    distances: list[float]


def _windows_of(blocks, n_steps: int, steps_per_window: int):
    """Regroup consecutive blocks of states into windows of ``steps_per_window`` steps.

    ``blocks`` are state arrays whose row 0 is the last state of the block
    before (the initial state, for the first), as the ``rows`` that
    :func:`~spdekit.integrators.step_blocks` yields.  Yields ``(n0, rows)``
    with the states at steps n0 .. min(n0 + steps_per_window, n_steps), in
    one buffer reused by every window, its last row carried to row 0.
    """
    buf = None
    n0 = filled = 0
    for rows in blocks:
        if buf is None:
            buf = np.empty((min(steps_per_window, n_steps) + 1, rows.shape[1]), rows.dtype)
            buf[0] = rows[0]
        rows = rows[1:]
        while rows.shape[0]:
            want = min(steps_per_window, n_steps - n0)
            take = min(want - filled, rows.shape[0])
            buf[filled + 1 : filled + 1 + take] = rows[:take]
            filled += take
            rows = rows[take:]
            if filled == want:
                yield n0, buf[: want + 1]
                buf[0] = buf[want]
                n0, filled = n0 + want, 0


def split_windows(problem: BurgersProblem, sampler: NoiseSampler):
    """Solve the split window by window: v stepped as it is needed, w by Picard.

    v is the exact OU path of the linear part from v(0) = 0, driven by
    ``sampler`` and read from :func:`~spdekit.integrators.step_blocks` one
    window at a time, so a run holds one window of v and w and one block of
    v's steps.  Yields a :class:`PicardWindow` per window; raises
    :class:`PicardError` in the first window that exceeds the iteration cap.
    At T = 0 the one window is the initial state: 0 iterations, residual 0.

    Each window carries the iterates as physical samples: the forcing
    ((w + v)^2)_x is squared from samples(w) + samples(v), and the distances
    are L^p norms of sample differences, so one Picard iteration costs one
    rfft (the forcing) and one irfft (the new iterate). The Duhamel
    recurrence runs as a log-depth scan over the window's rows.  The window
    buffers are allocated once (the last window may use a leading part); the
    forcing rfft goes ``_CHUNK`` rows at a time, and the norms use spent iterates.
    """
    grid = problem.grid
    n_steps = problem.n_steps
    dt = problem.dt
    p = problem.p
    n_modes = grid.n_modes
    n_pts = problem.quad_points
    if n_steps == 0:
        w0 = problem.w0.coef[None]
        yield PicardWindow(0, 0, np.zeros_like(w0), w0, lp_rows(w0, p, n_pts), 0, 0.0, [])
        return
    decay = np.exp(-grid.laplacian_eigs * dt)
    gain = decay * dt * (1j * grid.angular)  # spectrum of (w + v)^2 -> decay * dt * forcing
    steps_per_window = problem.steps_per_window
    powers = _decay_powers(decay, steps_per_window + 1)

    size = min(steps_per_window, n_steps) + 1
    coef_buf = np.empty((size, n_modes + 1), dtype=np.complex128)
    w_buf = np.empty_like(coef_buf)
    sample_bufs = np.empty((3, size, n_pts))  # v and two iterates
    spec = np.empty((min(_CHUNK, size), n_pts // 2 + 1), dtype=np.complex128)
    start = problem.w0.coef  # the remainder at the window's first row

    # the window views below are bound afresh at the top of every window
    def sweep(old: np.ndarray, out: np.ndarray) -> np.ndarray:
        """One application of the discrete Duhamel map: coefficients into
        ``coef``, samples into ``out`` (which holds (old + v)^2 until then)."""
        total = np.add(old[:-1], v_samples, out=out[:-1])
        total *= total
        for r0 in range(0, total.shape[0], _CHUNK):  # rfft acts row by row
            part = total[r0 : r0 + _CHUNK]
            band = np.fft.rfft(part, norm="forward", out=spec[: part.shape[0]])
            np.multiply(band[:, : n_modes + 1], gain, out=coef[1:][r0 : r0 + _CHUNK])
        coef[0] = start
        _semigroup_scan(coef, powers)
        return _coef_to_samples(coef, n_pts, out=out)

    def sup_lp_distance(new: np.ndarray, old: np.ndarray) -> float:
        """Largest row L^p norm of new - old, formed in ``old``, which it overwrites."""
        diff = np.subtract(new, old, out=old)
        return float(np.max(_lp_of_squares(np.multiply(diff, diff, out=diff), p)))

    linear = AdditiveHeat(problem.q), SchemeSpec("exact_ou", dt), zero_field(grid), problem.T
    v_blocks = (rows for _, rows, _ in step_blocks(*linear, sampler=sampler))
    windows = _windows_of(v_blocks, n_steps, steps_per_window)
    for window_index, (n0, v) in enumerate(windows):
        rows = v.shape[0]
        coef, w = coef_buf[:rows], w_buf[:rows]
        old, spare = sample_bufs[1:, :rows]
        v_samples = _coef_to_samples(v[:-1], n_pts, out=sample_bufs[0, : rows - 1])
        # first guess: free heat evolution of the window's initial state
        coef[0] = start
        coef[1:] = 0.0
        old = _coef_to_samples(_semigroup_scan(coef, powers), n_pts, out=old)
        dists: list[float] = []
        for _ in range(problem.picard_maxit):
            new = sweep(old, spare)
            distance = sup_lp_distance(new, old)  # old is spent: the next sweep writes it
            w_lp = _lp_of_squares(np.multiply(new, new, out=old), p)
            scale = max(1.0, float(np.max(w_lp)))
            dists.append(distance / scale)
            old, spare = new, old
            if dists[-1] <= problem.picard_tol:
                break
        else:
            raise PicardError(window_index, dists[-1], problem.picard_maxit)
        w[...] = coef
        residual = sup_lp_distance(sweep(old, spare), old)
        k = 1 if window_index else 0  # a later window's row 0 is the last of the window before
        yield PicardWindow(
            window_index, n0 + k, v[k:], w[k:], w_lp[k:], len(dists), residual, dists
        )
        start = w[-1].copy()


def solve_split(problem: BurgersProblem, seed: int, stream_id: int = 0) -> SplitSolution:
    """One seed's windows of :func:`split_windows` collected into the paths v, w and u = v + w."""
    v = np.empty((problem.n_steps + 1, problem.grid.n_modes + 1), dtype=np.complex128)
    w = np.empty_like(v)
    iters, residuals, distance_log = [], [], []
    for win in split_windows(problem, NoiseSampler(problem.q, seed, stream_id)):
        rows = slice(win.step0, win.step0 + win.v.shape[0])
        v[rows], w[rows] = win.v, win.w
        iters.append(win.iters)
        residuals.append(win.residual)
        distance_log.append(win.distances)
    times = np.arange(problem.n_steps + 1) * problem.dt
    v_path, w_path, u_path = (SamplePath(problem.grid, times, x) for x in (v, w, v + w))
    return SplitSolution(v_path, w_path, u_path, iters, residuals, distance_log)
