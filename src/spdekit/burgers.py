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

The iteration diagnostics (counts, contraction ratios, mild-equation
residual) are part of the product: they witness the contraction that the
fixed-point argument relies on, and failure to converge within the iteration
cap signals leaving the contraction regime for the chosen window length.

The default driving noise is mean-free truncated white noise, so the k = 0
momentum of u is a pathwise invariant, matching the conservation property
of the divergence-form nonlinearity.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .integrators import SamplePath, SchemeSpec, _resolve_steps, simulate
from .models import AdditiveHeat, Burgers, nonlinear_quad_points
from .noise import CovarianceSpec, NoiseSampler
from .spectral import SpectralField, TorusGrid, _coef_to_samples, l2_sq_rows, zero_field
from .verify import StatReport

__all__ = [
    "BurgersProblem",
    "SplitSolution",
    "PicardError",
    "sample_linear_part",
    "solve_remainder",
    "compose",
    "apriori_report",
    "solve_split",
]


class PicardError(RuntimeError):
    """Iteration cap exceeded: the window left the contraction ball."""

    def __init__(self, window_index: int, distance: float, maxit: int):
        self.window_index = window_index
        self.distance = distance
        super().__init__(
            f"Picard iteration did not converge in window {window_index}: "
            f"distance {distance:.3e} after {maxit} iterations"
        )


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
            raise ValueError(f"working exponent p must be >= 2, got {self.p}")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.picard_maxit < 1:
            raise ValueError("picard_maxit must be at least 1")
        if self.w0.grid != self.grid:
            raise ValueError("w0 grid does not match problem grid")
        if self.q is None:
            object.__setattr__(self, "q", CovarianceSpec.mean_free_white(self.grid))
        elif self.q.grid != self.grid:
            raise ValueError("covariance grid does not match problem grid")
        _resolve_steps(self.T, self.dt)

    @property
    def n_steps(self) -> int:
        return _resolve_steps(self.T, self.dt)

    @property
    def steps_per_window(self) -> int:
        """Steps in one Picard window: ``window / dt`` rounded, at least one."""
        return max(1, int(round(self.window / self.dt)))

    @property
    def quad_points(self) -> int:
        """Alias-free grid for the quadratic nonlinearity (>= 3K+1, power of 2)."""
        return nonlinear_quad_points(Burgers(self.q), self.grid)


@dataclass(frozen=True)
class SplitSolution:
    """v, w and the composed u on one time grid, plus iteration diagnostics."""

    v_path: SamplePath
    w_path: SamplePath
    u_path: SamplePath
    picard_iters: list[int]
    residuals: list[float]
    iterate_distances: list[list[float]] = dc_field(default_factory=list)

    @property
    def residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0


def sample_linear_part(problem: BurgersProblem, sampler: NoiseSampler) -> SamplePath:
    """Distributionally exact OU path of the linear equation, v(0) = 0."""
    model = AdditiveHeat(problem.q)
    return simulate(
        model,
        SchemeSpec("exact_ou", problem.dt),
        zero_field(problem.grid),
        problem.T,
        sampler=sampler,
    )


def _lp_of_squares(sq: np.ndarray, p: float) -> np.ndarray:
    """L^p norm per row from squared real samples; overwrites ``sq``.

    (s*s)**(p/2) is |s|**p for real s, and numpy squares in place at p = 4.
    """
    sq **= p / 2
    return np.mean(sq, axis=-1) ** (1.0 / p)


_LP_ROWS = 256  # rows per transform in _lp_rows: bounds its sample buffer


def _lp_rows(coef: np.ndarray, p: float, n_points: int) -> np.ndarray:
    """L^p norm per row of a batch of half spectra, ``_LP_ROWS`` rows per irfft."""
    out = np.empty(coef.shape[:-1])
    for r0 in range(0, coef.shape[0], _LP_ROWS):
        samples = _coef_to_samples(coef[r0 : r0 + _LP_ROWS], n_points)
        samples *= samples
        out[r0 : r0 + _LP_ROWS] = _lp_of_squares(samples, p)
    return out


def _halpha_rows(coef: np.ndarray, grid: TorusGrid, alpha: float) -> np.ndarray:
    return np.sqrt(l2_sq_rows(coef, grid.sobolev_weights**alpha))


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


def solve_remainder(problem: BurgersProblem, v_path: SamplePath):
    """Windowed Picard iteration for the remainder w given the linear part.

    Returns ``(w_path, iters, residuals, distance_log)``: the converged
    remainder, iteration counts and mild-equation residuals per window, and
    the successive-iterate distances (contraction witnesses).

    Each window carries the iterates as physical samples: the forcing
    ((w + v)^2)_x is squared from samples(w) + samples(v), and the distances
    are L^p norms of sample differences, so one Picard iteration costs one
    rfft (the forcing) and one irfft (the new iterate). The Duhamel
    recurrence runs as a log-depth scan over the window's rows.
    """
    grid = problem.grid
    if v_path.grid != grid:
        raise ValueError("v path lives on a different grid")
    n_steps = problem.n_steps
    if v_path.n_steps != n_steps:
        raise ValueError("v path does not match the problem's time grid")
    dt = problem.dt
    p = problem.p
    n_modes = grid.n_modes
    decay = np.exp(-grid.laplacian_eigs * dt)
    gain = decay * dt * (1j * grid.angular)  # spectrum of (w + v)^2 -> decay * dt * forcing
    n_pts = problem.quad_points
    v = v_path.states

    w = np.empty((n_steps + 1, n_modes + 1), dtype=np.complex128)
    w[0] = problem.w0.coef
    steps_per_window = problem.steps_per_window
    powers = _decay_powers(decay, steps_per_window + 1)

    iters: list[int] = []
    residuals: list[float] = []
    distance_log: list[list[float]] = []

    # the window buffers below are bound afresh at the top of every window
    def sweep(old: np.ndarray) -> np.ndarray:
        """One application of the discrete Duhamel map: coefficients into
        ``coef``, samples (into ``spare``) returned."""
        total = np.add(old[:-1], v_samples, out=scratch[:-1])
        total *= total
        np.fft.rfft(total, norm="forward", out=spec)
        np.multiply(spec[:, : n_modes + 1], gain, out=coef[1:])
        coef[0] = w[n0]
        _semigroup_scan(coef, powers)
        return _coef_to_samples(coef, n_pts, out=spare)

    def sup_lp(squares: np.ndarray) -> float:
        return float(np.max(_lp_of_squares(squares, p)))

    def sup_lp_distance(new: np.ndarray, old: np.ndarray) -> float:
        diff = np.subtract(new, old, out=scratch)
        return sup_lp(np.multiply(diff, diff, out=diff))

    n0 = 0
    window_index = 0
    while n0 < n_steps:
        n1 = min(n0 + steps_per_window, n_steps)
        rows = n1 - n0 + 1
        v_samples = _coef_to_samples(v[n0:n1], n_pts)
        coef = np.zeros((rows, n_modes + 1), dtype=np.complex128)
        spec = np.empty((rows - 1, n_pts // 2 + 1), dtype=np.complex128)
        scratch = np.empty((rows, n_pts))
        spare = np.empty((rows, n_pts))
        # first guess: free heat evolution of the window's initial state
        coef[0] = w[n0]
        old = _coef_to_samples(_semigroup_scan(coef, powers), n_pts)
        dists: list[float] = []
        for _ in range(problem.picard_maxit):
            new = sweep(old)
            scale = max(1.0, sup_lp(np.multiply(new, new, out=scratch)))
            dists.append(sup_lp_distance(new, old) / scale)
            old, spare = new, old
            if dists[-1] <= problem.picard_tol:
                break
        else:
            raise PicardError(window_index, dists[-1], problem.picard_maxit)
        iters.append(len(dists))
        distance_log.append(dists)
        w[n0 : n1 + 1] = coef
        residuals.append(sup_lp_distance(sweep(old), old))
        n0 = n1
        window_index += 1

    times = np.arange(n_steps + 1) * dt
    w_path = SamplePath(grid, times, w)
    return w_path, iters, residuals, distance_log


def compose(v_path: SamplePath, w_path: SamplePath) -> SamplePath:
    """u = v + w snapshot by snapshot on the shared time grid."""
    if v_path.grid != w_path.grid:
        raise ValueError("paths live on different grids")
    if v_path.times.shape != w_path.times.shape or not np.array_equal(
        v_path.times, w_path.times
    ):
        raise ValueError("paths live on different time grids")
    return replace(v_path, states=v_path.states + w_path.states)


def apriori_report(
    problem: BurgersProblem,
    w_path: SamplePath,
    v_path: SamplePath,
    *,
    w_lp: np.ndarray | None = None,
    v_halpha: np.ndarray | None = None,
) -> StatReport:
    """Empirical a priori ratio sup_t |w|_{L^p} / (|w_0|_{L^p} + sup_t |v|_{H^alpha}).

    The theory bounds the numerator by a constant times the denominator with
    an abstract constant, so the ratio is reported, not gated. ``w_lp`` and
    ``v_halpha`` are the per-row norms of the two paths, when the caller has
    them already; they are computed here otherwise.
    """
    if w_lp is None:
        w_lp = _lp_rows(w_path.states, problem.p, problem.quad_points)
    if v_halpha is None:
        v_halpha = _halpha_rows(v_path.states, problem.grid, problem.alpha)
    sup_w = float(np.max(w_lp))
    w0_norm = float(w_lp[0])
    sup_v = float(np.max(v_halpha))
    denom = w0_norm + sup_v
    ratio = sup_w / denom if denom > 0 else 0.0
    return StatReport(
        name="burgers_apriori",
        estimate=ratio,
        target=0.0,
        se=0.0,
        n=w_path.times.size,
        tol_kind="abs",
        tolerance=np.inf,
        note="empirical constant; theoretical constant is abstract",
        metadata={
            "sup_w_lp": sup_w,
            "w0_lp": w0_norm,
            "sup_v_halpha": sup_v,
            "p": problem.p,
            "alpha": problem.alpha,
        },
    )


def solve_split(problem: BurgersProblem, seed: int, stream_id: int = 0) -> SplitSolution:
    """Full pipeline for one seed: sample v, solve w, compose u."""
    sampler = NoiseSampler(problem.q, seed, stream_id)
    v_path = sample_linear_part(problem, sampler)
    w_path, iters, residuals, dist_log = solve_remainder(problem, v_path)
    u_path = compose(v_path, w_path)
    return SplitSolution(v_path, w_path, u_path, iters, residuals, dist_log)
