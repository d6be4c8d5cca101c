"""The concrete SPDE models as drift/diffusion pairs, and the hypothesis checkers.

Four variational models are covered:

* ``TransportHeat`` -- du = Lap u dt + sum_j sqrt(sigma_j) u_x dbeta^j, the
  linear transport-noise equation whose energy method works only below the
  coercivity threshold sum_j sigma_j < 2.
* ``AdditiveHeat``  -- du = Lap u dt + Q^(1/2) dW (the stochastic heat
  equation when Q is the truncated identity).
* ``ReactionDiffusion`` -- du = (Lap u + theta |u|^(m-2) u) dt + Q^(1/2) dW.
* ``PorousMedium``  -- du = Lap(|u|^(m-2) u) dt + Q^(1/2) dW, analysed in the
  (L^m, H^-1) Gelfand triple.

``Burgers`` -- du = (Lap u + d/dx u^2) dt + Q^(1/2) dW -- is included as a
simulation target for the splitting pipeline; it is not monotone and the
hypothesis checkers reject it.

Nonlinear terms are evaluated pointwise on an enlarged grid with at least
m*K+1 points and projected back onto the band, which keeps the retained
modes alias-free. For the Burgers quadratic m = 3: u*u has modes up to 2K,
and M points fold mode 2K onto M - 2K, which lies outside the band only when
M >= 3K+1. The rule also makes the porous-medium duality
< Lap(|u|^(m-2)u), u >_{H^-1} = -|u|_{L^m}^m an exact identity of the
discretization (at matching quadrature).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .noise import CovarianceSpec, trace
from .spectral import (
    SpectralField,
    TorusGrid,
    h_inner,
    l2_sq_rows,
    laplacian,
    lp_norm,
    sobolev_norm,
)

__all__ = [
    "TransportHeat",
    "AdditiveHeat",
    "ReactionDiffusion",
    "PorousMedium",
    "Burgers",
    "ModelSpec",
    "HypothesisReport",
    "nonlinear_quad_points",
    "DriftKernel",
    "drift",
    "diffusion_hs_norm_sq",
    "coercivity_check",
    "monotonicity_check",
    "growth_check",
]


@dataclass(frozen=True)
class TransportHeat:
    """Transport-noise heat equation; sigma_seq are the channel intensities."""

    grid: TorusGrid
    sigma_seq: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        seq = tuple(float(s) for s in np.atleast_1d(self.sigma_seq))
        if any(s < 0 for s in seq):
            raise ValueError("transport intensities sigma_j must be nonnegative")
        n_channels = 2 * self.grid.n_modes + 1
        if len(seq) > n_channels:
            raise ValueError(
                f"{len(seq)} transport intensities need as many noise channels, "
                f"the grid has 2K+1 = {n_channels}"
            )
        object.__setattr__(self, "sigma_seq", seq)

    @property
    def sigma_total(self) -> float:
        """The l1 norm of the intensity sequence; coercive iff < 2."""
        return float(sum(self.sigma_seq))


@dataclass(frozen=True)
class AdditiveHeat:
    q: CovarianceSpec

    @property
    def grid(self) -> TorusGrid:
        return self.q.grid


@dataclass(frozen=True)
class ReactionDiffusion:
    """du = (Lap u + theta |u|^(m-2) u) dt + Q^(1/2) dW.

    Any m >= 3 is accepted: in one dimension the Sobolev embedding puts no
    upper bound on the reaction exponent, so the H^1 norm serves as the
    V-norm throughout.
    """

    theta: float
    m: int
    q: CovarianceSpec

    def __post_init__(self):
        if self.m < 3:
            raise ValueError(f"reaction exponent m must be >= 3, got {self.m}")

    @property
    def grid(self) -> TorusGrid:
        return self.q.grid


@dataclass(frozen=True)
class PorousMedium:
    m: int
    q: CovarianceSpec

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"porous-medium exponent m must be >= 2, got {self.m}")

    @property
    def grid(self) -> TorusGrid:
        return self.q.grid


@dataclass(frozen=True)
class Burgers:
    q: CovarianceSpec

    @property
    def grid(self) -> TorusGrid:
        return self.q.grid


ModelSpec = Union[TransportHeat, AdditiveHeat, ReactionDiffusion, PorousMedium, Burgers]


@dataclass(frozen=True)
class HypothesisReport:
    """Evaluated inequality: pass iff margin = bound - lhs is nonnegative."""

    name: str
    lhs: float
    bound: float
    metadata: dict

    @property
    def margin(self) -> float:
        return self.bound - self.lhs


def _nonlinear_degree(model: ModelSpec) -> int:
    if isinstance(model, (ReactionDiffusion, PorousMedium)):
        return model.m
    if isinstance(model, Burgers):
        # u*u has modes up to 2K, which alias onto |k| <= K unless M >= 3K+1
        return 3
    return 1


def nonlinear_quad_points(model: ModelSpec) -> int:
    """Physical-grid size used for the model's pointwise nonlinearity.

    At least max(M, m*K + 1) rounded up to a power of two, so products up to
    degree m leave the retained band alias-free.
    """
    grid = model.grid
    degree = _nonlinear_degree(model)
    target = max(grid.n_points, degree * grid.n_modes + 1)
    n = 1
    while n < target:
        n <<= 1
    return n


class DriftKernel:
    """A(c) = lin*c + outer*P_K F(samples of c) on raw half spectra.

    The three nonlinear drifts share this form, with F evaluated on
    ``nonlinear_quad_points`` samples and P_K the projection onto the band:

    * reaction-diffusion: lin = -mu, outer = theta, F(x) = |x|^(m-2) x;
    * porous medium: lin = 0, outer = -mu, F(x) = |x|^(m-2) x;
    * Burgers: lin = -mu, outer = i a, F(x) = x*x.

    The sample and spectrum buffers are allocated once and reused, so one
    evaluation costs one ``irfft`` and one ``rfft``.  Not thread-safe.
    """

    def __init__(self, model: ModelSpec):
        grid = model.grid
        mu = grid.laplacian_eigs
        if isinstance(model, ReactionDiffusion):
            self.lin, self.outer, self._power = -mu, model.theta, model.m - 2
        elif isinstance(model, PorousMedium):
            self.lin, self.outer, self._power = None, -mu, model.m - 2
        elif isinstance(model, Burgers):
            self.lin, self.outer, self._power = -mu, 1j * grid.angular, None
        else:
            raise TypeError(f"{type(model).__name__} has no nonlinear drift")
        self.n_points = nonlinear_quad_points(model)
        self._samples = np.empty(self.n_points)
        self._modulus = np.empty(self.n_points)
        self._spectrum = np.empty(self.n_points // 2 + 1, dtype=np.complex128)
        self._band = self._spectrum[: grid.n_modes + 1]
        self._lin_c = np.empty(grid.n_modes + 1, dtype=np.complex128)

    def nonlinear(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """outer * P_K F(samples of c): the drift without its lin*c term, into ``out``."""
        s = np.fft.irfft(c, self.n_points, norm="forward", out=self._samples)
        if self._power is None:
            s *= s
        else:
            t = np.abs(s, out=self._modulus)
            t **= self._power
            s *= t
        np.fft.rfft(s, out=self._spectrum)
        band = np.divide(self._band, self.n_points, out=self._band)
        return np.multiply(self.outer, band, out=out)

    def __call__(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        nl = self.nonlinear(c, out)
        if self.lin is None:
            return nl
        return np.add(np.multiply(self.lin, c, out=self._lin_c), nl, out=nl)


def _check_grid(model: ModelSpec, u: SpectralField) -> None:
    if u.grid != model.grid:
        raise ValueError("field grid does not match model grid")


def drift(model: ModelSpec, u: SpectralField) -> SpectralField:
    """The drift A(u) of the model."""
    _check_grid(model, u)
    if isinstance(model, (TransportHeat, AdditiveHeat)):
        return laplacian(u)
    return SpectralField(u.grid, DriftKernel(model)(u.coef))


def diffusion_hs_norm_sq(model: ModelSpec, u: SpectralField) -> float:
    """|B(u)|_{L_2}^2: sigma-weighted gradient energy, or Tr Q for additive noise."""
    _check_grid(model, u)
    if isinstance(model, TransportHeat):
        return model.sigma_total * float(l2_sq_rows(u.coef, u.grid.laplacian_eigs))
    return trace(model.q, truncated_ok=True)


def _require_mean_free(u: SpectralField, what: str) -> None:
    if u.coef[0].real != 0.0:
        raise ValueError(f"{what} requires a mean-zero field")


def coercivity_check(model: ModelSpec, u: SpectralField, alpha: float) -> HypothesisReport:
    """Evaluate the coercivity inequality at u.

    lhs = 2 <A(u), u> + |B(u)|_{L_2}^2 + alpha |u|_V^(2 or m) against the
    bound lambda |u|_H^2 + nu with lambda = 0 and nu = Tr Q (0 without
    additive noise).  The pairing and V-norm follow the model's Gelfand
    triple: L^2 pairing with the (homogeneous) H^1 norm for the heat-type
    models, H^-1 pairing with the L^m norm for the porous medium.
    """
    _check_grid(model, u)
    if isinstance(model, TransportHeat):
        _require_mean_free(u, "transport coercivity")
        grad_sq = float(l2_sq_rows(u.coef, u.grid.laplacian_eigs))
        lhs = (
            2.0 * h_inner(drift(model, u), u, "l2")
            + diffusion_hs_norm_sq(model, u)
            + alpha * grad_sq
        )
        meta = {"v_norm": "h1_homogeneous", "exponent": 2, "alpha": alpha,
                "closed_form": (model.sigma_total - 2.0 + alpha) * grad_sq}
        return HypothesisReport("coercivity", lhs, 0.0, meta)
    if isinstance(model, (AdditiveHeat, ReactionDiffusion)):
        nu = trace(model.q, truncated_ok=True)
        lhs = (
            2.0 * h_inner(drift(model, u), u, "l2")
            + nu
            + alpha * sobolev_norm(u, 1.0) ** 2
        )
        meta = {"v_norm": "h1", "exponent": 2, "alpha": alpha}
        return HypothesisReport("coercivity", lhs, nu, meta)
    if isinstance(model, PorousMedium):
        _require_mean_free(u, "porous-medium coercivity")
        nu = trace(model.q, truncated_ok=True)
        vm = lp_norm(u, model.m, nonlinear_quad_points(model)) ** model.m
        lhs = 2.0 * h_inner(drift(model, u), u, "h-1") + nu + alpha * vm
        meta = {"v_norm": f"l{model.m}", "exponent": model.m, "alpha": alpha}
        return HypothesisReport("coercivity", lhs, nu, meta)
    raise ValueError(f"coercivity hypothesis not defined for {type(model).__name__}")


def monotonicity_check(model: ModelSpec, u: SpectralField, w: SpectralField) -> HypothesisReport:
    """Evaluate 2 <A(u)-A(w), u-w> + |B(u)-B(w)|_{L_2}^2 against 0."""
    _check_grid(model, u)
    _check_grid(model, w)
    diff = u - w
    a_diff = drift(model, u) - drift(model, w)
    if isinstance(model, TransportHeat):
        # B is linear in u, so |B(u) - B(w)|^2 = |B(u - w)|^2
        lhs = 2.0 * h_inner(a_diff, diff, "l2") + diffusion_hs_norm_sq(model, diff)
        return HypothesisReport("monotonicity", lhs, 0.0, {"pairing": "l2"})
    if isinstance(model, (AdditiveHeat, ReactionDiffusion)):
        # additive noise: B(u) - B(w) = 0
        lhs = 2.0 * h_inner(a_diff, diff, "l2")
        return HypothesisReport("monotonicity", lhs, 0.0, {"pairing": "l2"})
    if isinstance(model, PorousMedium):
        _require_mean_free(diff, "porous-medium monotonicity")
        lhs = 2.0 * h_inner(a_diff, diff, "h-1")
        return HypothesisReport("monotonicity", lhs, 0.0, {"pairing": "h-1"})
    raise ValueError(f"monotonicity hypothesis not defined for {type(model).__name__}")


def growth_check(model: ModelSpec, u: SpectralField) -> HypothesisReport:
    """Report |A(u)|_{V*} against c (1 + |u|_V^(m-1)) with reference c = 1.

    The dual norms use the spectral representation of the Gelfand triple:
    the H^1 dual norm for the heat-type part and the L^(m/(m-1)) norm (i.e.
    |u|_{L^m}^(m-1)) for the m-growth nonlinearities.
    """
    _check_grid(model, u)
    if isinstance(model, (TransportHeat, AdditiveHeat)):
        value = sobolev_norm(laplacian(u), -1.0)
        cap = 1.0 + sobolev_norm(u, 1.0)
        meta = {"exponent": 1, "ratio": value / cap}
        return HypothesisReport("growth", value, cap, meta)
    if isinstance(model, ReactionDiffusion):
        m = model.m
        value = sobolev_norm(laplacian(u), -1.0) + abs(model.theta) * lp_norm(
            u, m, nonlinear_quad_points(model)
        ) ** (m - 1)
        cap = 1.0 + sobolev_norm(u, 1.0) ** (m - 1)
        meta = {"exponent": m - 1, "ratio": value / cap}
        return HypothesisReport("growth", value, cap, meta)
    if isinstance(model, PorousMedium):
        m = model.m
        vm = lp_norm(u, m, nonlinear_quad_points(model))
        value = vm ** (m - 1)
        cap = 1.0 + vm ** (m - 1)
        meta = {"exponent": m - 1, "ratio": value / cap}
        return HypothesisReport("growth", value, cap, meta)
    raise ValueError(f"growth hypothesis not defined for {type(model).__name__}")
