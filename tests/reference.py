"""The per-step reference the block updates of ``spdekit.integrators`` are tested against.

Each scheme of ``integrators.SCHEME_KINDS`` is a function ``(model, u, inc)
-> u`` on field objects, written from the equations, one step per call: a
loop of them checks every block update.  An increment is a
:class:`NoiseIncrement`, the N(0, dt) channel draws of one step and the
field they pack to, and ``diffusion_apply`` is the realized noise term B(u) dW.
:class:`MatrixNoise` drives the block loop from a held matrix of increments.
:func:`pack_reference` is the Hermitian packing written as one expression
per band, the reference for ``noise.pack_draws``, which forms its products
in its output buffer.
``energy_table``, ``gronwall_table`` and ``mass_table`` are the pathwise
transport checks computed on a whole norm table at once, the reference for
``verify.PathBalance``, which folds the rows block by block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spdekit.integrators import check_scheme, ou_tau
from spdekit.models import (
    AdditiveHeat,
    Burgers,
    DriftKernel,
    ModelSpec,
    PorousMedium,
    ReactionDiffusion,
    TransportHeat,
    _check_grid,
    drift,
)
from spdekit.noise import CovarianceSpec, pack_draws
from spdekit.spectral import SpectralField, derivative, heat_semigroup
from spdekit.verify import StatReport


@dataclass(frozen=True)
class NoiseIncrement:
    """One realized increment dW over a step of length dt.

    ``per_mode`` keeps the underlying real Gaussian draws (N(0, dt) per
    channel) so scheme-level identities can reuse the exact randomness;
    ``field`` is the packed real field they generate under the covariance.
    """

    dt: float
    field: SpectralField
    per_mode: np.ndarray

    def scalar_increments(self, count: int) -> np.ndarray:
        """First ``count`` channels as independent scalar Brownian increments."""
        if count > self.per_mode.shape[-1]:
            raise ValueError(
                f"{count} scalar channels requested, only {self.per_mode.shape[-1]} drawn"
            )
        return self.per_mode[:count]


class MatrixNoise:
    """A noise source whose increments are the rows of a held matrix.

    ``matrix`` has one row of scaled channel increments per step (shape
    (n_steps, 2K+1)); the block loop of ``spdekit.integrators`` reads rows
    step0..step0+n-1 through ``increments``, as it reads a ``NoiseSampler``.
    """

    def __init__(self, spec: CovarianceSpec, matrix: np.ndarray):
        self.spec = spec
        self.matrix = np.asarray(matrix, dtype=float)

    def increments(self, step0: int, n_steps: int, dt: float) -> np.ndarray:
        if self.matrix.shape[1:] != (self.spec.n_channels,) or step0 + n_steps > len(self.matrix):
            raise ValueError(f"no rows {step0}..{step0 + n_steps - 1} in {self.matrix.shape}")
        return self.matrix[step0 : step0 + n_steps]


def per_channel(per_mode: np.ndarray) -> np.ndarray:
    """A per-mode quantity (k = 0..K) on the 2K+1 channels: 0, then the cos/sin pair of each k."""
    return np.repeat(per_mode, 2)[1:]


def pack_reference(spec: CovarianceSpec, scaled: np.ndarray) -> np.ndarray:
    """amp(0) = sqrt(lam_0) z_0 and amp(k) = sqrt(lam_k / 2) (z_cos - i z_sin) for k >= 1."""
    root = np.sqrt(spec.lam)
    coef = np.empty(scaled.shape[:-1] + (spec.grid.n_modes + 1,), dtype=np.complex128)
    coef[..., 0] = root[0] * scaled[..., 0]
    half = root[1:] / np.sqrt(2.0)
    coef[..., 1:] = half * (scaled[..., 1::2] - 1j * scaled[..., 2::2])
    return coef


def increment_from_scaled(
    spec: CovarianceSpec, scaled: np.ndarray, dt: float
) -> NoiseIncrement:
    """Wrap pre-scaled channel draws (N(0, dt)) as a NoiseIncrement."""
    fld = SpectralField(spec.grid, pack_draws(spec, scaled))
    return NoiseIncrement(dt=dt, field=fld, per_mode=scaled)


def transport_noise_amplitude(model: TransportHeat, inc: NoiseIncrement) -> float:
    """Collapsed channel increment sum_j sqrt(sigma_j) dbeta^j for one step."""
    j = len(model.sigma_seq)
    db = inc.scalar_increments(j)
    return float(np.dot(np.sqrt(model.sigma_seq), db))


def diffusion_apply(model: ModelSpec, u: SpectralField, inc: NoiseIncrement) -> SpectralField:
    """The realized noise term B(u) dW for one increment."""
    _check_grid(model, u)
    if inc.field.grid != model.grid:
        raise ValueError("increment grid does not match model grid")
    if isinstance(model, TransportHeat):
        return derivative(u) * transport_noise_amplitude(model, inc)
    # additive models: the increment enters untouched by the state
    return inc.field


def _check_inc(u: SpectralField, inc: NoiseIncrement) -> None:
    if inc.dt <= 0:
        raise ValueError(f"increment dt must be positive, got {inc.dt}")
    if inc.field.grid != u.grid:
        raise ValueError("increment grid does not match state grid")


def em_step(model: ModelSpec, u: SpectralField, inc: NoiseIncrement) -> SpectralField:
    """u + A(u) dt + B(u) dW, the Ito-form Euler step of the Galerkin system."""
    _check_inc(u, inc)
    return u + drift(model, u) * inc.dt + diffusion_apply(model, u, inc)


def heun_strat_step(model: ModelSpec, u: SpectralField, inc: NoiseIncrement) -> SpectralField:
    """Midpoint predictor-corrector for the Stratonovich transport form.

    Integrates du = (1 - sigma/2) Lap u dt + sqrt(sigma) u_x o dW: the
    deterministic drift is explicit, the noise slope is averaged between the
    base point and the Euler predictor.
    """
    check_scheme(model, "heun_stratonovich")
    _check_inc(u, inc)
    s = transport_noise_amplitude(model, inc)
    a = u.grid.angular
    mu = u.grid.laplacian_eigs
    c = u.coef
    slope = c * (1j * a)
    pred = c + slope * s
    pred_slope = pred * (1j * a)
    drift_fac = 1.0 - 0.5 * model.sigma_total
    new = c + (c * (-mu) * drift_fac) * inc.dt + (0.5 * (slope + pred_slope)) * s
    return SpectralField(u.grid, new)


def exact_ou_step(model: ModelSpec, u: SpectralField, inc: NoiseIncrement) -> SpectralField:
    """Distributionally exact transition of dv = Lap v dt + Q^(1/2) dW (AdditiveHeat).

    On the diagonal OU system exponential Euler integrates the linear part
    and the stochastic convolution exactly, so the two schemes coincide.
    """
    check_scheme(model, "exact_ou")
    return exp_euler_step(model, u, inc)


def _nonlinear_drift(model: ModelSpec, u: SpectralField) -> SpectralField:
    """A(u) minus the Laplacian, for models with a Laplacian linear part."""
    if isinstance(model, (TransportHeat, AdditiveHeat)):
        return SpectralField(u.grid, np.zeros_like(u.coef))
    if isinstance(model, PorousMedium) and model.m == 2:
        return SpectralField(u.grid, np.zeros_like(u.coef))
    if isinstance(model, (ReactionDiffusion, Burgers)):
        return SpectralField(u.grid, DriftKernel(model).nonlinear(u.coef))
    raise ValueError(
        f"{type(model).__name__} has no Laplacian linear part; exponential Euler undefined"
    )


def exp_euler_step(model: ModelSpec, u: SpectralField, inc: NoiseIncrement) -> SpectralField:
    """One-step Duhamel update with exact integration of the linear part."""
    _check_inc(u, inc)
    if isinstance(model, TransportHeat):
        forced = u + diffusion_apply(model, u, inc)
        return heat_semigroup(forced, inc.dt)
    nl = _nonlinear_drift(model, u)
    if isinstance(model, AdditiveHeat):
        rescale = np.sqrt(ou_tau(u.grid.laplacian_eigs, inc.dt) / inc.dt)  # exact convolution
        eta = pack_draws(model.q, inc.per_mode * per_channel(rescale))
        propagated = heat_semigroup(u + nl * inc.dt, inc.dt)
        return SpectralField(u.grid, propagated.coef + eta)
    # remaining additive-noise models: semigroup image of the plain increment
    return heat_semigroup(u + nl * inc.dt + inc.field, inc.dt)


def _trapz(y: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoidal integrals of the series y from its first row to each later one."""
    return np.cumsum(0.5 * dt * (y[1:] + y[:-1]))


def _table_terms(norms: np.ndarray, sigma):
    """(sigma, dt, l2, h1) of a norm table on a uniform time grid."""
    t = norms["t"]
    dt = float(t[1] - t[0]) if t.size > 1 else 0.0
    return float(np.sum(np.atleast_1d(sigma))), dt, norms["l2_sq"], norms["h1_sq"]


def energy_table(norms: np.ndarray, sigma, rel_tol: float = 0.05) -> StatReport:
    """The worst residual of |u_t|^2 + (2-sigma) int |u|^2_{H^1} = |u_0|^2 + (2-sigma) int |u|^2."""
    sig, dt, l2, h1 = _table_terms(norms, sigma)
    k = 2.0 - sig
    residual = np.abs(l2[1:] + k * _trapz(h1, dt) - (l2[0] + k * _trapz(l2, dt)))
    worst = float(np.max(residual)) if residual.size else 0.0
    scale = float(l2[0]) if l2[0] > 0 else 1.0
    return StatReport(
        name="energy_identity",
        estimate=worst,
        target=0.0,
        se=0.0,
        n=1,
        tol_kind="abs",
        tolerance=rel_tol * scale,
        metadata={"relative_residual": worst / scale, "sigma": sig, "dt": dt},
    )


def gronwall_table(norms: np.ndarray, sigma, slack: float = 0.05) -> StatReport:
    """The worst ratio of |u_t|^2 + (2-sigma) int |u|^2_{H^1} to |u_0|^2 e^{(2-sigma) t}."""
    sig, dt, l2, h1 = _table_terms(norms, sigma)
    if sig >= 2.0:
        raise ValueError(f"gronwall bound undefined: requires (2 - sigma) > 0, got sigma = {sig}")
    lhs = l2 + (2.0 - sig) * np.concatenate(([0.0], _trapz(h1, dt)))
    bound = l2[0] * np.exp((2.0 - sig) * norms["t"])
    worst = float(np.max(lhs / bound)) if l2[0] > 0 else 0.0
    return StatReport(
        name="gronwall",
        estimate=worst,
        target=1.0 + slack,
        se=0.0,
        n=1,
        tol_kind="upper",
        tolerance=slack,
        metadata={"sigma": sig, "T": float(norms["t"][-1])},
    )


def mass_table(norms: np.ndarray, tol: float = 1e-10) -> StatReport:
    """The worst deviation of the mean mode from its initial value."""
    mode0 = norms["mode0"]
    return StatReport(
        name="mass_conservation",
        estimate=float(np.max(np.abs(mode0 - mode0[0]))),
        target=0.0,
        se=0.0,
        n=1,
        tol_kind="abs",
        tolerance=tol,
        metadata={"initial_mean": float(mode0[0])},
    )
