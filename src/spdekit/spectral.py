"""Fourier representation of real fields on the unit torus [0, 1).

A field is stored as the half spectrum of its Fourier amplitudes: for a grid
with ``n_modes = K`` the array ``coef`` holds the complex amplitude of mode
``k`` for ``k = 0..K`` in the convention

    u(x) = sum_{|k| <= K} amp(k) * exp(2*pi*i*k*x),    amp(-k) = conj(amp(k)).

Reality of the field is therefore structural: the negative half is never
stored.  Differential operators act as mode-wise multipliers,

    d/dx      -> 2*pi*i*k
    Laplacian -> -(2*pi*k)**2
    exp(t*Laplacian) -> exp(-(2*pi*k)**2 * t)

and the Sobolev weight of mode k is ``1 + (2*pi*k)**2``, which makes
``|f|_{H^1}^2 = |f|_{L^2}^2 + |f'|_{L^2}^2`` an exact identity.

All operations are pure: fields are immutable values, safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi

__all__ = [
    "TorusGrid",
    "SpectralField",
    "field_from_modes",
    "zero_field",
    "physical_samples",
    "field_from_samples",
    "laplacian",
    "derivative",
    "heat_semigroup",
    "sobolev_norm",
    "mode_sum",
    "l2_sq_rows",
    "lp_rows",
    "halpha_rows",
    "lp_norm",
    "h_inner",
    "dealias",
]


@dataclass(frozen=True)
class TorusGrid:
    """Mode truncation and quadrature size for fields on the torus.

    ``n_modes`` is the truncation K (modes k in {-K..K});  ``n_points`` is
    the number of equispaced quadrature points x_j = j/M and must satisfy
    M >= 2K+1 so band-limited fields are represented without aliasing.
    """

    n_modes: int
    n_points: int = 0  # 0 means "use the default 4K (>= 2K+1)"

    def __post_init__(self):
        if int(self.n_modes) != self.n_modes or self.n_modes < 0:
            raise ValueError(f"n_modes must be a nonnegative integer, got {self.n_modes}")
        object.__setattr__(self, "n_modes", int(self.n_modes))
        if self.n_points == 0:
            object.__setattr__(self, "n_points", max(2 * self.n_modes + 1, 4 * self.n_modes))
        if int(self.n_points) != self.n_points:
            raise ValueError(f"n_points must be an integer, got {self.n_points}")
        object.__setattr__(self, "n_points", int(self.n_points))
        if self.n_points < 2 * self.n_modes + 1:
            raise ValueError(
                f"n_points={self.n_points} < 2*n_modes+1={2 * self.n_modes + 1}: "
                "band-limited fields would alias"
            )

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Integer mode numbers of the stored half spectrum, 0..K."""
        return np.arange(self.n_modes + 1)

    @cached_property
    def angular(self) -> np.ndarray:
        """2*pi*k for k = 0..K."""
        return TWO_PI * self.wavenumbers.astype(float)

    @cached_property
    def laplacian_eigs(self) -> np.ndarray:
        """mu_k = (2*pi*k)**2, the (negated) Laplacian eigenvalues."""
        return self.angular**2

    @cached_property
    def sobolev_weights(self) -> np.ndarray:
        """w_k = 1 + (2*pi*k)**2."""
        return 1.0 + self.laplacian_eigs

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.n_points) / self.n_points


@dataclass(frozen=True)
class SpectralField:
    """A real-valued field on the torus as Hermitian-packed amplitudes.

    ``coef[k]`` is amp(k) for k = 0..grid.n_modes; the mirror amplitude is
    the conjugate, so the represented field is real by construction.  The
    k = 0 amplitude is kept exactly real.
    """

    grid: TorusGrid
    coef: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coef, dtype=np.complex128)
        if c.shape != (self.grid.n_modes + 1,):
            raise ValueError(
                f"coefficient array has shape {c.shape}, expected {(self.grid.n_modes + 1,)}"
            )
        c = c.copy()
        c[0] = c[0].real  # mode 0 of a real field carries no phase
        c.setflags(write=False)
        object.__setattr__(self, "coef", c)

    def amp(self, k: int) -> complex:
        """Amplitude of mode k for any k in {-K..K}."""
        if abs(k) > self.grid.n_modes:
            raise ValueError(f"mode {k} outside truncation |k| <= {self.grid.n_modes}")
        return complex(self.coef[k]) if k >= 0 else complex(np.conj(self.coef[-k]))

    def with_coef(self, coef: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, coef)

    # Fields form a vector space; the dunders keep model code readable.
    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coef + other.coef)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coef - other.coef)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coef * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coef)

    @property
    def mean(self) -> float:
        """Spatial mean, i.e. the k = 0 amplitude."""
        return float(self.coef[0].real)


def _check_same_grid(f: SpectralField, g: SpectralField) -> None:
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")


def zero_field(grid: TorusGrid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.n_modes + 1, dtype=np.complex128))


def field_from_modes(grid: TorusGrid, entries) -> SpectralField:
    """Build a field from (mode, amplitude) pairs.

    Modes may be given for either or both signs; a one-sided entry fills its
    mirror by conjugation, a two-sided pair must already be conjugate.
    Unspecified modes are zero.
    """
    if isinstance(entries, dict):
        entries = entries.items()
    coef = np.zeros(grid.n_modes + 1, dtype=np.complex128)
    seen: dict[int, complex] = {}
    for k, a in entries:
        k = int(k)
        a = complex(a)
        if abs(k) > grid.n_modes:
            raise ValueError(f"mode {k} outside truncation |k| <= {grid.n_modes}")
        if k in seen:
            raise ValueError(f"mode {k} specified twice")
        seen[k] = a
    for k, a in seen.items():
        if k == 0:
            if a.imag != 0.0:
                raise ValueError("mode 0 of a real field must have zero imaginary part")
            coef[0] = a
        elif k > 0:
            coef[k] = a
        else:
            if -k in seen:
                if not np.isclose(seen[-k], np.conj(a), rtol=0.0, atol=1e-14):
                    raise ValueError(
                        f"modes {k} and {-k} are not a conjugate pair: {a} vs {seen[-k]}"
                    )
            else:
                coef[-k] = np.conj(a)
    return SpectralField(grid, coef)


def _samples_to_coef(samples: np.ndarray, n_modes: int) -> np.ndarray:
    """DFT the real samples and keep modes 0..n_modes (spectral projection)."""
    m = samples.shape[-1]
    spec = np.fft.rfft(samples) / m
    return np.asarray(spec[..., : n_modes + 1], dtype=np.complex128)


def _coef_to_samples(
    coef: np.ndarray, n_points: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Real samples of half spectra (zero above mode K) at j/n_points."""
    return np.fft.irfft(coef, n_points, norm="forward", out=out)


def physical_samples(f: SpectralField, n_points: int | None = None) -> np.ndarray:
    """Evaluate the field at j/n (n >= 2K+1), default the grid's quadrature."""
    return _coef_to_samples(f.coef, _sample_count(f.grid, n_points))


def _sample_count(grid: TorusGrid, n_points: int | None) -> int:
    n = grid.n_points if n_points is None else int(n_points)
    if n < 2 * grid.n_modes + 1:
        raise ValueError(f"{n} sample points alias a K={grid.n_modes} field")
    return n


def field_from_samples(grid: TorusGrid, samples) -> SpectralField:
    """Project samples on any equispaced grid (>= 2K+1 points) onto the band."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 2 * grid.n_modes + 1:
        raise ValueError("need a 1-d sample array with at least 2K+1 points")
    return SpectralField(grid, _samples_to_coef(samples, grid.n_modes))


def laplacian(f: SpectralField) -> SpectralField:
    return f.with_coef(f.coef * (-f.grid.laplacian_eigs))


def derivative(f: SpectralField) -> SpectralField:
    return f.with_coef(f.coef * (1j * f.grid.angular))


def heat_semigroup(f: SpectralField, t: float) -> SpectralField:
    """exp(t*Laplacian) f, exact mode-wise."""
    if t < 0:
        raise ValueError(f"heat semigroup needs t >= 0, got {t}")
    return f.with_coef(f.coef * np.exp(-f.grid.laplacian_eigs * t))


def mode_sum(x: np.ndarray) -> np.ndarray:
    """Sum over all modes -K..K of a per-mode quantity stored for k = 0..K.

    Mode 0 counts once and each k >= 1 twice, for itself and its mirror -k:
    x_0 + 2 sum_{k>=1} x_k along the last axis.
    """
    return x[..., 0] + 2.0 * np.sum(x[..., 1:], axis=-1)


_ROWS = 256  # rows per chunk of a row norm: bounds its temporaries


def _by_chunks(reduce, coef: np.ndarray, *args) -> np.ndarray:
    """``reduce(rows, *args)`` of each ``_ROWS`` rows of ``coef``, one value per row."""
    out = np.empty(coef.shape[:-1])
    for r0 in range(0, coef.shape[0], _ROWS):
        out[r0 : r0 + _ROWS] = reduce(coef[r0 : r0 + _ROWS], *args)
    return out


def l2_sq_rows(coef: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Squared (weighted) L^2 norm of each half spectrum along the last axis.

    With mode weights w_k this is w_0 c_0^2 + 2 sum_{k>=1} w_k |c_k|^2, and
    w = 1 without ``weights``.  The imaginary part of the k = 0 amplitude is
    ignored, as for a real field.  A batch is squared ``_ROWS`` rows of its
    first axis at a time, so the float temporary stays one chunk.
    """
    if coef.ndim < 2:
        return _l2_sq(coef, weights)
    return _by_chunks(_l2_sq, coef, weights)


def _l2_sq(coef: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    sq = np.abs(coef)
    sq *= sq
    sq[..., 0] = coef[..., 0].real ** 2
    if weights is not None:
        sq *= weights
    return mode_sum(sq)


def halpha_rows(coef: np.ndarray, grid: TorusGrid, alpha: float) -> np.ndarray:
    """H^alpha norm (sum_k w_k^alpha |amp(k)|^2)^(1/2) of each row, w_k = 1 + (2 pi k)^2."""
    return np.sqrt(l2_sq_rows(coef, grid.sobolev_weights**alpha))


_LP_FLOOR = np.finfo(float).tiny / np.finfo(float).eps  # below it a p-th power loses digits


def _lp_of_squares(sq: np.ndarray, p: float) -> np.ndarray:
    """L^p norm per row from squared real samples; overwrites ``sq``.

    (s*s)**(p/2) is |s|**p for real s, and numpy squares in place at p = 4.
    A nonzero row whose largest power m^p (m^2 = max s^2) falls below
    ``_LP_FLOOR`` or overflows, as at large p, is formed as
    m * mean((s^2 / m^2)^(p/2))^(1/p); every other row as mean(|s|^p)^(1/p).
    As m^2 lies in [sum / n, sum] of a row's n squares, the row sum settles
    almost every row: an all-zero row, or one whose bounds, widened by a
    factor 2 for the rounding of the sum, keep m^p in [_LP_FLOOR, inf).
    The max is taken only over the rows the sum leaves in doubt.
    """
    n = sq.shape[-1]
    with np.errstate(over="ignore", under="ignore"):
        low = 2.0 * n * _LP_FLOOR ** (2.0 / p)  # a sum above it puts m^p above _LP_FLOOR
        high = 0.5 * np.finfo(float).max ** (2.0 / p)  # a sum below it keeps m^p finite
        total = np.einsum("...i->...", sq)
        scaled = ~(((total == 0.0) | (total >= low)) & (total <= high))  # the rows in doubt
        if scaled.any():
            m_sq = np.max(sq[scaled], axis=-1)
            top = m_sq ** (p / 2)
            need = ((top < _LP_FLOOR) | np.isinf(top)) & (m_sq > 0) & np.isfinite(m_sq)
            scaled[scaled] = need  # narrowed to the rows that need scaling
            m_sq = m_sq[need]
            sq[scaled] /= m_sq[:, None]
        sq **= p / 2
        norms = np.mean(sq, axis=-1) ** (1.0 / p)
    if scaled.any():
        norms[scaled] *= np.sqrt(m_sq)
    return norms


def _lp_chunk(coef: np.ndarray, p: float, n_points: int) -> np.ndarray:
    samples = _coef_to_samples(coef, n_points)
    samples *= samples
    return _lp_of_squares(samples, p)


def lp_rows(coef: np.ndarray, p: float, n_points: int) -> np.ndarray:
    """L^p norm of each half spectrum on ``n_points`` samples, one irfft per ``_ROWS`` rows."""
    return _by_chunks(_lp_chunk, coef, p, n_points)


def sobolev_norm(f: SpectralField, alpha: float) -> float:
    """H^alpha norm of ``f``: the one-row :func:`halpha_rows`."""
    return float(halpha_rows(f.coef[None], f.grid, float(alpha))[0])


def lp_norm(f: SpectralField, p: float, quad_points: int | None = None) -> float:
    """L^p norm on ``quad_points`` samples (default M): the one-row :func:`lp_rows`.

    The rectangle rule is spectrally accurate for smooth periodic integrands;
    for p > 2 pass enough points to resolve |u|^p (p*K/2 rule of thumb).
    """
    if p < 1:
        raise ValueError(f"lp_norm needs p >= 1, got {p}")
    return float(lp_rows(f.coef[None], p, _sample_count(f.grid, quad_points))[0])


def h_inner(f: SpectralField, g: SpectralField, space: str = "l2") -> float:
    """Inner product in L^2, homogeneous H^1_0, or H^-1.

    The H^1_0 and H^-1 pairings require mean-zero fields; H^-1 carries the
    inverse-Laplacian weight 1/(2 pi k)^2 per mode.
    """
    _check_same_grid(f, g)
    key = space.lower().replace("^", "").replace("_", "")
    pair = (f.coef * np.conj(g.coef)).real
    if key == "l2":
        return float(mode_sum(pair))
    if key not in ("h10", "h-1", "hminus1"):
        raise ValueError(f"unknown space {space!r}; expected 'l2', 'h10' or 'h-1'")
    _require_mean_zero(f, g, space)
    mu = f.grid.laplacian_eigs
    if key == "h10":
        return float(mode_sum(mu * pair))
    # the mean-zero mode carries weight 0 in place of 1/mu_0
    return float(mode_sum(np.divide(pair, mu, out=np.zeros_like(pair), where=mu > 0)))


def _require_mean_zero(f: SpectralField, g: SpectralField, space: str) -> None:
    if f.coef[0].real != 0.0 or g.coef[0].real != 0.0:
        raise ValueError(f"{space} pairing requires mean-zero fields")


def dealias(f: SpectralField, fraction: float) -> SpectralField:
    """Zero all modes with |k| > fraction * K (the 2/3 rule at fraction=2/3)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"dealias fraction must lie in (0, 1], got {fraction}")
    cutoff = fraction * f.grid.n_modes
    coef = f.coef.copy()
    coef[f.grid.wavenumbers > cutoff] = 0.0
    return f.with_coef(coef)
