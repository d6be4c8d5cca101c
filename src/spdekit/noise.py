"""Truncated Q-Wiener increments and diagonal covariance arithmetic.

A covariance is diagonal in the Fourier basis: one eigenvalue per mode
k in {-K..K} with the real-field symmetry lambda(-k) = lambda(k).  White
noise is the lambda = 1 case, which only exists as an operator after
truncation to the 2K+1 retained modes; every quantity derived from it is
reported as truncated.

Sampling packs 2K+1 independent real Gaussian channels (one per mode: the
constant, and a cosine/sine pair for each k >= 1) into a Hermitian half
spectrum so that the increment field is real and

    Var <dW, e_k> = lambda_k * dt        for every mode k.

Every normal comes from :func:`stream_normals`: the Philox stream keyed
(seed, stream) read from counter block ``chunk``.  A path's step s is row
s mod ``BLOCK_STEPS`` (256) of counter block s // ``BLOCK_STEPS`` of its
stream, so distinct streams and blocks can be generated in any order and
still reproduce, and a run draws each block as it steps it and stores none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import SpectralField, TorusGrid, mode_sum

__all__ = [
    "CovarianceSpec",
    "NoiseSampler",
    "trace",
    "hs_norm_sq",
    "stream_normals",
    "covariance_pairing",
    "pack_draws",
    "coarsen_increments",
    "BLOCK_STEPS",
]

BLOCK_STEPS = 256  # path steps per Philox counter block


@dataclass(frozen=True)
class CovarianceSpec:
    """Diagonal covariance operator on the truncated Fourier basis.

    ``lam[k]`` is the eigenvalue of modes +-k for k = 0..K.  ``kind`` is
    "trace_class" for genuinely summable spectra and "white" for the
    truncated identity.
    """

    grid: TorusGrid
    kind: str
    lam: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.kind not in ("trace_class", "white"):
            raise ValueError(f"kind must be 'trace_class' or 'white', got {self.kind!r}")
        lam = np.asarray(self.lam, dtype=float)
        if lam.shape != (self.grid.n_modes + 1,):
            raise ValueError(
                f"need one eigenvalue per mode 0..K, got shape {lam.shape} for K={self.grid.n_modes}"
            )
        if np.any(lam < 0):
            raise ValueError("covariance eigenvalues must be nonnegative")
        lam = lam.copy()
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)

    @classmethod
    def white(cls, grid: TorusGrid) -> "CovarianceSpec":
        return cls(grid, "white", np.ones(grid.n_modes + 1))

    @classmethod
    def power(cls, grid: TorusGrid, gamma: float) -> "CovarianceSpec":
        """lambda_k = (1 + k^2)^(-gamma)."""
        k = np.arange(grid.n_modes + 1, dtype=float)
        return cls(grid, "trace_class", (1.0 + k**2) ** (-gamma))

    @classmethod
    def from_eigenvalues(cls, grid: TorusGrid, values) -> "CovarianceSpec":
        return cls(grid, "trace_class", np.asarray(values, dtype=float))

    @classmethod
    def mean_free_white(cls, grid: TorusGrid) -> "CovarianceSpec":
        """Truncated identity with the constant mode removed.

        The natural driver for mean-conserving equations (Burgers): the k=0
        momentum stays a pathwise invariant.  Trace class after truncation.
        """
        lam = np.ones(grid.n_modes + 1)
        lam[0] = 0.0
        return cls(grid, "trace_class", lam)

    @property
    def n_channels(self) -> int:
        return 2 * self.grid.n_modes + 1


def trace(spec: CovarianceSpec, truncated_ok: bool = False) -> float:
    """Tr Q = sum of eigenvalues over all 2K+1 modes.

    For white noise the untruncated trace diverges; pass ``truncated_ok``
    to receive the trace of the truncation instead of an error.
    """
    if spec.kind == "white" and not truncated_ok:
        raise ValueError(
            "white noise is not trace class; pass truncated_ok=True for the "
            "trace of the 2K+1-mode truncation"
        )
    return float(mode_sum(spec.lam))


def hs_norm_sq(spec: CovarianceSpec, truncated_ok: bool = False) -> float:
    """Squared Hilbert-Schmidt norm, sum of squared eigenvalues."""
    if spec.kind == "white" and not truncated_ok:
        raise ValueError(
            "white noise is not Hilbert-Schmidt; pass truncated_ok=True for "
            "the truncated value"
        )
    return float(mode_sum(spec.lam**2))


def covariance_pairing(spec: CovarianceSpec, h: SpectralField, g: SpectralField) -> float:
    """<Qh, g> = sum_k lambda_k amp_h(k) conj(amp_g(k)), a real number."""
    if h.grid != spec.grid or g.grid != spec.grid:
        raise ValueError("fields and covariance must share one grid")
    return float(mode_sum(spec.lam * (h.coef * np.conj(g.coef)).real))


_PACK_BUFSIZE = 1024  # elements per ufunc buffer in pack_draws


def pack_draws(
    spec: CovarianceSpec,
    scaled: np.ndarray,
    out: np.ndarray | None = None,
    gain: np.ndarray | None = None,
) -> np.ndarray:
    """Hermitian half spectrum from per-channel draws (already scaled).

    ``scaled[..., ch]`` are the real channel increments, and this is the one
    place their order is written: channel 0 is the constant mode, and
    channels 2k-1 and 2k are the cosine and sine channels of mode k >= 1,
    which land in amp(k) = sqrt(lam_k/2) * (cos - i sin) relative to
    unit-variance channels, i.e. each channel contributes variance
    lam_k*dt/2 to the complex amplitude.  ``gain[k]``, if given, multiplies
    both channels of mode k; it is applied where it gives the bits of
    packing the draws with those two channels scaled by ``gain[k]``,
    without that copy.  The products are formed in the band of ``out`` (a
    new array without it): no block-sized temporary.  numpy buffers each
    strided or cast operand of these products in up to bufsize elements (by
    default 8192, 128 kB per complex operand), so they run with
    ``_PACK_BUFSIZE``, and their buffers stay small too.
    """
    root = np.sqrt(spec.lam)
    if out is None:
        out = np.empty(scaled.shape[:-1] + (spec.grid.n_modes + 1,), dtype=np.complex128)
    out[..., 0] = root[0] * (scaled[..., 0] if gain is None else scaled[..., 0] * gain[0])
    half = root[1:] / np.sqrt(2.0)
    band = out[..., 1:]  # half * (cos - 1j * sin), one product at a time
    with np.errstate():  # which restores the buffer size at exit
        np.setbufsize(_PACK_BUFSIZE)
        np.multiply(1j, scaled[..., 2::2], out=band)
        np.subtract(scaled[..., 1::2], band, out=band)
        if gain is not None:
            np.multiply(band, gain[1:], out=band)
        np.multiply(half, band, out=band)
    return out


def stream_normals(seed: int, streams, cols: int, chunk: int = 0) -> np.ndarray:
    """Standard normals of counter-keyed Philox streams, shape (len(streams), cols).

    Row ``i`` is the first ``cols`` normals of the Philox stream keyed
    ``(seed, streams[i])`` at counter ``[0, 0, 0, chunk]``, i.e. of
    ``Generator(Philox(key=[seed, streams[i]], counter=[0, 0, 0, chunk]))
    .standard_normal(cols)``.  This is the one place a Philox key is chosen.
    One generator draws every row, re-keyed from a plain-int copy of its
    fresh state.
    """
    bitgen = np.random.Philox(
        key=np.array([seed, 0], dtype=np.uint64),
        counter=np.array([0, 0, 0, chunk], dtype=np.uint64),
    )
    gen = np.random.Generator(bitgen)
    # a Philox stream is fixed by its key and counter alone, so one generator
    # re-keyed from its fresh state draws what a new generator per row would;
    # the state setter reads plain ints faster than ndarray elements
    fresh = bitgen.state
    fresh["state"] = {name: arr.tolist() for name, arr in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]
    out = np.empty((len(streams), cols))
    for row, stream in zip(out, streams):
        key[1] = stream
        bitgen.state = fresh
        gen.standard_normal(out=row)
    return out


class NoiseSampler:
    """Reproducible channel draws of the stream ``(seed, stream_id)``.

    Stateless: the draw for (step, channel) is a pure function of (seed,
    stream_id, step, channel) and the channel count 2K+1, so paths and blocks
    can be generated in any order.  A step's channels are read from one
    stream, so the same channel changes with K.
    """

    def __init__(self, spec: CovarianceSpec, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise ValueError("seed and stream_id must be nonnegative integers")
        self.spec = spec
        self.seed = int(seed)
        self.stream_id = int(stream_id)

    def draws_block(self, step0: int, n_steps: int) -> np.ndarray:
        """Unit-variance draws for steps step0..step0+n_steps-1, shape (n_steps, 2K+1).

        A block's normals come in order, so it is drawn up to the last row
        read; a request inside one block is a view of its draws, not a copy.
        """
        width, parts, step, end = self.spec.n_channels, [], step0, step0 + n_steps
        while step < end or not parts:
            chunk, lo = divmod(step, BLOCK_STEPS)
            hi = min(BLOCK_STEPS, lo + end - step)  # the block's rows up to the last one read
            block = stream_normals(self.seed, [self.stream_id], hi * width, chunk)
            parts.append(block.reshape(hi, width)[lo:])
            step += hi - lo
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def increments(self, step0: int, n_steps: int, dt: float) -> np.ndarray:
        """The N(0, dt) increments of those steps: :meth:`draws_block` scaled in place.

        The block loop of ``integrators`` reads its noise through this method.
        """
        out = self.draws_block(step0, n_steps)
        out *= np.sqrt(dt)
        return out


def coarsen_increments(scaled: np.ndarray, factor: int) -> np.ndarray:
    """Sum consecutive fine increments into coarse ones (Brownian-consistent)."""
    n = scaled.shape[0]
    if n % factor != 0:
        raise ValueError(f"{n} fine steps do not group into blocks of {factor}")
    return scaled.reshape(n // factor, factor, *scaled.shape[1:]).sum(axis=1)
