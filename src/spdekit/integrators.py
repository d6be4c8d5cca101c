"""Time-stepping schemes for the Galerkin SDE systems.

Four schemes are provided, named by :data:`SCHEME_KINDS`:

* ``euler_maruyama`` -- explicit Euler-Maruyama on the Ito form.
* ``heun_stratonovich`` -- predictor-corrector (midpoint on the noise) for
  the Stratonovich form of the transport equation, whose deterministic drift
  is (1 - sigma/2) Lap.
* ``exponential_euler`` -- one-step Duhamel: the Laplacian is integrated
  exactly by the heat semigroup, nonlinear drift is frozen at the left
  endpoint, and additive noise enters as an exact stochastic-convolution
  increment (AdditiveHeat) or as the semigroup image of the plain increment
  otherwise.
* ``exact_ou`` -- the distributionally exact transition of the diagonal
  Ornstein-Uhlenbeck system dv = Lap v dt + Q^(1/2) dW, which is exponential
  Euler on AdditiveHeat.

``check_scheme`` holds the rules for which scheme may step which model.

Every run is one loop over blocks of ``noise.BLOCK_STEPS`` steps, one
Philox counter block each: each block's draws are made, the block is filled
by the model's block update on raw coefficient rows, then scanned for
blow-up, so a diverging path stops at its first blown block.
``step_blocks`` yields each block from one reused buffer once it is
scanned, so a caller that reduces the states as they come (to their
``block_norms``, which ``spdekit simulate`` writes and the pathwise checks
fold) holds one block of states, never the path; ``simulate`` collects the
blocks into a :class:`SamplePath`.  TransportHeat's update
is a running product of mode factors, AdditiveHeat's the recursion
c' = decay * c + eta, and the nonlinear models' (ReactionDiffusion,
PorousMedium, Burgers) a row loop that evaluates ``models.DriftKernel`` with
two FFTs per step.  ``tests/reference.py`` holds the per-step reference
the block updates are tested against.

Explicit schemes are stable only for dt < 2 / (2 pi K)^2; exponential Euler
removes the constraint for the diagonal linear part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import AdditiveHeat, DriftKernel, ModelSpec, PorousMedium, TransportHeat
from .noise import BLOCK_STEPS, CovarianceSpec, NoiseSampler, pack_draws, per_channel
from .spectral import SpectralField, TorusGrid, l2_sq_rows

__all__ = [
    "SamplePath",
    "SchemeSpec",
    "BlowUpError",
    "PicardError",
    "SCHEME_KINDS",
    "check_scheme",
    "BLOW_UP_NORM",
    "simulate",
    "step_blocks",
    "block_norms",
    "noise_spec",
    "ou_channel_variances",
    "ou_tau",
]

SCHEME_KINDS = ("euler_maruyama", "heun_stratonovich", "exponential_euler", "exact_ou")

BLOW_UP_NORM = 1e12  # L2 norm beyond which a path is declared blown up


class BlowUpError(RuntimeError):
    """A state left the finite range.

    ``time`` and ``step`` locate the first such state, ``norm`` is its L2
    norm and ``mode`` the wavenumber of its largest amplitude.
    """

    def __init__(self, time: float, step: int, norm: float, mode: int):
        self.time = time
        self.step = step
        self.norm = norm
        self.mode = mode
        super().__init__(
            f"solution blew up at t = {time:.6g} (step {step}, L2 norm {norm:.3e}, "
            f"largest amplitude at mode k = {mode})"
        )


class PicardError(RuntimeError):
    """Iteration cap exceeded: a Burgers Picard window left the contraction ball.

    Raised by :mod:`spdekit.burgers`; it lives here, next to
    :class:`BlowUpError`, so that a caller can catch both numerical failures
    without loading that module.
    """

    def __init__(self, window_index: int, distance: float, maxit: int):
        self.window_index = window_index
        self.distance = distance
        super().__init__(
            f"Picard iteration did not converge in window {window_index}: "
            f"distance {distance:.3e} after {maxit} iterations"
        )


@dataclass(frozen=True)
class SchemeSpec:
    kind: str
    dt: float

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme {self.kind!r}; expected one of {SCHEME_KINDS}")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")


def check_scheme(model: ModelSpec, kind: str) -> None:
    """Raise ValueError if the scheme ``kind`` cannot step ``model``."""
    if kind == "exact_ou" and not isinstance(model, AdditiveHeat):
        raise ValueError("exact_ou scheme applies to the AdditiveHeat model only")
    if kind == "heun_stratonovich" and not isinstance(model, TransportHeat):
        raise ValueError("heun_stratonovich applies to the TransportHeat model only")
    if kind == "exponential_euler" and isinstance(model, PorousMedium) and model.m != 2:
        raise ValueError("PorousMedium has no Laplacian linear part; exponential Euler undefined")


@dataclass(frozen=True)
class SamplePath:
    """A realized trajectory: ``states[i]`` is the half spectrum at ``times[i]``."""

    grid: TorusGrid
    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=np.complex128)
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if states.shape != (times.size, self.grid.n_modes + 1):
            raise ValueError("need one state per time on this grid")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def state(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.states[i])

    @property
    def final(self) -> SpectralField:
        return self.state(self.n_steps)


def block_norms(
    times: np.ndarray, rows: np.ndarray, grid: TorusGrid, l2_sq: np.ndarray | None = None
) -> np.ndarray:
    """The norm rows (t, |u|^2, |u|^2_{H^1}, Re u_0) of the states ``rows`` at ``times``.

    ``l2_sq`` is ``l2_sq_rows(rows)`` when the caller has it already (the
    row sums a stepped block yields); it is computed here otherwise.
    """
    norms = np.empty(len(times), [(name, float) for name in ("t", "l2_sq", "h1_sq", "mode0")])
    norms["t"] = times
    norms["l2_sq"] = l2_sq_rows(rows) if l2_sq is None else l2_sq
    norms["h1_sq"] = l2_sq_rows(rows, grid.sobolev_weights)
    norms["mode0"] = rows[:, 0].real
    return norms


def ou_tau(mu: np.ndarray, t: float) -> np.ndarray:
    """int_0^t e^{-2 mu s} ds = (1 - e^{-2 mu t}) / (2 mu) per mode, and t where mu = 0.

    The variance the stochastic convolution of dv = -mu v dt + dbeta
    accumulates over a time t.
    """
    with np.errstate(invalid="ignore"):
        tau = -np.expm1(-2.0 * mu * t) / (2.0 * mu)
    return np.where(mu == 0.0, t, tau)


def ou_channel_variances(spec: CovarianceSpec, dt: float) -> np.ndarray:
    """Per-channel variance of the exact OU transition noise over one step.

    For mode k the stochastic-convolution increment has total variance
    lambda_k tau(mu_k, dt) (see :func:`ou_tau`), split evenly between the
    cosine and sine channels.
    """
    return per_channel(spec.lam * ou_tau(spec.grid.laplacian_eigs, dt))


def _ou_rescale(spec: CovarianceSpec, dt: float) -> np.ndarray:
    """Factor turning N(0, dt) channel draws into exact-convolution draws."""
    return per_channel(np.sqrt(ou_tau(spec.grid.laplacian_eigs, dt) / dt))


def _resolve_steps(T: float, dt: float) -> int:
    """Number of steps of length ``dt`` in the horizon ``T``; ValueError unless it divides."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not 0 <= T < math.inf:
        raise ValueError(f"horizon must be finite and nonnegative, got {T}")
    n = int(round(T / dt)) if T > 0 else 0
    if abs(n * dt - T) > 1e-9 * max(T, dt):
        raise ValueError(f"dt={dt} does not divide T={T} within rounding")
    return n


def noise_spec(model: ModelSpec) -> CovarianceSpec:
    """The covariance whose channels drive ``model``.

    Transport noise is built from white channels (the first ``len(sigma)``
    of them are used; ValueError if the grid's 2K+1 channels are fewer);
    every other model is driven by its own ``model.q``.
    """
    if isinstance(model, TransportHeat):
        white = CovarianceSpec.white(model.grid)
        if len(model.sigma_seq) > white.n_channels:
            raise ValueError(
                f"{len(model.sigma_seq)} transport intensities need as many noise channels, "
                f"the grid has 2K+1 = {white.n_channels}"
            )
        return white
    return model.q


def simulate(
    model: ModelSpec,
    scheme: SchemeSpec,
    u0: SpectralField,
    T: float,
    sampler: NoiseSampler | None = None,
) -> SamplePath:
    """Run the scheme from u0 to time T and hold every state of the path.

    Noise comes from ``sampler``: a noise source, with the ``spec``
    ``noise_spec(model)``, whose ``increments(step0, n, dt)`` are the
    increments of steps step0..step0+n-1 for the loop to read (a
    :class:`NoiseSampler`, or a ladder's fine path in ``verify``).  With
    none, the increments are zero (deterministic run).  The path is the
    blocks of :func:`step_blocks`, collected.  Raises :class:`BlowUpError`
    at the time of the first state that is non-finite or has L2 norm above
    ``BLOW_UP_NORM``.
    """
    blocks = step_blocks(model, scheme, u0, T, sampler)
    n_steps = _resolve_steps(T, scheme.dt)
    states = np.empty((n_steps + 1, model.grid.n_modes + 1), dtype=np.complex128)
    states[0] = u0.coef
    for step0, rows, _ in blocks:
        states[step0 + 1 : step0 + rows.shape[0]] = rows[1:]
    return SamplePath(model.grid, np.arange(n_steps + 1) * scheme.dt, states)


def step_blocks(
    model: ModelSpec,
    scheme: SchemeSpec,
    u0: SpectralField,
    T: float,
    sampler: NoiseSampler | None = None,
):
    """Step u0 to time T, yielding each block once stepped.

    The arguments are those of :func:`simulate` and are checked at the call.
    Each block of up to ``BLOCK_STEPS`` steps is yielded as
    ``(step0, rows, l2_sq)`` after its blow-up scan: ``rows[0]`` is the state
    at step ``step0`` and ``rows[i]`` the state at step ``step0 + i``, and
    ``l2_sq`` is the scan's ``l2_sq_rows(rows[1:])``, for :func:`block_norms`.
    ``rows`` is one (BLOCK_STEPS + 1, K+1) buffer reused by every block (its
    last row is carried to row 0), so it is valid until the next block is
    asked for, and a run holds one block of states and one of draws.  Raises
    :class:`BlowUpError` as :func:`simulate` does.
    """
    grid = model.grid
    if u0.grid != grid:
        raise ValueError("initial state grid does not match model grid")
    check_scheme(model, scheme.kind)
    n_steps = _resolve_steps(T, scheme.dt)
    spec = noise_spec(model)  # checks that the model's channels fit on the grid
    if sampler is not None:
        if sampler.spec.grid != grid:
            raise ValueError("sampler grid does not match model grid")
        if sampler.spec.kind != spec.kind or not np.array_equal(sampler.spec.lam, spec.lam):
            raise ValueError(
                f"sampler covariance ({sampler.spec.kind}) is not the noise covariance "
                f"of {type(model).__name__} ({spec.kind})"
            )
    rows = np.empty((min(n_steps, BLOCK_STEPS) + 1, grid.n_modes + 1), dtype=np.complex128)
    rows[0] = u0.coef
    return _blocks(model, scheme, rows, n_steps, sampler)


def _blocks(
    model: ModelSpec,
    scheme: SchemeSpec,
    buf: np.ndarray,
    n_steps: int,
    sampler: NoiseSampler | None,
):
    """The block loop: fill, scan and yield ``(step0, rows, l2_sq)`` per block.

    ``buf[0]`` is the initial state; ``buf`` is reused by every block, its
    last row carried to row 0.
    """
    spec = noise_spec(model)
    dt = scheme.dt
    fill = _block_filler(model, scheme, spec, buf.shape[0] - 1)
    for b0 in range(0, n_steps, BLOCK_STEPS):
        b1 = min(b0 + BLOCK_STEPS, n_steps)
        if sampler is None:
            scaled = np.zeros((b1 - b0, spec.n_channels))
        else:  # a sampler reads one counter block of its stream
            scaled = sampler.increments(b0, b1 - b0, dt)
        rows = buf[: b1 - b0 + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            fill(rows, scaled)
            del scaled  # spent: the next block is drawn without it
            l2_sq = l2_sq_rows(rows[1:])
            blown = np.flatnonzero(_blown_rows(rows[1:], l2_sq))
        if blown.size:
            row = 1 + int(blown[0])
            raise _blow_up(b0 + row, dt, rows[row])
        yield b0, rows, l2_sq
        buf[0] = rows[-1]


def _block_filler(model: ModelSpec, scheme: SchemeSpec, spec: CovarianceSpec, n_rows: int):
    """The block update ``fill(rows, scaled)`` of ``model`` under ``scheme``.

    ``fill`` writes ``rows[1:]`` from ``rows[0]`` and the block's channel
    draws ``scaled`` (one row per step, at most ``n_rows``):

    * TransportHeat: each mode is multiplied by its step factor, so the
      block is a running product of :func:`_transport_factors`;
    * AdditiveHeat: c' = decay * c + eta, with eta the packed increment,
      rescaled to the exact convolution for exponential Euler and exact OU;
    * ReactionDiffusion, PorousMedium, Burgers, with A(c) = lin*c + N(c)
      the model's :class:`DriftKernel`: Euler-Maruyama c' = c + A(c) dt + eta,
      exponential Euler c' = e^{-mu dt} (c + N(c) dt + eta), where N = 0 for
      the porous medium at m = 2 (its drift is the Laplacian).

    The block's draws are packed straight into ``rows[1:]``, and each step
    adds its update to the packed increment in place, through one row-sized
    scratch: no field objects and no block-sized buffer of increments.  The
    exact-OU rescaling goes to a buffer the lane allocates once, never to
    the source's array.  Mode 0 stays exactly real: every multiplier of
    it is real (or 0j for Burgers), so its imaginary part stays +0.0 while
    the state is finite.
    """
    dt = scheme.dt
    if isinstance(model, TransportHeat):

        def fill(rows, scaled):
            _transport_factors(model, scheme.kind, scaled, dt, out=rows[1:])
            np.multiply.accumulate(rows, axis=0, out=rows)

        return fill

    mu = model.grid.laplacian_eigs
    scratch = np.empty(model.grid.n_modes + 1, dtype=np.complex128)
    rescale = None
    if isinstance(model, AdditiveHeat):
        if scheme.kind == "euler_maruyama":
            decay = 1.0 - mu * dt
        else:  # exponential Euler and exact OU share the exact-convolution increment
            decay, rescale = np.exp(-mu * dt), _ou_rescale(spec, dt)

        def step(c, out):  # out holds eta: eta + decay * c
            out += np.multiply(decay, c, out=scratch)

    else:  # c + A(c) dt + eta, or (c + N(c) dt + eta) e^{-mu dt} for exponential Euler
        decay, drift = None, DriftKernel(model)
        if scheme.kind == "exponential_euler":
            decay = np.exp(-mu * dt)
            porous = isinstance(model, PorousMedium)  # at m = 2 its drift is the Laplacian
            drift = (lambda c, out: out.fill(0.0)) if porous else drift.nonlinear

        def step(c, out):  # out holds eta: eta + (c + A(c) dt)
            drift(c, scratch)
            np.multiply(scratch, dt, out=scratch)
            out += np.add(c, scratch, out=scratch)
            if decay is not None:
                out *= decay

    # a ladder's factor-1 lanes share the drawn block, so it is rescaled into a copy
    ou_buf = None if rescale is None else np.empty((n_rows, spec.n_channels))

    def fill(rows, scaled):
        n_steps = scaled.shape[0]
        if rescale is not None:
            scaled = np.multiply(scaled, rescale, out=ou_buf[:n_steps])
        pack_draws(spec, scaled, out=rows[1:])
        for n in range(n_steps):
            step(rows[n], rows[n + 1])

    return fill


def _blow_up(step: int, dt: float, c: np.ndarray) -> BlowUpError:
    """The error for the first out-of-range state ``c``, the state at ``step``."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.sqrt(l2_sq_rows(c)))
    return BlowUpError(step * dt, step, norm, int(np.argmax(np.abs(c))))


def _blown_rows(rows: np.ndarray, l2_sq: np.ndarray) -> np.ndarray:
    """Which states are non-finite or have L2 norm above ``BLOW_UP_NORM``.

    ``l2_sq`` is ``l2_sq_rows(rows)``.
    """
    return ~np.isfinite(rows).all(axis=-1) | (l2_sq > BLOW_UP_NORM**2)


def _transport_factors(
    model: TransportHeat, kind: str, scaled: np.ndarray, dt: float, out: np.ndarray
) -> None:
    """Write the mode factors f[n, k] of step n, c_{n+1} = f[n] c_n, into ``out``.

    With a = 2 pi k and s_n = sum_j sqrt(sigma_j) dbeta_n^j the step's
    collapsed noise, i a s_n is purely imaginary, so each factor is
    assembled in place from its real and imaginary parts (no temporaries of
    the block's size).
    """
    a = model.grid.angular
    mu = model.grid.laplacian_eigs
    s = scaled[:, : len(model.sigma_seq)] @ np.sqrt(np.asarray(model.sigma_seq))
    re, im = out.real, out.imag
    if kind == "euler_maruyama":  # 1 - mu dt + i a s
        re[...] = 1.0 - mu * dt
        np.multiply.outer(s, a, out=im)
    elif kind == "heun_stratonovich":  # 1 - (1 - sigma/2) mu dt + i a s + (i a s)^2 / 2
        np.multiply.outer(s * s, -0.5 * a * a, out=re)
        re += 1.0 - (1.0 - 0.5 * model.sigma_total) * mu * dt
        np.multiply.outer(s, a, out=im)
    else:  # exponential Euler: e^{-mu dt} (1 + i a s)
        decay = np.exp(-mu * dt)
        re[...] = decay
        np.multiply.outer(s, decay * a, out=im)

