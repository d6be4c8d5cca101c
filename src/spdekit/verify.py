"""Statistical verification harness.

Each checker evaluates one quantitative identity of the theory against a
simulated or closed-form quantity and emits a :class:`StatReport`: estimate,
target, standard error, sample count and a pass flag that is a pure function
of those fields plus the recorded tolerance.  Monte Carlo checks pass within
a configurable multiple of the standard error (3 by default); deterministic
pathwise checks carry explicit absolute or relative slacks.

A Monte Carlo check is an :class:`McStatistic` and runs one way, through
:func:`mc_reports`: every statistic of a call shares one streamed pass over
the rows.  The pathwise checks of the transport equation are reports of a
path's :class:`PathBalance`, which folds the blocks ``step_blocks`` yields
(``balance.add(*block)``), so no norm table is held.  :func:`ladder_blocks`
steps a dt ladder off one fine path, holding a few of its counter blocks,
for :func:`ito_strat_compare` and :func:`energy_identity_refinement`;
:func:`ladder_rungs` checks a ladder without stepping.

Covered identities:

* pathwise energy balance and the Groenwall bound of the transport equation,
  with the sigma < 2 window;
* conservation of the mean mode under divergence-form noise;
* the Ito isometry and the Wiener covariance  E<W_t,h><W_s,g> = (s^t)<Qh,g>;
* quadratic variation along refining partitions;
* the exact increment covariance of the stochastic heat equation and the
  Kolmogorov-type Hoelder exponent derived from it;
* Ito vs Stratonovich scheme equivalence on a common driving path;
* trace identity E|W_T|^2 = T Tr Q and the Gaussian fourth-moment formula
  E|X|^4 = (Tr Q)^2 + 2 Tr(Q^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable

import numpy as np

from .integrators import SchemeSpec, _resolve_steps, block_norms, noise_spec, ou_gain, ou_tau
from .integrators import step_blocks
from .models import ModelSpec, TransportHeat
from .noise import (
    BLOCK_STEPS,
    CovarianceSpec,
    NoiseSampler,
    coarsen_increments,
    covariance_pairing,
    hs_norm_sq,
    pack_draws,
    stream_normals,
    trace,
)
from .spectral import SpectralField, TorusGrid, l2_sq_rows, mode_sum

__all__ = [
    "McConfig",
    "StatReport",
    "evaluate_pass",
    "fraction_report",
    "McStatistic",
    "mc_normals",
    "mc_pass",
    "mc_reports",
    "PathBalance",
    "energy_identity_refinement",
    "ladder_rungs",
    "ladder_blocks",
    "ito_isometry_stat",
    "wiener_covariance_stat",
    "quadratic_variation_partition",
    "smooth_quadratic_variation",
    "brownian_scalar_path",
    "she_increment_structure",
    "holder_exponent_fit",
    "ito_strat_compare",
    "gaussian_moment_stat",
    "trace_identity_stat",
    "ou_variance_stats",
]


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo budget: path count, base seed, SE multiple for the gate."""

    n_paths: int = 10_000
    base_seed: int = 0
    tolerance_multiplier: float = 3.0

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("n_paths must be at least 2")
        if not 0 <= self.base_seed < 2**64:
            raise ValueError(f"base_seed must lie in [0, 2^64), got {self.base_seed}")
        if not self.tolerance_multiplier > 0:
            raise ValueError(f"tolerance_multiplier must be > 0, got {self.tolerance_multiplier}")


def evaluate_pass(estimate, target, se, tol_kind, tolerance) -> bool:
    """Recompute a report's pass flag from its recorded fields."""
    if tol_kind == "se":
        return abs(estimate - target) <= tolerance * se
    if tol_kind == "abs":
        return abs(estimate - target) <= tolerance
    if tol_kind == "rel":
        return abs(estimate - target) <= tolerance * abs(target)
    if tol_kind == "upper":
        return estimate <= target
    if tol_kind == "lower":
        return estimate >= target
    if tol_kind == "band":
        lo, hi = tolerance
        return lo * target <= estimate <= hi * target * (1.0 + 1e-12)
    raise ValueError(f"unknown tolerance kind {tol_kind!r}")


@dataclass(frozen=True)
class StatReport:
    """One verified quantity; ``passed`` is derived, never stored."""

    name: str
    estimate: float
    target: float
    se: float
    n: int
    tol_kind: str
    tolerance: object
    skipped: bool = False
    note: str = ""
    metadata: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        if self.skipped:
            return True
        return evaluate_pass(self.estimate, self.target, self.se, self.tol_kind, self.tolerance)


def fraction_report(name: str, passed: int, n_paths: int, **metadata) -> StatReport:
    """The share of ``n_paths`` paths that pass a per-path test; it must reach 0.9."""
    return StatReport(name, passed / n_paths, 0.9, 0.0, n_paths, "lower", 0.0, metadata=metadata)


_MC_ROWS = 256  # rows per chunk of the Monte Carlo pass: about 0.5 MB of normals at 259 columns


def mc_normals(seed: int, rows: range | int, cols: int) -> np.ndarray:
    """Monte Carlo standard normals of the rows ``rows``, shape (len(rows), cols).

    ``rows`` is a range of row indices, or a count n for rows 0..n-1.  Row
    ``i`` is the first ``cols`` normals of the Philox stream keyed
    ``(seed, i)``: ``noise.stream_normals(seed, rows, cols)``.  A stream is
    fixed by its key, so rows can be drawn in any order and grouping, and the
    ziggurat consumes a stream in order, so a narrower draw is the leading
    columns of a wider one.  Nothing is kept between calls.
    """
    if not isinstance(rows, range):
        rows = range(rows)
    return stream_normals(seed, rows, cols)


@dataclass(frozen=True)
class McStatistic:
    """One Monte Carlo report, split for the streamed pass of :func:`mc_pass`.

    ``cols`` is one past the last column ``per_row`` reads, and ``per_row``
    maps unit normals of shape (rows, ``cols``) to one sample per row; the
    report is the mean of the ``n_paths`` samples against ``target``.
    """

    name: str
    cols: int
    per_row: Callable[[np.ndarray], np.ndarray]
    target: float
    note: str = ""
    metadata: dict = dc_field(default_factory=dict)


def mc_pass(stats: list[McStatistic], cfg: McConfig) -> list[np.ndarray]:
    """The ``cfg.n_paths`` samples of each statistic, from one pass over row chunks.

    Rows are drawn once, ``_MC_ROWS`` at a time, each up to the last column
    any statistic reads (the largest ``cols``); each statistic sees the
    leading ``cols`` columns of each chunk.  Memory grows with the chunk and
    the sample vectors, not with the draws.
    """
    if not stats:
        return []
    cols = max(st.cols for st in stats)
    samples = [np.empty(cfg.n_paths) for _ in stats]
    for lo in range(0, cfg.n_paths, _MC_ROWS):
        rows = range(lo, min(lo + _MC_ROWS, cfg.n_paths))
        z = mc_normals(cfg.base_seed, rows, cols)
        for st, out in zip(stats, samples):
            out[rows.start : rows.stop] = st.per_row(z[:, : st.cols])
        del z  # spent: the next chunk is drawn without it
    return samples


def mc_reports(stats: list[McStatistic], cfg: McConfig) -> list[StatReport]:
    """The report of each statistic, gated at ``cfg.tolerance_multiplier`` SEs."""
    return [
        StatReport(
            name=st.name,
            estimate=float(np.mean(samples)),
            target=st.target,
            se=float(np.std(samples, ddof=1) / np.sqrt(cfg.n_paths)),
            n=cfg.n_paths,
            tol_kind="se",
            tolerance=cfg.tolerance_multiplier,
            note=st.note,
            metadata=st.metadata,
        )
        for st, samples in zip(stats, mc_pass(stats, cfg))
    ]


def ladder_rungs(dts, T: float) -> list[float]:
    """The rungs of a dt ladder over [0, T], coarse to fine, checked without stepping.

    ValueError unless there are two or more distinct rungs, positive integer
    multiples of the finest, each of which divides T.
    """
    dts = sorted((float(dt) for dt in dts), reverse=True)
    if len(dts) < 2 or len(set(dts)) < len(dts):
        raise ValueError(f"need two or more distinct rungs, got {dts[::-1]}")
    if dts[-1] <= 0:
        raise ValueError(f"rungs must be positive, got {dts[-1]:g}")
    if any(abs(round(dt / dts[-1]) * dts[-1] - dt) > 1e-9 * dt for dt in dts):
        raise ValueError(f"ladder dts must be integer multiples of the finest, got {dts[::-1]}")
    for dt in dts:
        _resolve_steps(T, dt)
    return dts


def ladder_blocks(
    model: ModelSpec, u0: SpectralField, T: float, dts, kinds, seed: int, stream_id: int = 0
):
    """Step every scheme of ``kinds`` at every rung of ``dts`` in lockstep off one fine path.

    Yields ``(lane, step0, rows, l2_sq)`` per block as ``step_blocks`` does;
    lanes go rung by rung, coarse to fine, ``kinds`` innermost.  The fine
    path is the stream ``(seed, stream_id)`` at the smallest dt, and the lane
    furthest behind in it steps next, so about f_max + 1 of its counter
    blocks are held, whatever T is.  ValueError as :func:`ladder_rungs`.
    """
    dts = ladder_rungs(dts, T)
    lanes = [(SchemeSpec(kind, dt), int(round(dt / dts[-1]))) for dt in dts for kind in kinds]
    fine = _FineStream(NoiseSampler(noise_spec(model), seed, stream_id), dts[-1], T)
    runs = [step_blocks(model, scheme, u0, T, fine) for scheme, _ in lanes]
    done = [0] * len(lanes)  # fine steps each lane has stepped
    while min(done) < fine.n_steps:
        lane = done.index(min(done))
        step0, rows, l2_sq = next(runs[lane])
        done[lane] = (step0 + rows.shape[0] - 1) * lanes[lane][1]
        fine.drop_before(min(done))
        yield lane, step0, rows, l2_sq


class _FineStream:
    """The noise source of a ladder's lanes: one fine path, held a counter block at a time.

    A lane at dt steps sums of dt / dt_fine fine increments (``coarsen_increments``).
    A block is drawn when a lane first reads it and held until :meth:`drop_before`.
    """

    def __init__(self, sampler: NoiseSampler, dt: float, T: float):
        self.sampler, self.spec, self.dt = sampler, sampler.spec, dt
        self.n_steps, self.held = _resolve_steps(T, dt), {}  # counter block -> increments

    def increments(self, step0: int, n_steps: int, dt: float) -> np.ndarray:
        factor = int(round(dt / self.dt))
        lo, hi = step0 * factor, (step0 + n_steps) * factor
        blocks = range(lo // BLOCK_STEPS, -(-hi // BLOCK_STEPS))
        for c in blocks:
            if c not in self.held:
                n = min(BLOCK_STEPS, self.n_steps - c * BLOCK_STEPS)
                self.held[c] = self.sampler.increments(c * BLOCK_STEPS, n, self.dt)
        if factor == 1:  # a lane at the fine dt reads one held block
            return self.held[blocks[0]]
        return coarsen_increments(np.concatenate([self.held[c] for c in blocks]), factor)

    def drop_before(self, step: int) -> None:
        """Drop the blocks that end at or before fine step ``step``: every lane is past them."""
        for c in [c for c in self.held if (c + 1) * BLOCK_STEPS <= step]:
            del self.held[c]


def _weighted_sq_rows(z: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights_j z_ij^2 for each row, without a (rows, columns) temporary."""
    return np.einsum("ij,ij,j->i", z, z, weights)


_UNITS = 64  # unit channels packed per pack_draws call by _packed_units


def _packed_units(spec: CovarianceSpec, reduce, scale: float = 1.0, gain=None) -> np.ndarray:
    """Row j: ``reduce`` of ``pack_draws(spec, scale * e_j, gain=gain)``, ``_UNITS`` j at a time.

    What one unit of channel j adds to a packed increment: a check weighs its
    draws by these rows, so it reads the channel order from ``pack_draws``.
    """
    n, parts = spec.n_channels, []
    for lo in range(0, n, _UNITS):
        rows = np.arange(min(_UNITS, n - lo))
        units = np.zeros((rows.size, n))
        units[rows, lo + rows] = scale
        parts.append(reduce(pack_draws(spec, units, gain=gain)))
    return np.concatenate(parts)


def _trapz_run(y: np.ndarray, start: float, dt: float) -> np.ndarray:
    """Trapezoidal integrals at the rows y[1:], going on from ``start`` at y[0].

    ``np.cumsum`` adds in order: block by block, a series has the bits of a whole one.
    """
    out = 0.5 * dt * (y[1:] + y[:-1])
    out[:1] += start
    return np.cumsum(out, out=out)


# ---------------------------------------------------------------------------
# pathwise identities of the transport equation
# ---------------------------------------------------------------------------


class PathBalance:
    """A path's pathwise balances, fed its blocks in time order.

    The path starts at ``u0`` and steps by ``dt``; sigma is the summed
    intensity of a :class:`~spdekit.models.TransportHeat` model, 0 for any
    other.  :meth:`add` takes each block as ``integrators.step_blocks`` or
    :func:`ladder_blocks` yields it and folds its ``block_norms`` rows at once.
    One running trapezoid integral per column (:func:`_trapz_run`) carries
    int |u|^2 and int |u|^2_{H^1} on from the last row folded; from them the
    fold keeps the worst energy residual, the worst Groenwall ratio and the
    worst deviation of the mean mode, which :meth:`energy_report`,
    :meth:`gronwall_report` and :meth:`mass_report` only read.  The extremes
    do not depend on where the blocks end.
    """

    def __init__(self, model: ModelSpec, dt: float, u0: SpectralField):
        transport = isinstance(model, TransportHeat)  # no other noise enters the balances
        self.sig, self.dt, self.grid = model.sigma_total if transport else 0.0, dt, u0.grid
        first = block_norms(np.zeros(1), u0.coef[None], self.grid)
        self.k, self.l2_0, self.mode0_0 = 2.0 - self.sig, first["l2_sq"][0], first["mode0"][0]
        self.last, self.ints = first[0], (0.0, 0.0)  # the last row folded and its integrals
        self.residual, self.deviation = 0.0, 0.0
        # the Groenwall ratio is defined for sigma < 2 and |u_0| > 0; it is 1 at t = 0
        self.bounded = self.k > 0 and self.l2_0 > 0
        self.ratio = 1.0 if self.bounded else 0.0

    def add(self, step0: int, rows: np.ndarray, l2_sq: np.ndarray) -> None:
        """Fold the states ``rows[1:]``, at steps ``step0 + 1, ...``, with L^2 rows ``l2_sq``."""
        if rows.shape[0] < 2:
            return
        times = np.arange(step0 + 1, step0 + rows.shape[0]) * self.dt
        norms = block_norms(times, rows[1:], self.grid, l2_sq)
        l2, h1 = (np.concatenate(([self.last[c]], norms[c])) for c in ("l2_sq", "h1_sq"))
        ints = [_trapz_run(y, start, self.dt) for y, start in zip((l2, h1), self.ints)]
        lhs = l2[1:] + self.k * ints[1]  # |u_t|^2 + (2-sigma) int_0^t |u|^2_{H^1}
        residual = np.max(np.abs(lhs - (self.l2_0 + self.k * ints[0])))
        self.residual = float(np.maximum(self.residual, residual))
        if self.bounded:
            ratio = np.max(lhs / (self.l2_0 * np.exp(self.k * times)))
            self.ratio = float(np.maximum(self.ratio, ratio))
        deviation = np.max(np.abs(norms["mode0"] - self.mode0_0))
        self.deviation = float(np.maximum(self.deviation, deviation))
        self.last, self.ints = norms[-1], (ints[0][-1], ints[1][-1])

    def energy_report(self, rel_tol: float = 0.05) -> StatReport:
        """Pathwise energy balance of the transport equation.

        The worst residual of |u_t|^2 + (2-sigma) int_0^t |u|_{H^1}^2
        = |u_0|^2 + (2-sigma) int_0^t |u|_{L^2}^2 over the rows, with
        trapezoidal time quadrature, gated at ``rel_tol`` times |u_0|^2.
        """
        scale = float(self.l2_0) if self.l2_0 > 0 else 1.0
        return StatReport(
            name="energy_identity",
            estimate=self.residual,
            target=0.0,
            se=0.0,
            n=1,
            tol_kind="abs",
            tolerance=rel_tol * scale,
            metadata={"relative_residual": self.residual / scale, "sigma": self.sig, "dt": self.dt},
        )

    def gronwall_report(self, slack: float = 0.05) -> StatReport:
        """Groenwall energy bound of the transport equation; ValueError unless sigma < 2.

        The worst ratio of |u_t|^2 + (2-sigma) int_0^t |u|_{H^1}^2 to
        |u_0|^2 e^{(2-sigma) t} over the rows (1 at t = 0); pass iff it
        stays below 1 + ``slack``.
        """
        if self.sig >= 2.0:
            raise ValueError(
                f"gronwall bound undefined: requires (2 - sigma) > 0, got sigma = {self.sig}"
            )
        return StatReport(
            name="gronwall",
            estimate=self.ratio,
            target=1.0 + slack,
            se=0.0,
            n=1,
            tol_kind="upper",
            tolerance=slack,
            metadata={"sigma": self.sig, "T": float(self.last["t"])},
        )

    def mass_report(self, tol: float = 1e-10) -> StatReport:
        """Pathwise conservation of the mean mode: the worst |Re u_0(t) - Re u_0(0)|.

        Under divergence-form noise the mode-0 component of a derivative is
        identically zero in the truncated system, so the mean is conserved
        exactly at every dt and ``tol`` only absorbs rounding.
        """
        return StatReport(
            name="mass_conservation",
            estimate=self.deviation,
            target=0.0,
            se=0.0,
            n=1,
            tol_kind="abs",
            tolerance=tol,
            metadata={"initial_mean": float(self.mode0_0)},
        )


def energy_identity_refinement(
    model: TransportHeat,
    u0: SpectralField,
    T: float,
    dts,
    seed: int,
    stream_id: int = 0,
    rel_tol: float = 0.05,
    kind: str = "euler_maruyama",
) -> list[StatReport]:
    """Energy residual across a dt ladder driven by one Brownian path.

    The ladder is simulated with the scheme ``kind`` from block-sums of the
    finest increments, so residual decay under refinement is a pathwise
    statement.  Reports come coarse to fine; each carries the decay ratio to
    its predecessor.
    """
    dts = ladder_rungs(dts, T)
    balances = [PathBalance(model, dt, u0) for dt in dts]
    for lane, *block in ladder_blocks(model, u0, T, dts, [kind], seed, stream_id):
        balances[lane].add(*block)
    reports = [balance.energy_report(rel_tol) for balance in balances]
    for i, rep in enumerate(reports):
        ratio = reports[i - 1].estimate / rep.estimate if i and rep.estimate > 0 else np.inf
        reports[i] = replace(rep, metadata={**rep.metadata, "decay_from_previous": ratio})
    return reports


# ---------------------------------------------------------------------------
# Monte Carlo identities of the stochastic integral
# ---------------------------------------------------------------------------


def ito_isometry_stat(phi, lam, T: float) -> McStatistic:
    """|phi . W_T|^2 per path, against the closed form T sum_j phi_j^2 lambda_j.

    ``phi`` are deterministic, time-constant weights over independent scalar
    Brownian channels with variances ``lam``.
    """
    phi = np.asarray(phi, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if phi.shape != lam.shape:
        raise ValueError("phi and lambda must have matching shapes")
    weights = phi**2 * lam * T
    return McStatistic(
        "ito_isometry",
        phi.size,
        lambda z: np.sum(weights * z**2, axis=1),
        float(T * np.sum(phi**2 * lam)),
        metadata={"T": T, "channels": int(phi.size)},
    )


def wiener_covariance_stat(
    spec: CovarianceSpec, h: SpectralField, g: SpectralField, s: float, t: float
) -> McStatistic:
    """<W_t, h> <W_s, g> per path, against (s ^ t) <Qh, g>.

    The first 2K+1 columns drive W at the earlier time, the next 2K+1 its
    increment to the later one; each pairing is the draws times the weights
    of its test field, the L^2 pairing of each packed unit channel with it.
    The increment block is read only up to the last channel that ``h`` or
    ``g`` weighs; the channels past it carry zero weight.
    """
    if s < 0 or t < 0:
        raise ValueError("times must be nonnegative")
    target = float(min(s, t) * covariance_pairing(spec, h, g))  # checks the grids
    lo, hi = (s, t) if s <= t else (t, s)
    ch = spec.n_channels
    conj = np.conj(np.stack([h.coef, g.coef]))
    weights = _packed_units(spec, lambda packed: mode_sum((packed[:, None] * conj).real))
    weighed = np.flatnonzero(np.any(weights != 0.0, axis=1))
    read = int(weighed[-1]) + 1 if weighed.size else 0

    def per_row(z):
        at_lo = np.sqrt(lo) * (z[:, :ch] @ weights)  # columns <W_lo, h>, <W_lo, g>
        at_hi = at_lo + np.sqrt(hi - lo) * (z[:, ch : ch + read] @ weights[:read])
        at_t, at_s = (at_hi, at_lo) if t >= s else (at_lo, at_hi)
        return at_t[:, 0] * at_s[:, 1]

    return McStatistic("wiener_covariance", ch + read, per_row, target, metadata={"s": s, "t": t})


def trace_identity_stat(spec: CovarianceSpec, T: float) -> McStatistic:
    """|W_T|_{L^2}^2 per path, against T Tr Q (truncated trace for white noise)."""
    weights = _packed_units(spec, l2_sq_rows, np.sqrt(T))  # |pack_draws(sqrt(T) e_j)|^2
    target = float(T * trace(spec, truncated_ok=True))
    note = "truncated white noise (K modes recorded)" if spec.kind == "white" else ""
    return McStatistic(
        "trace_identity",
        spec.n_channels,
        lambda z: _weighted_sq_rows(z, weights),
        target,
        note,
        {"T": T, "n_modes": spec.grid.n_modes},
    )


def gaussian_moment_stat(spec: CovarianceSpec) -> McStatistic:
    """|X|^4 per path for X ~ N(0, Q), against (Tr Q)^2 + 2 Tr(Q^2)."""
    weights = _packed_units(spec, l2_sq_rows)  # |pack_draws(e_j)|^2
    tr = trace(spec, truncated_ok=True)
    return McStatistic(
        "gaussian_fourth_moment",
        spec.n_channels,
        lambda z: _weighted_sq_rows(z, weights) ** 2,
        float(tr**2 + 2.0 * hs_norm_sq(spec, truncated_ok=True)),
        metadata={"trace": tr},
    )


# ---------------------------------------------------------------------------
# quadratic variation
# ---------------------------------------------------------------------------


def brownian_scalar_path(seed: int, n_intervals: int, t: float, stream_id: int = 0) -> np.ndarray:
    """Standard Brownian samples on the uniform grid 0..t with n intervals."""
    inc = stream_normals(seed, [stream_id], n_intervals)[0] * np.sqrt(t / n_intervals)
    out = np.empty(n_intervals + 1)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


def quadratic_variation_partition(
    values: np.ndarray, levels, target: float, rel_tol: float = 0.05
) -> StatReport:
    """Partition sums sum (M_{t_i} - M_{t_{i-1}})^2 along refining partitions.

    ``values`` samples the scalar martingale on a uniform grid that every
    requested partition must align with; the finest level is gated against
    ``target`` (t for Brownian input, int phi^2 ds for a stochastic integral,
    0 for finite-variation paths).
    """
    values = np.asarray(values, dtype=float)
    n = values.size - 1
    sums = {}
    for level in sorted(int(l) for l in levels):
        if level < 1 or n % level != 0:
            raise ValueError(f"partition with {level} intervals does not align with {n} samples")
        sub = values[:: n // level]
        sums[level] = float(np.sum(np.diff(sub) ** 2))
    finest = max(sums)
    estimate = sums[finest]
    tol_kind, tolerance = ("rel", rel_tol) if target > 0 else ("abs", rel_tol)
    return StatReport(
        name="quadratic_variation",
        estimate=estimate,
        target=target,
        se=0.0,
        n=finest,
        tol_kind=tol_kind,
        tolerance=tolerance,
        metadata={"partition_sums": sums},
    )


_QV_SMOOTH = 2**21  # intervals of the finite-variation path
_QV_CHUNK = 2**16  # of them built and summed at a time
_QV_MARGIN = 1e-9  # relative: the midpoint remainder is ~1e-12 and the rounding ~1e-15


def smooth_quadratic_variation(T: float) -> StatReport:
    """The partition sum of g(s) = s + 0.1 sin(2 pi s / T) on [0, T], a finite-variation path.

    Over n uniform intervals the sum is (T/n) int_0^T |g'|^2 ds
    = (T^2 + 0.02 pi^2) / n up to a midpoint-rule remainder: it vanishes
    like 1/n, as the partition sums of a path of zero quadratic variation
    do.  The row is gated at that value times 1 + ``_QV_MARGIN``.

    The ``_QV_SMOOTH`` intervals are built and summed ``_QV_CHUNK`` at a time
    (both powers of two) and the chunk sums added pairwise, as ``np.sum``
    adds a whole path, so the sum has its bits.
    """
    if not T > 0:
        raise ValueError(f"horizon must be positive, got {T}")
    n, sums = _QV_SMOOTH, []
    for lo in range(0, n, _QV_CHUNK):
        s = np.arange(lo, lo + _QV_CHUNK + 1) / n * T
        sums.append(np.sum(np.diff(s + 0.1 * np.sin(2 * np.pi * s / T)) ** 2))
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    estimate = float(sums[0])
    return StatReport(
        name="quadratic_variation_smooth",
        estimate=estimate,
        target=0.0,
        se=0.0,
        n=n,
        tol_kind="abs",
        tolerance=(T * T + 0.02 * np.pi**2) / n * (1.0 + _QV_MARGIN),
        metadata={"partition_sums": {n: estimate}},
        note="finite-variation path: partition sums vanish under refinement",
    )


# ---------------------------------------------------------------------------
# stochastic heat equation: increment structure and Hoelder exponent
# ---------------------------------------------------------------------------


def she_increment_structure(alpha: float, n_modes: int, s: float, t: float) -> float:
    """Exact E |v_t - v_s|_{H^alpha}^2 for the truncated stochastic heat equation.

    Per mode, with mu = (2 pi k)^2,

        E |v_{k,t} - v_{k,s}|^2 = (e^{-mu (t-s)} - 1)^2 tau(mu, s) + tau(mu, t - s)

    with tau the OU variance of :func:`~spdekit.integrators.ou_tau`, which
    gives the k = 0 mode the Brownian value t - s.  White noise (unit
    eigenvalues) drives every mode.
    """
    if s < 0 or t < s:
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
    if t == s:
        return 0.0
    grid = TorusGrid(n_modes, 2 * n_modes + 1)
    mu = grid.laplacian_eigs
    gap = t - s
    inc = np.expm1(-mu * gap) ** 2 * ou_tau(mu, s) + ou_tau(mu, gap)
    return float(mode_sum(grid.sobolev_weights**alpha * inc))


def holder_exponent_fit(
    alpha: float,
    n_modes: int,
    lags,
    base_time: float = 0.5,
    band: tuple[float, float] = (0.9, 1.0),
) -> StatReport:
    """Log-log slope of the increment structure function against the lag.

    The theoretical exponent at d = 1 is min(1, 1/2 - alpha); the fitted
    slope must land in ``band`` times that value.  Requires alpha < 1/2
    (the structure sum diverges with K otherwise) and a base time in the
    near-stationary regime.
    """
    if alpha >= 0.5:
        raise ValueError(
            f"alpha = {alpha} >= 1/2: the H^alpha structure sum diverges as K grows"
        )
    lags = np.asarray(sorted(float(h) for h in lags))
    if np.any(lags <= 0) or np.unique(lags).size < 2:
        raise ValueError(f"lags must be positive, two or more distinct, got {lags.tolist()}")
    values = np.array(
        [she_increment_structure(alpha, n_modes, base_time, base_time + h) for h in lags]
    )
    slope, intercept = np.polyfit(np.log(lags), np.log(values), 1)
    kappa = min(1.0, 0.5 - alpha)
    return StatReport(
        name="holder_exponent",
        estimate=float(slope),
        target=kappa,
        se=0.0,
        n=lags.size,
        tol_kind="band",
        tolerance=band,
        metadata={
            "alpha": alpha,
            "n_modes": n_modes,
            "base_time": base_time,
            "lags": lags.tolist(),
            "structure_values": values.tolist(),
        },
    )


# ---------------------------------------------------------------------------
# Ito vs Stratonovich on a common path
# ---------------------------------------------------------------------------


def ito_strat_compare(
    model: TransportHeat, u0: SpectralField, dt_ladder, T: float, cfg: McConfig
) -> StatReport:
    """Common-path distance between the Ito and Stratonovich schemes of a transport model.

    For each seed the same Brownian increments (block-summed per level)
    drive Euler-Maruyama on the Ito form and Heun on the Stratonovich form;
    both target the same law, so the terminal L^2 distance must fall as dt
    does.  The per-step distance gap is itself a quadratic-variation
    fluctuation, so it decreases under refinement in the mean-square sense,
    not rung by rung per path: a seed passes when the finest distance beats
    the coarsest and stays below 10 x coarsest x sqrt(dt ratio), and the
    ensemble-mean distances must additionally decrease at every rung.
    """
    ok = 0
    mean_dist = 0.0
    ladder = ladder_rungs(dt_ladder, T)
    kinds = ("euler_maruyama", "heun_stratonovich")
    for path_idx in range(cfg.n_paths):
        final = [u0.coef] * len(kinds) * len(ladder)
        lanes = ladder_blocks(model, u0, T, ladder, kinds, cfg.base_seed, path_idx)
        for lane, _, rows, _ in lanes:
            final[lane] = rows[-1].copy()
        dists = np.sqrt([l2_sq_rows(ito - strat) for ito, strat in zip(final[::2], final[1::2])])
        mean_dist += dists
        if np.all(dists == 0.0):
            ok += 1
        else:
            decreased = dists[-1] < dists[0]
            capped = dists[-1] <= 10.0 * dists[0] * np.sqrt(ladder[-1] / ladder[0])
            ok += bool(decreased and capped)
    mean_dist /= cfg.n_paths
    ensemble_monotone = bool(np.all(np.diff(mean_dist) < 0)) or np.all(mean_dist == 0.0)
    return fraction_report(
        "ito_strat_equivalence",
        ok if ensemble_monotone else 0,
        cfg.n_paths,
        ladder=ladder,
        mean_distances=mean_dist.tolist(),
        ensemble_monotone=ensemble_monotone,
        T=T,
    )


# ---------------------------------------------------------------------------
# exact OU transition
# ---------------------------------------------------------------------------


def ou_variance_stats(q: CovarianceSpec, dt: float, modes) -> list[McStatistic]:
    """Per requested mode, the squared exact OU transition noise of each path.

    Targets lambda_k (1 - e^{-2 mu_k dt}) / (2 mu_k), the k = 0 mode being
    pure Brownian with variance lambda_0 dt.  The noise is the exact lane's:
    c_k is mode k of each unit channel packed at sqrt(dt) with its gain
    (:func:`~spdekit.integrators.ou_gain`).  Mode k's sample is |z . c_k|^2,
    two real dot products over the columns up to the last channel with c_k != 0.
    """
    modes = [int(k) for k in modes]
    for k in modes:
        if not 0 <= k <= q.grid.n_modes:
            raise ValueError(f"mode {k} outside 0..{q.grid.n_modes}")
    coef = _packed_units(q, lambda packed: packed[:, modes], np.sqrt(dt), ou_gain(q.grid, dt))
    mu = q.grid.laplacian_eigs
    stats = []
    for k, c in zip(modes, coef.T):
        reached = np.flatnonzero(c)
        n = int(reached[-1]) + 1 if reached.size else 0
        re, im = c.real[:n].copy(), c.imag[:n].copy()
        var = dt if k == 0 else -np.expm1(-2.0 * mu[k] * dt) / (2.0 * mu[k])
        stats.append(
            McStatistic(
                f"ou_variance_mode{k}",
                n,
                lambda z, n=n, re=re, im=im: (z[:, :n] @ re) ** 2 + (z[:, :n] @ im) ** 2,
                float(q.lam[k] * var),
                metadata={"dt": dt, "mode": k},
            )
        )
    return stats
