"""Linear/remainder splitting for stochastic Burgers."""

import numpy as np
import pytest

from conftest import sin_field
from spdekit import cli
from spdekit.burgers import (
    BurgersProblem,
    PicardError,
    _decay_powers,
    _semigroup_scan,
    solve_split,
    split_windows,
)
from spdekit.noise import CovarianceSpec, NoiseSampler
from spdekit.spectral import (
    TorusGrid,
    _coef_to_samples,
    _lp_of_squares,
    _samples_to_coef,
    halpha_rows,
    lp_rows,
    zero_field,
)


def row_norms(prob, w_path, v_path):
    """(w_lp, v_halpha): the per-row norms of the w and v paths."""
    return (
        lp_rows(w_path.states, prob.p, prob.quad_points),
        halpha_rows(v_path.states, prob.grid, prob.alpha),
    )


def apriori(w_lp, v_halpha):
    """(sup_t |w|_{L^p}, |w_0|_{L^p}, sup_t |v|_{H^alpha}) and the empirical a priori ratio
    sup_t |w|_{L^p} / (|w_0|_{L^p} + sup_t |v|_{H^alpha}), 0 where the denominator is."""
    sup_w, w0, sup_v = float(np.max(w_lp)), float(w_lp[0]), float(np.max(v_halpha))
    return sup_w, w0, sup_v, sup_w / (w0 + sup_v) if w0 + sup_v > 0 else 0.0


def dead_noise(grid):
    return CovarianceSpec.from_eigenvalues(grid, np.zeros(grid.n_modes + 1))


def l2_dist(a, b):
    d = a - b
    return float(np.sqrt(d[0].real ** 2 + 2 * np.sum(np.abs(d[1:]) ** 2)))


class TestProblemValidation:
    def test_exponent_and_tolerance(self):
        g = TorusGrid(8)
        with pytest.raises(ValueError, match="p must be >= 2"):
            BurgersProblem(g, 0.1, 1e-3, zero_field(g), p=1.0)
        with pytest.raises(ValueError, match="picard_tol"):
            BurgersProblem(g, 0.1, 1e-3, zero_field(g), picard_tol=0.0)

    @pytest.mark.parametrize("window", [0.0, -0.05, float("nan"), float("inf")])
    def test_window_must_be_positive(self, window):
        g = TorusGrid(8)
        with pytest.raises(ValueError, match="window must be positive"):
            BurgersProblem(g, 0.1, 1e-3, zero_field(g), window=window)

    @pytest.mark.parametrize("window", [1e-4, 5e-4, 5.1e-4, 1.5e-3, 2.5e-3])
    def test_window_of_zero_steps_is_rejected(self, window):
        # a window must be a whole number of steps, by the rule of T / dt:
        # 1e-4 and 5e-4 used to round to zero steps, 5.1e-4 to one step (twice
        # its length), and 1.5e-3 and 2.5e-3 both to two steps, without notice
        g = TorusGrid(8)
        with pytest.raises(
            ValueError, match=f"window = {window} is not a whole multiple of dt = 0.001"
        ):
            BurgersProblem(g, 0.1, 1e-3, zero_field(g), window=window)
        for whole, steps in ((1e-3, 1), (2e-3, 2), (0.05, 50), (0.1 + 1e-13, 100)):
            prob = BurgersProblem(g, 0.1, 1e-3, zero_field(g), window=whole)
            assert prob.steps_per_window == steps

    def test_default_noise_is_mean_free(self):
        g = TorusGrid(8)
        prob = BurgersProblem(g, 0.1, 1e-3, zero_field(g))
        assert prob.q.lam[0] == 0.0
        assert np.all(prob.q.lam[1:] == 1.0)


class TestLinearPart:
    def test_dead_spec_gives_zero(self):
        g = TorusGrid(16)
        prob = BurgersProblem(g, 0.05, 1e-3, zero_field(g), q=dead_noise(g))
        v = solve_split(prob, 1).v_path
        assert np.all(v.states == 0)

    def test_starts_at_zero(self):
        g = TorusGrid(16)
        prob = BurgersProblem(g, 0.05, 1e-3, zero_field(g))
        v = solve_split(prob, 2).v_path
        assert np.all(v.states[0] == 0)

    def test_single_mode_variance_against_closed_form(self):
        # Var v_k(t) = (1 - e^{-2 mu t}) / (2 mu), MC over paths
        g = TorusGrid(2)
        lam = np.zeros(3)
        lam[1] = 1.0
        q = CovarianceSpec.from_eigenvalues(g, lam)
        prob = BurgersProblem(g, 0.02, 1e-3, zero_field(g), q=q)
        n = 800
        t_idx = 10
        t = t_idx * prob.dt
        mu = g.laplacian_eigs[1]
        samples = np.empty(n)
        for i in range(n):
            v = solve_split(prob, 50, i).v_path
            samples[i] = abs(v.states[t_idx, 1]) ** 2
        target = (1 - np.exp(-2 * mu * t)) / (2 * mu)
        se = np.std(samples, ddof=1) / np.sqrt(n)
        assert abs(np.mean(samples) - target) < 3 * se

    def test_stationarity_onset_closed_form(self):
        # once mu t > 3 the variance sits within 1% of lambda/(2 mu)
        mu = (2 * np.pi * 3) ** 2
        t = 3.0 / mu * 1.2
        var = (1 - np.exp(-2 * mu * t)) / (2 * mu)
        assert abs(var - 1 / (2 * mu)) / (1 / (2 * mu)) < 0.01


def row_recurrence(x, decay):
    """out[0] = x[0], out[j] = decay * out[j - 1] + x[j], one row at a time."""
    out = np.empty_like(x)
    out[0] = x[0]
    for j in range(1, len(x)):
        out[j] = decay * out[j - 1] + x[j]
    return out


def reference_solve_remainder(problem, v_path):
    """The per-row, four-transform Picard loop that ``split_windows`` replaced."""
    grid = problem.grid
    n_steps = problem.n_steps
    dt = problem.dt
    decay = np.exp(-grid.laplacian_eigs * dt)
    n_pts = problem.quad_points
    v = v_path.states

    def lp_rows(coef):
        samples = _coef_to_samples(coef, n_pts)
        return np.mean(np.abs(samples) ** problem.p, axis=-1) ** (1.0 / problem.p)

    def sup_lp(coef):
        return float(np.max(lp_rows(coef)))

    w = np.empty((n_steps + 1, grid.n_modes + 1), dtype=np.complex128)
    w[0] = problem.w0.coef
    steps_per_window = max(1, int(round(problem.window / dt)))
    iters, residuals, distance_log = [], [], []

    def sweep(n0, n1, source):
        total = _coef_to_samples(source[: n1 - n0] + v[n0:n1], n_pts)
        forcing = _samples_to_coef(total * total, grid.n_modes) * (1j * grid.angular)
        out = np.empty((n1 - n0 + 1, grid.n_modes + 1), dtype=np.complex128)
        out[0] = w[n0]
        for j in range(n1 - n0):
            out[j + 1] = decay * (out[j] + dt * forcing[j])
        return out

    n0 = 0
    while n0 < n_steps:
        n1 = min(n0 + steps_per_window, n_steps)
        old = np.empty((n1 - n0 + 1, grid.n_modes + 1), dtype=np.complex128)
        old[0] = w[n0]
        for j in range(n1 - n0):
            old[j + 1] = decay * old[j]
        dists = []
        for _ in range(problem.picard_maxit):
            new = sweep(n0, n1, old)
            scale = max(1.0, sup_lp(new))
            dists.append(sup_lp(new - old) / scale)
            old = new
            if dists[-1] <= problem.picard_tol:
                break
        else:
            raise AssertionError("reference loop did not converge")
        iters.append(len(dists))
        distance_log.append(dists)
        residuals.append(sup_lp(sweep(n0, n1, old) - old))
        w[n0 : n1 + 1] = old
        n0 = n1
    return w, iters, residuals, distance_log


class TestSemigroupScan:
    @pytest.mark.parametrize("n_rows", [1, 2, 3, 200, 201])
    @pytest.mark.parametrize("n_modes, dt", [(16, 1e-3), (64, 2.5e-4)])
    def test_matches_row_recurrence(self, n_rows, n_modes, dt):
        # at K = 64, dt = 2.5e-4 the top modes' decay**j underflows within the window
        g = TorusGrid(n_modes)
        decay = np.exp(-g.laplacian_eigs * dt)
        rng = np.random.default_rng(n_rows + n_modes)
        x = rng.normal(size=(n_rows, n_modes + 1)) + 1j * rng.normal(size=(n_rows, n_modes + 1))
        expected = row_recurrence(x, decay)
        got = _semigroup_scan(x.copy(), _decay_powers(decay, n_rows))
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_free_evolution_of_stiff_modes_stays_finite(self):
        g = TorusGrid(64)
        decay = np.exp(-g.laplacian_eigs * 2.5e-4)
        assert decay[-1] ** 200 == 0.0
        x = np.zeros((201, 65), dtype=np.complex128)
        x[0] = 1.0
        got = _semigroup_scan(x, _decay_powers(decay, 201))
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got[:, :8], decay[:8] ** np.arange(201)[:, None], rtol=1e-12)
        assert np.all(got[-1, -8:] == 0.0)


class TestRemainder:
    def test_zero_data_zero_noise_one_iteration(self):
        g = TorusGrid(16)
        prob = BurgersProblem(g, 0.05, 1e-3, zero_field(g), q=dead_noise(g))
        split = solve_split(prob, 1)
        assert np.all(split.w_path.states == 0)
        assert all(i == 1 for i in split.picard_iters)

    def test_deterministic_self_convergence(self):
        # v = 0, w0 = 0.1 sin: converged w matches a fine-dt reference
        g = TorusGrid(32)
        w0 = sin_field(g, amplitude=0.1)
        stats = {}
        for dt in (1e-3, 1e-3 / 16):
            prob = BurgersProblem(g, 0.2, dt, w0, q=dead_noise(g), picard_tol=1e-12)
            stats[dt] = solve_split(prob, 1).w_path.states[-1]
        err = l2_dist(stats[1e-3], stats[1e-3 / 16])
        ref_norm = np.sqrt(
            stats[1e-3 / 16][0].real ** 2 + 2 * np.sum(np.abs(stats[1e-3 / 16][1:]) ** 2)
        )
        assert err / ref_norm < 1e-3

    def test_contraction_ratios_below_one(self):
        g = TorusGrid(64)
        prob = BurgersProblem(g, 0.05, 2.5e-4, sin_field(g), picard_tol=1e-11)
        split = solve_split(prob, seed=5)
        dists = split.iterate_distances[0]
        ratios = [dists[i + 1] / dists[i] for i in range(len(dists) - 1) if dists[i] > 0]
        assert all(r < 1.0 for r in ratios[1:])

    def test_large_p_distances_do_not_underflow(self):
        # at p = 64 the p-th powers of the late Picard distances are below the
        # smallest double: the distances must not vanish before convergence
        g = TorusGrid(64)
        split = {p: solve_split(BurgersProblem(g, 0.05, 2.5e-4, sin_field(g), p=p), 3)
                 for p in (4.0, 64.0)}
        assert split[64.0].picard_iters == split[4.0].picard_iters
        assert min(split[64.0].iterate_distances[0]) > 0.0
        assert split[64.0].residuals[0] > 0.0
        assert np.array_equal(split[64.0].w_path.states, split[4.0].w_path.states)

    def test_maxit_exceeded_names_window(self):
        g = TorusGrid(32)
        prob = BurgersProblem(
            g, 0.05, 1e-3, sin_field(g, amplitude=8.0), picard_maxit=1, picard_tol=1e-14
        )
        with pytest.raises(PicardError, match="window 0"):
            solve_split(prob, 3)

    def test_mean_conservation(self):
        g = TorusGrid(32)
        prob = BurgersProblem(g, 0.1, 5e-4, sin_field(g))
        split = solve_split(prob, seed=11)
        assert np.max(np.abs(split.w_path.states[:, 0].real)) < 1e-10
        assert np.max(np.abs(split.v_path.states[:, 0].real)) == 0.0  # mean-free noise


class TestAgainstReferenceLoop:
    @pytest.mark.parametrize("window", [0.05, 0.03])  # 0.03 leaves a short last window
    @pytest.mark.parametrize("seed", [3, 17, 101])
    def test_same_iterates_and_diagnostics(self, seed, window):
        g = TorusGrid(32)
        # amplitude 2 puts sup |w|_{L^4} above 1, so the distance scale is exercised
        prob = BurgersProblem(g, 0.1, 5e-4, sin_field(g, amplitude=2.0), window=window)
        split = solve_split(prob, seed)
        w, iters, residuals, dists = (
            split.w_path, split.picard_iters, split.residuals, split.iterate_distances
        )
        ref_w, ref_iters, ref_residuals, ref_dists = reference_solve_remainder(prob, split.v_path)
        assert iters == ref_iters
        # entries far below the field's scale (top modes early in a window) are
        # sums of cancelling terms: one rounding unit of max |w| is their floor
        np.testing.assert_allclose(w.states, ref_w, rtol=1e-12, atol=1e-16 * np.max(np.abs(ref_w)))
        # differences of O(1) quantities: compared absolutely
        np.testing.assert_allclose(residuals, ref_residuals, rtol=0, atol=1e-14)
        assert [len(d) for d in dists] == [len(d) for d in ref_dists]
        for got, ref in zip(dists, ref_dists):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)


class TestCompose:
    def test_zero_remainder(self):
        g = TorusGrid(16)
        prob = BurgersProblem(g, 0.02, 1e-3, zero_field(g))
        split = solve_split(prob, 7)
        # with zero initial remainder w is driven only by v; composing adds them
        assert np.array_equal(split.u_path.states, split.v_path.states + split.w_path.states)

    def test_zero_linear_part(self):
        g = TorusGrid(16)
        prob = BurgersProblem(g, 0.02, 1e-3, sin_field(g), q=dead_noise(g))
        split = solve_split(prob, 7)
        assert np.array_equal(split.u_path.states, split.w_path.states)

    def test_subtracting_recovers(self):
        g = TorusGrid(16)
        prob = BurgersProblem(g, 0.02, 1e-3, sin_field(g))
        split = solve_split(prob, seed=13)
        back = split.u_path.states - split.v_path.states
        assert np.max(np.abs(back - split.w_path.states)) < 1e-14


class TestWindowRows:
    @pytest.mark.parametrize(
        "T, window",
        [
            (0.0, 0.05),  # no step: one window of the initial row
            (0.001, 0.05),  # one step, one short window
            (0.05, 0.05),  # one whole window
            (0.05, 0.03),  # a short last window
            (0.037, 0.001),  # one step per window
            (0.1, 0.025),  # whole windows only
        ],
    )
    def test_windows_tile_the_rows_once(self, T, window):
        # window 0 starts at (0, w0) with v = 0; each later window holds only
        # the rows of its own steps, so the rows 0 .. n_steps come once each
        g = TorusGrid(16)
        w0 = sin_field(g, amplitude=0.5)
        prob = BurgersProblem(g, T, 1e-3, w0, window=window)
        tiles = []
        for win in split_windows(prob, NoiseSampler(prob.q, 4)):
            assert len(win.v) == len(win.w) == len(win.w_lp) > 0
            if win.index == 0:
                assert np.all(win.v[0] == 0) and np.array_equal(win.w[0], w0.coef)
            tiles.append((win.step0, len(win.v)))
        assert tiles[0][0] == 0
        assert [s0 + n for s0, n in tiles[:-1]] == [s0 for s0, _ in tiles[1:]]
        assert sum(n for _, n in tiles) == prob.n_steps + 1

    def test_zero_horizon_window_is_the_initial_state(self):
        g = TorusGrid(16)
        w0 = sin_field(g, amplitude=0.5)
        prob = BurgersProblem(g, 0.0, 1e-3, w0)
        (win,) = split_windows(prob, NoiseSampler(prob.q, 4))
        assert (win.index, win.step0, win.iters, win.residual, win.distances) == (0, 0, 0, 0.0, [])
        assert win.w_lp.tobytes() == lp_rows(w0.coef[None], prob.p, prob.quad_points).tobytes()
        split = solve_split(prob, 4)
        assert split.picard_iters == [0] and split.residual == 0.0
        assert np.all(split.v_path.states == 0)
        assert np.array_equal(split.w_path.states, w0.coef[None])


class TestAprioriRatio:
    def test_zero_remainder_ratio(self, tmp_path):
        # w = v = 0: the command writes a ratio of 0, not 0 / 0
        cfg = tmp_path / "zero.ini"
        cfg.write_text(
            "[model]\nkind = burgers\n[grid]\nmodes = 16\n"
            "[scheme]\nkind = exponential_euler\ndt = 1e-3\n"
            "[noise]\nkind = list\nvalues = 0.0\n"
            "[experiment]\nt = 0.02\nw0 = zero\nn_paths = 1\nbase_seed = 1\n"
            f"[output]\ndirectory = {tmp_path / 'o'}\nprefix = b\n"
        )
        assert cli.main(["burgers", "--config", str(cfg)]) == 0
        rows = (tmp_path / "o" / "b_summary.csv").read_text().splitlines()
        assert rows[0].split(",")[1:5] == ["sup_w_lp", "w0_lp", "sup_v_halpha", "apriori_ratio"]
        assert [float(x) for x in rows[1].split(",")[1:5]] == [0.0] * 4

    def test_deterministic_decay_ratio_below_one(self):
        # zero noise, p = 2: dissipativity gives sup_t |w| <= |w_0|
        g = TorusGrid(32)
        prob = BurgersProblem(g, 0.1, 5e-4, sin_field(g), p=2.0, q=dead_noise(g))
        split = solve_split(prob, 1)
        sup_w, w0, _, ratio = apriori(*row_norms(prob, split.w_path, split.v_path))
        assert sup_w <= w0 * (1 + 1e-12)
        assert ratio <= 1.0

    @pytest.mark.parametrize("window", [0.05, 0.03])  # 0.03 leaves a short last window
    @pytest.mark.parametrize("seed", [2, 9])
    def test_window_norms_are_the_row_norms_of_the_paths(self, seed, window):
        # the L^p norms the last Picard sweep makes are those of w's rows, so
        # a ratio from the windows equals one from the held paths
        g = TorusGrid(32)
        prob = BurgersProblem(g, 0.05, 5e-4, sin_field(g, amplitude=0.5), window=window)
        split = solve_split(prob, seed=seed)
        w_lp, v_halpha = row_norms(prob, split.w_path, split.v_path)
        assert w_lp.shape == v_halpha.shape == (101,)
        n_windows = 0
        win_lp = np.empty(101)
        for win in split_windows(prob, NoiseSampler(prob.q, seed)):
            rows = slice(win.step0, win.step0 + win.v.shape[0])
            assert win.index == n_windows and win.iters == split.picard_iters[win.index]
            assert win.residual == split.residuals[win.index]
            assert win.distances == split.iterate_distances[win.index]
            assert np.array_equal(win.v, split.v_path.states[rows])
            assert np.array_equal(win.w, split.w_path.states[rows])
            assert win.w_lp.tobytes() == w_lp[rows].tobytes()
            win_lp[rows] = win.w_lp
            n_windows += 1
        assert n_windows == len(split.picard_iters)
        assert apriori(win_lp, v_halpha) == apriori(w_lp, v_halpha)

    def test_doubling_w0_monotone_trend(self):
        g = TorusGrid(32)
        sups = []
        for amp in (0.25, 0.5, 1.0):
            prob = BurgersProblem(g, 0.05, 5e-4, sin_field(g, amplitude=amp))
            sup_w = 0.0
            for seed in range(5):
                split = solve_split(prob, seed=seed)
                sup_w += apriori(*row_norms(prob, split.w_path, split.v_path))[0]
            sups.append(sup_w / 5)
        assert sups[0] < sups[1] < sups[2]
        # doubling w0 at fixed noise does not more than double sup|w| plus offset
        assert sups[2] < 2 * sups[1] + 0.5


class TestMemory:
    def test_chunked_lp_rows_equal_one_transform(self):
        g = TorusGrid(64)
        prob = BurgersProblem(g, 0.5, 2.5e-4, sin_field(g))
        split = solve_split(prob, seed=3)
        coef = split.w_path.states
        assert coef.shape[0] == 2001
        samples = _coef_to_samples(coef, prob.quad_points)
        samples *= samples
        assert np.array_equal(lp_rows(coef, prob.p, prob.quad_points),
                              _lp_of_squares(samples, prob.p))

    def test_split_windows_holds_no_window_sized_temporary(self):
        # K = 64 and 200-step windows: a window holds v's samples and the two
        # iterates (3 x 201 x 256 doubles, 1.2 MB) and two coefficient buffers
        # (0.4 MB); a step_blocks block holds its rows and draws.  The traced
        # peak of a two-window run was 4114.5 kB with a window-sized sample
        # scratch and forcing spectrum, a block-sized copy of the draws and
        # three complex packing temporaries; 3338.0 kB with the forcing rfft
        # in 64-row chunks, the norms formed in spent iterates and the lane's
        # own packing buffers; 2823.5 kB with the noise packed into the block's
        # rows and pack_draws' ufunc buffers at 1024 elements; it is 2564.7 kB
        # with the exact-OU rescale applied as the draws are packed, not to a copy.
        import tracemalloc

        g = TorusGrid(64)
        prob = BurgersProblem(g, 0.1, 2.5e-4, sin_field(g), window=0.05)
        assert prob.steps_per_window == 200

        def run():
            return [win.residual for win in split_windows(prob, NoiseSampler(prob.q, 3))]

        first = run()  # first-call allocations
        tracemalloc.start()
        try:
            assert run() == first
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3700 * 2**10, peak

    def test_burgers_command_holds_one_seed_at_a_time(self, tmp_path):
        # one seed's solution (v, w and u states, K = 32, 2000 steps) is
        # about 3 MB; the peak must not grow with the number of seeds
        import tracemalloc

        def peak(n_seeds):
            cfg = tmp_path / f"b{n_seeds}.ini"
            cfg.write_text(
                "[model]\nkind = burgers\n[grid]\nmodes = 32\n"
                "[scheme]\nkind = exponential_euler\ndt = 2.5e-4\n"
                "[noise]\nkind = mean_free_white\n"
                f"[experiment]\nt = 0.5\nw0 = sin\nn_paths = {n_seeds}\nbase_seed = 3\n"
                f"[output]\ndirectory = {tmp_path / str(n_seeds)}\nprefix = b\n"
            )
            tracemalloc.start()
            try:
                assert cli.main(["burgers", "--config", str(cfg)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call allocations
        one, two, twelve = peak(1), peak(2), peak(12)
        assert abs(twelve - two) < 2**20
        assert two - one < 2**20
