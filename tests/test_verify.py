"""Statistical verifiers: report plumbing and the identity checks."""

import dataclasses

import numpy as np
import pytest

from conftest import cos_field, make_random_field, sin_field, stepped_balance
from reference import MatrixNoise, energy_table, gronwall_table, mass_table
from spdekit import noise
from spdekit.integrators import SchemeSpec, block_norms, simulate
from spdekit.models import AdditiveHeat, Burgers, TransportHeat
from spdekit import verify
from spdekit.cli import report_row
from spdekit.noise import (
    BLOCK_STEPS,
    CovarianceSpec,
    NoiseSampler,
    channel_weights,
    coarsen_increments,
    pack_draws,
    stream_normals,
)
from spdekit.spectral import SpectralField, TorusGrid, field_from_modes, l2_sq_rows, zero_field
from spdekit.verify import (
    McConfig,
    StatReport,
    brownian_scalar_path,
    energy_identity_refinement,
    evaluate_pass,
    gaussian_moment_stat,
    holder_exponent_fit,
    ito_isometry_stat,
    ito_strat_compare,
    ladder_blocks,
    mc_normals,
    mc_pass,
    mc_reports,
    ou_variance_stats,
    quadratic_variation_partition,
    she_increment_structure,
    smooth_quadratic_variation,
    trace_identity_stat,
    wiener_covariance_stat,
)

TWO_PI = 2.0 * np.pi


class TestStatReport:
    def test_pass_is_pure_function_of_fields(self):
        reports = [
            StatReport("a", 1.0, 1.05, 0.02, 100, "se", 3.0),
            StatReport("b", 1.0, 1.0, 0.0, 1, "abs", 1e-10),
            StatReport("c", 0.97, 1.0, 0.0, 1, "rel", 0.05),
            StatReport("d", 0.99, 1.0, 0.0, 1, "upper", 0.0),
            StatReport("e", 0.95, 0.9, 0.0, 1, "lower", 0.0),
            StatReport("f", 0.72, 0.75, 0.0, 1, "band", (0.9, 1.0)),
        ]
        for rep in reports:
            assert rep.passed == evaluate_pass(
                rep.estimate, rep.target, rep.se, rep.tol_kind, rep.tolerance
            )
        assert all(r.passed for r in reports)
        assert not StatReport("g", 1.2, 1.0, 0.01, 100, "se", 3.0).passed

    def test_skipped_status(self):
        rep = StatReport("s", float("nan"), 0.0, 0.0, 0, "abs", 0.0, skipped=True, note="n/a")
        assert report_row(rep, 0)[5] == "skipped"
        assert rep.passed

    def test_mc_config_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            McConfig(n_paths=1)
        for seed in (-3, 2**64):
            with pytest.raises(ValueError, match="base_seed"):
                McConfig(base_seed=seed)


MC_CHECKS_CONFIG = """
[model]
kind = additive_heat

[grid]
modes = 8

[scheme]
kind = exact_ou
dt = 0.01

[noise]
kind = white

[experiment]
t = 0.5
s = 0.2
h = cos
g = cos
ou_modes = 0, 1, 8
n_paths = 400
base_seed = 19
checks = {checks}

[output]
directory = {out}
prefix = mc
"""

MC_CHECKS = ("ito_isometry", "trace_identity", "wiener_covariance", "gaussian_moment", "ou_exactness")


class TestMcNormals:
    # the randomness contract: row i is the start of the Philox stream keyed
    # (seed, i), whatever was requested before

    @staticmethod
    def reference(seed, n, cols):
        return np.array(
            [
                np.random.Generator(
                    np.random.Philox(key=np.array([seed, i], dtype=np.uint64))
                ).standard_normal(cols)
                for i in range(n)
            ]
        )

    @pytest.mark.parametrize("seed", [0, 5, 2**63 + 11])
    @pytest.mark.parametrize("cols", [1, 257, 514])
    def test_rows_are_keyed_streams(self, seed, cols):
        z = mc_normals(seed, 6, cols)
        assert z.shape == (6, cols)
        assert np.array_equal(z, self.reference(seed, 6, cols))

    def test_request_order_does_not_matter(self):
        # row ranges drawn in any order, grouping and width are rows of one block
        wide = self.reference(23, 50, 514)
        for cols, bounds in ((257, (50, 37, 13, 0)), (514, (50, 49, 1, 0)), (3, (50, 0))):
            parts = [
                (lo, mc_normals(23, range(lo, hi), cols))
                for hi, lo in zip(bounds, bounds[1:])
            ]
            got = np.concatenate([z for _, z in sorted(parts, key=lambda p: p[0])])
            assert np.array_equal(got, wide[:, :cols])

    def test_draws_are_fresh_arrays(self):
        # no memo: each draw is a new writable array, and writing to it
        # changes no later draw
        first = mc_normals(29, range(3, 10), 8)
        assert first.flags.writeable
        expected = first.copy()
        first[:] = 0.0
        assert np.array_equal(mc_normals(29, range(3, 10), 8), expected)
        assert np.array_equal(mc_normals(29, range(3, 10), 4), expected[:, :4])

    def test_one_command_equals_one_command_per_check(self, tmp_path):
        from spdekit import cli

        def rows(checks, out):
            cfg = tmp_path / f"{out}.ini"
            cfg.write_text(MC_CHECKS_CONFIG.format(checks=checks, out=tmp_path / out))
            # 0 or 1: the rows are compared, not their statistical verdicts
            assert cli.main(["verify", "--config", str(cfg)]) in (0, 1)
            return (tmp_path / out / "mc_reports.csv").read_text().splitlines()

        together = rows(", ".join(MC_CHECKS), "all")
        one_by_one = [together[0]]
        for name in MC_CHECKS:
            mc_normals(0, 2, 1)  # a different key: the command draws afresh, as a new process would
            lines = rows(name, name)
            assert lines[0] == together[0]
            one_by_one.extend(lines[1:])
        assert len(together) == 1 + 4 + 3
        assert together == one_by_one


class TestStreamedPass:
    # the pass draws chunks of _MC_ROWS rows; every sample of every statistic
    # must equal the statistic evaluated on one block holding all the rows

    @staticmethod
    def statistics(K):
        spec = CovarianceSpec.power(TorusGrid(K), 0.7)
        h = make_random_field(spec.grid, 3)
        g = make_random_field(spec.grid, 5, amplitude=0.5)
        return [
            ito_isometry_stat(1.0 / np.arange(1, 21), np.ones(20), 0.6),
            trace_identity_stat(spec, 0.7),
            wiener_covariance_stat(spec, h, g, 0.8, 0.3),
            gaussian_moment_stat(spec),
            *ou_variance_stats(spec, 0.01, [0, 1, K]),
        ]

    @pytest.mark.parametrize("K", [8, 128])
    def test_samples_equal_the_full_block(self, K):
        n = 2 * verify._MC_ROWS + 37  # the last chunk is partial
        cfg = McConfig(n, 41)
        stats = self.statistics(K)
        width = max(st.cols for st in stats)
        assert width == 2 * (2 * K + 1)
        block = stream_normals(cfg.base_seed, range(n), width)
        together = mc_pass(stats, cfg)
        assert len(together) == len(stats)
        for st, samples in zip(stats, together):
            assert samples.shape == (n,)
            assert np.array_equal(samples, st.per_row(block[:, : st.cols]))  # bitwise
            alone = stream_normals(cfg.base_seed, range(n), st.cols)
            assert np.array_equal(mc_pass([st], cfg)[0], st.per_row(alone))

    def test_shared_pass_equals_each_statistic_alone(self):
        cfg = McConfig(300, 43)
        spec = CovarianceSpec.white(TorusGrid(8))
        h, g = make_random_field(spec.grid, 1), make_random_field(spec.grid, 2)
        stats = [
            ito_isometry_stat([1.0, 0.5], [1.0, 2.0], 0.4),
            trace_identity_stat(spec, 0.4),
            wiener_covariance_stat(spec, h, g, 0.1, 0.4),
            gaussian_moment_stat(spec),
            *ou_variance_stats(spec, 0.02, [0, 3]),
        ]
        expected = [
            mc_reports([ito_isometry_stat([1.0, 0.5], [1.0, 2.0], 0.4)], cfg)[0],
            mc_reports([trace_identity_stat(spec, 0.4)], cfg)[0],
            mc_reports([wiener_covariance_stat(spec, h, g, 0.1, 0.4)], cfg)[0],
            mc_reports([gaussian_moment_stat(spec)], cfg)[0],
            *mc_reports(ou_variance_stats(spec, 0.02, [0, 3]), cfg),
        ]
        assert mc_reports(stats, cfg) == expected

    def test_pass_holds_one_chunk_of_draws(self):
        # a spent chunk goes before the next is drawn: the traced peak is one
        # chunk (1,028 kB at K = 128), the sample vectors and small per-row
        # temporaries (1,207 kB here), where holding the spent chunk while
        # drawing the next read 2,115 kB
        import tracemalloc

        stats = self.statistics(128)
        cfg = McConfig(4 * verify._MC_ROWS, 41)
        first = mc_pass(stats, cfg)  # first-call allocations
        tracemalloc.start()
        try:
            again = mc_pass(stats, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        chunk = verify._MC_ROWS * max(st.cols for st in stats) * 8
        samples = len(stats) * cfg.n_paths * 8
        assert peak < chunk + samples + 2**18, (peak, chunk)

    def test_no_statistic_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(verify, "mc_normals", None)  # a draw would raise
        assert mc_pass([], McConfig(10, 1)) == []
        assert mc_reports([], McConfig(10, 1)) == []


def cli_field(grid, kind, mode):
    """(field, one past its weighted channel) of a command-line field kind at ``mode``."""
    if mode == "K":
        mode = grid.n_modes
    if kind == "zero":
        return zero_field(grid), 0
    if kind == "cos":
        return cos_field(grid, 0.7, mode), 2 * mode
    return sin_field(grid, 0.7, mode), 2 * mode + 1


class TestColumnsRead:
    # a statistic's rows are drawn only up to the last column it reads, and
    # its samples are bitwise those of the full-width block

    N = verify._MC_ROWS + 37
    FIELDS = [("cos", 1), ("cos", "K"), ("sin", 1), ("sin", "K"), ("zero", 1)]

    @staticmethod
    def full_width_wiener(spec, h, g, s, t, z):
        """<W_t, h> <W_s, g> per row, both pairings over all 2(2K+1) columns of ``z``."""
        ch = spec.n_channels
        weights = np.stack([channel_weights(spec, h), channel_weights(spec, g)], axis=1)
        lo, hi = min(s, t), max(s, t)
        at_lo = np.sqrt(lo) * (z[:, :ch] @ weights)
        at_hi = at_lo + np.sqrt(hi - lo) * (z[:, ch:] @ weights)
        at_t, at_s = (at_hi, at_lo) if t >= s else (at_lo, at_hi)
        return at_t[:, 0] * at_s[:, 1]

    @pytest.mark.parametrize("K", [8, 128])
    @pytest.mark.parametrize("h_kind, h_mode", FIELDS)
    @pytest.mark.parametrize("g_kind, g_mode", FIELDS)
    def test_wiener_covariance(self, K, h_kind, h_mode, g_kind, g_mode):
        spec = CovarianceSpec.power(TorusGrid(K), 0.7)
        h, h_read = cli_field(spec.grid, h_kind, h_mode)
        g, g_read = cli_field(spec.grid, g_kind, g_mode)
        st = wiener_covariance_stat(spec, h, g, 0.8, 0.3)
        assert st.cols == spec.n_channels + max(h_read, g_read)
        cfg = McConfig(self.N, 47)
        full = stream_normals(cfg.base_seed, range(self.N), 2 * spec.n_channels)
        expected = self.full_width_wiener(spec, h, g, 0.8, 0.3, full)
        assert np.array_equal(mc_pass([st], cfg)[0], expected)  # bitwise

    @pytest.mark.parametrize("K", [8, 128])
    def test_ou_variance(self, K):
        spec = CovarianceSpec.power(TorusGrid(K), 0.7)
        cfg = McConfig(self.N, 53)
        full = stream_normals(cfg.base_seed, range(self.N), spec.n_channels)
        for k in (0, 1, K):
            (st,) = ou_variance_stats(spec, 0.01, [k])
            assert st.cols == 2 * k + 1
            assert np.array_equal(mc_pass([st], cfg)[0], st.per_row(full))  # bitwise


def packed_report(samples):
    return np.mean(samples), np.std(samples, ddof=1) / np.sqrt(samples.size)


def packed_pairing(coef, h):
    """<W, h> of each row of packed half spectra, the L^2 pairing on the modes."""
    return coef[:, 0].real * h.coef[0].real + 2.0 * np.sum(
        (coef[:, 1:] * np.conj(h.coef[1:])).real, axis=1
    )


class TestChannelSpaceCheckers:
    # each checker against the Hermitian-packed computation on the same block

    CFG = McConfig(500, 17)
    SPECS = {
        "white": CovarianceSpec.white(TorusGrid(8)),
        "power": CovarianceSpec.power(TorusGrid(8), 0.7),
    }

    @staticmethod
    def assert_matches(rep, samples):
        estimate, se = packed_report(samples)
        assert rep.estimate == pytest.approx(estimate, rel=1e-12, abs=0.0)
        assert rep.se == pytest.approx(se, rel=1e-12, abs=0.0)

    def block(self, cols):
        return mc_normals(self.CFG.base_seed, self.CFG.n_paths, cols)

    @pytest.mark.parametrize("kind", ["white", "power"])
    def test_trace_identity(self, kind):
        spec = self.SPECS[kind]
        z = self.block(spec.n_channels)
        rep = mc_reports([trace_identity_stat(spec, 0.7)], self.CFG)[0]
        self.assert_matches(rep, l2_sq_rows(pack_draws(spec, z * np.sqrt(0.7))))

    @pytest.mark.parametrize("kind", ["white", "power"])
    def test_gaussian_moment(self, kind):
        spec = self.SPECS[kind]
        z = self.block(spec.n_channels)
        rep = mc_reports([gaussian_moment_stat(spec)], self.CFG)[0]
        self.assert_matches(rep, l2_sq_rows(pack_draws(spec, z)) ** 2)

    @pytest.mark.parametrize("kind", ["white", "power"])
    @pytest.mark.parametrize("s, t", [(0.3, 0.8), (0.8, 0.3), (0.5, 0.5)])
    def test_wiener_covariance(self, kind, s, t):
        spec = self.SPECS[kind]
        h = make_random_field(spec.grid, 3)
        g = make_random_field(spec.grid, 3, amplitude=0.5)
        ch = spec.n_channels
        z = self.block(2 * ch)
        lo, hi = min(s, t), max(s, t)
        w_lo = pack_draws(spec, z[:, :ch] * np.sqrt(lo))
        w_hi = w_lo + pack_draws(spec, z[:, ch:] * np.sqrt(hi - lo))
        w_t, w_s = (w_hi, w_lo) if t >= s else (w_lo, w_hi)
        rep = mc_reports([wiener_covariance_stat(spec, h, g, s, t)], self.CFG)[0]
        self.assert_matches(rep, packed_pairing(w_t, h) * packed_pairing(w_s, g))

    @pytest.mark.parametrize("kind", ["white", "power"])
    def test_ou_variance(self, kind):
        spec, dt = self.SPECS[kind], 0.01
        K = spec.grid.n_modes
        mu = spec.grid.laplacian_eigs
        tau = np.empty(spec.n_channels)
        tau[0] = dt
        tau[1::2] = tau[2::2] = -np.expm1(-2.0 * mu[1:] * dt) / (2.0 * mu[1:])
        eta = pack_draws(spec, self.block(spec.n_channels) * np.sqrt(tau))
        reps = mc_reports(ou_variance_stats(spec, dt, [0, 1, K]), self.CFG)
        self.assert_matches(reps[0], eta[:, 0].real ** 2)
        self.assert_matches(reps[1], np.abs(eta[:, 1]) ** 2)
        self.assert_matches(reps[2], np.abs(eta[:, K]) ** 2)

    def test_ou_mode_out_of_range(self):
        spec = self.SPECS["white"]
        for k in (-1, spec.grid.n_modes + 1):
            with pytest.raises(ValueError, match="outside 0..8"):
                mc_reports(ou_variance_stats(spec, 0.01, [k]), self.CFG)


class TestEnergyIdentity:
    def test_exact_flow_tiny_residual(self):
        # sigma = 0: exponential Euler is the exact heat flow
        g = TorusGrid(32)
        m = TransportHeat(g, (0.0,))
        balance = stepped_balance(m, SchemeSpec("exponential_euler", 1e-5), cos_field(g), 0.05)
        rep = balance.energy_report()
        assert rep.estimate < 1e-6
        assert rep.passed

    def test_zero_initial_data(self):
        g = TorusGrid(8)
        m = TransportHeat(g, (1.3,))
        s = NoiseSampler(CovarianceSpec.white(g), 3)
        balance = stepped_balance(m, SchemeSpec("euler_maruyama", 1e-4), zero_field(g), 0.01, s)
        assert balance.energy_report().estimate == 0.0

    def test_sign_flip_invariance(self):
        # quadratic functional composed with the odd symmetry of the equation
        g = TorusGrid(16)
        m = TransportHeat(g, (1.0,))
        u0 = cos_field(g)
        for sign in (1.0, -1.0):
            s = NoiseSampler(CovarianceSpec.white(g), 17, 0)
            balance = stepped_balance(m, SchemeSpec("euler_maruyama", 1e-4), sign * u0, 0.02, s)
            rep = balance.energy_report()
            if sign == 1.0:
                base = rep.estimate
            else:
                assert rep.estimate == pytest.approx(base, rel=1e-12)

    def test_refinement_reports_carry_decay(self):
        g = TorusGrid(16)
        m = TransportHeat(g, (1.0,))
        reps = energy_identity_refinement(m, cos_field(g), 0.02, [4e-5, 2e-5, 1e-5], 7)
        assert len(reps) == 3
        assert all("decay_from_previous" in r.metadata for r in reps)
        assert reps[0].metadata["dt"] == pytest.approx(4e-5)

    def test_multichannel_transport_identity(self):
        # several noise channels act through one gradient: the balance uses
        # the summed intensity
        g = TorusGrid(16)
        m = TransportHeat(g, (0.5, 0.3, 0.2))
        s = NoiseSampler(CovarianceSpec.white(g), 19)
        balance = stepped_balance(m, SchemeSpec("euler_maruyama", 2e-6), cos_field(g), 0.01, s)
        rep = balance.energy_report()
        assert rep.metadata["sigma"] == pytest.approx(1.0)
        assert rep.metadata["relative_residual"] < 0.02


class TestGronwall:
    def test_deterministic_flow_saturates_at_t0(self):
        g = TorusGrid(16)
        m = TransportHeat(g, (0.0,))
        balance = stepped_balance(m, SchemeSpec("exponential_euler", 1e-4), cos_field(g), 0.05)
        rep = balance.gronwall_report()
        assert rep.passed
        assert rep.estimate == pytest.approx(1.0, abs=1e-3)  # equality at t = 0

    def test_sigma_at_threshold_rejected(self):
        g = TorusGrid(8)
        m = TransportHeat(g, (2.0,))
        balance = stepped_balance(m, SchemeSpec("exponential_euler", 1e-3), cos_field(g), 0.01)
        with pytest.raises(ValueError, match="sigma"):
            balance.gronwall_report()


class TestMassConservation:
    def test_transport_exact(self):
        g = TorusGrid(8)
        m = TransportHeat(g, (1.0,))
        s = NoiseSampler(CovarianceSpec.white(g), 5)
        u0 = field_from_modes(g, [(0, 0.7), (1, 0.25)])
        rep = stepped_balance(m, SchemeSpec("euler_maruyama", 1e-4), u0, 0.02, s).mass_report()
        assert rep.estimate == 0.0
        assert rep.passed

    def test_burgers_below_tolerance(self):
        g = TorusGrid(32)
        m = Burgers(CovarianceSpec.mean_free_white(g))
        s = NoiseSampler(m.q, 7)
        u0 = field_from_modes(g, [(1, 0.5 / 1j)])
        balance = stepped_balance(m, SchemeSpec("exponential_euler", 1e-4), u0, 0.02, s)
        assert balance.mass_report().estimate < 1e-10


class TestPathBalance:
    # the balance of a path, fed its blocks as step_blocks yields them or in
    # any cut of its held states, gives the whole-table reports bit for bit

    @staticmethod
    def reports(balance):
        return [balance.energy_report(), balance.gronwall_report(), balance.mass_report()]

    @staticmethod
    def cut(model, dt, states, size):
        """The balance of the held states, fed ``size`` steps a block."""
        balance = verify.PathBalance(model, dt, SpectralField(model.grid, states[0]))
        for lo in range(0, len(states) - 1, size):
            rows = states[lo : lo + size + 1]
            balance.add(lo, rows, l2_sq_rows(rows[1:]))
        return balance

    @pytest.mark.parametrize("n_steps", [0, 1, 255, 256, 257, 600])
    @pytest.mark.parametrize("kind", ["euler_maruyama", "heun_stratonovich", "exponential_euler"])
    def test_stepped_and_cut_paths_give_the_whole_table_reports(self, kind, n_steps):
        g = TorusGrid(8)
        model = TransportHeat(g, (0.6, 0.4))
        u0 = field_from_modes(g, [(0, 0.3), (1, 0.4 - 0.1j), (3, 0.05j)])
        dt = 1e-5
        run = (model, SchemeSpec(kind, dt), u0, n_steps * dt)
        sampler = NoiseSampler(CovarianceSpec.white(g), 21, 3)
        path = simulate(*run, sampler=sampler)
        norms = block_norms(path.times, path.states, g)
        ref = [energy_table(norms, model.sigma_seq), gronwall_table(norms, model.sigma_seq),
               mass_table(norms)]
        if n_steps == 0:  # a one-row table has no step to read dt from
            ref[0] = dataclasses.replace(ref[0], metadata={**ref[0].metadata, "dt": dt})
        assert self.reports(stepped_balance(*run, sampler)) == ref
        for size in (7, n_steps):  # 7 folds several times; n_steps is one block
            assert self.reports(self.cut(model, dt, path.states, max(size, 1))) == ref

    @pytest.mark.parametrize("n_rows", [2, 3, 17, 200])
    def test_any_cut_of_a_path_gives_its_reports(self, n_rows):
        # random states move every column, the mean mode too
        g = TorusGrid(8)
        model = TransportHeat(g, (0.7, 0.5))
        rng = np.random.default_rng(n_rows)
        states = rng.normal(size=(n_rows, 9)) + 1j * rng.normal(size=(n_rows, 9))
        norms = block_norms(np.arange(n_rows) * 1e-3, states, g)
        ref = [energy_table(norms, model.sigma_seq), gronwall_table(norms, model.sigma_seq),
               mass_table(norms)]
        for size in (1, 2, 5, n_rows):
            assert self.reports(self.cut(model, 1e-3, states, size)) == ref

    def test_sigma_is_the_summed_transport_intensity(self):
        g = TorusGrid(8)
        transport = verify.PathBalance(TransportHeat(g, (0.6, 0.4)), 1e-4, cos_field(g))
        additive = verify.PathBalance(AdditiveHeat(CovarianceSpec.white(g)), 1e-4, cos_field(g))
        assert transport.energy_report().metadata["sigma"] == 1.0
        assert additive.energy_report().metadata["sigma"] == 0.0

    def test_gronwall_needs_sigma_below_two(self):
        g = TorusGrid(8)
        balance = verify.PathBalance(TransportHeat(g, (2.5,)), 1e-4, cos_field(g))
        assert balance.energy_report().estimate == 0.0
        with pytest.raises(ValueError, match="sigma = 2.5"):
            balance.gronwall_report()


class TestItoIsometry:
    def test_single_mode_brownian_variance(self):
        rep = mc_reports([ito_isometry_stat([1.0], [1.0], 0.7)], McConfig(2000, 3))[0]
        assert rep.target == pytest.approx(0.7)
        assert rep.passed

    def test_zero_horizon(self):
        rep = mc_reports([ito_isometry_stat([1.0, 2.0], [1.0, 1.0], 0.0)], McConfig(100, 3))[0]
        assert rep.estimate == 0.0 and rep.target == 0.0
        assert rep.passed

    def test_inverse_k_weights_partial_sum_oracle(self):
        k = np.arange(1, 17)
        rep = mc_reports([ito_isometry_stat(1.0 / k, np.ones(16), 0.5)], McConfig(4000, 5))[0]
        assert rep.target == pytest.approx(0.5 * np.sum(1.0 / k**2))
        assert rep.passed

    def test_se_scaling(self):
        # quadrupling the path count halves the standard error (within 20%),
        # across the Monte Carlo checkers
        small = mc_reports([ito_isometry_stat([1.0], [1.0], 1.0)], McConfig(2000, 11))[0]
        big = mc_reports([ito_isometry_stat([1.0], [1.0], 1.0)], McConfig(8000, 11))[0]
        assert big.se == pytest.approx(small.se / 2, rel=0.2)
        g = TorusGrid(8)
        spec = CovarianceSpec.power(g, 1.0)
        small = mc_reports([trace_identity_stat(spec, 0.5)], McConfig(2000, 11))[0]
        big = mc_reports([trace_identity_stat(spec, 0.5)], McConfig(8000, 11))[0]
        assert big.se == pytest.approx(small.se / 2, rel=0.2)
        small = mc_reports([gaussian_moment_stat(spec)], McConfig(2000, 11))[0]
        big = mc_reports([gaussian_moment_stat(spec)], McConfig(8000, 11))[0]
        assert big.se == pytest.approx(small.se / 2, rel=0.2)


class TestWienerCovariance:
    def test_zero_time_target(self):
        g = TorusGrid(4)
        spec = CovarianceSpec.white(g)
        h = cos_field(g)
        rep = mc_reports([wiener_covariance_stat(spec, h, h, 0.0, 0.5)], McConfig(500, 3))[0]
        assert rep.target == 0.0
        assert rep.passed

    def test_single_mode_self_pairing(self):
        g = TorusGrid(4)
        lam = np.zeros(5)
        lam[1] = 1.0
        spec = CovarianceSpec.from_eigenvalues(g, lam)
        h = cos_field(g)
        rep = mc_reports([wiener_covariance_stat(spec, h, h, 0.4, 0.4)], McConfig(4000, 7))[0]
        assert rep.target == pytest.approx(0.4 * 0.5)
        assert rep.passed

    def test_cross_times(self):
        g = TorusGrid(8)
        spec = CovarianceSpec.white(g)
        h = cos_field(g)
        rep = mc_reports([wiener_covariance_stat(spec, h, h, 0.3, 0.7)], McConfig(10_000, 9))[0]
        assert rep.target == pytest.approx(0.15)
        assert rep.passed


class TestQuadraticVariation:
    def test_brownian_partition(self):
        values = brownian_scalar_path(3, 2**14, 1.0)
        rep = quadratic_variation_partition(values, [2**10, 2**12, 2**14], 1.0)
        assert rep.passed
        assert set(rep.metadata["partition_sums"]) == {2**10, 2**12, 2**14}

    def test_smooth_path_vanishes(self):
        t = np.arange(2**21 + 1) / 2**21
        rep = quadratic_variation_partition(t + 0.1 * np.sin(TWO_PI * t), [2**21], 0.0, 1e-6)
        assert rep.estimate < 1e-6
        assert rep.passed

    def test_scaled_integrand(self):
        # QV of (2 dB) at time t is 4t
        inc = np.diff(brownian_scalar_path(9, 2**14, 1.0))
        values = np.concatenate([[0.0], np.cumsum(2.0 * inc)])
        rep = quadratic_variation_partition(values, [2**14], 4.0)
        assert rep.passed

    def test_misaligned_partition(self):
        values = brownian_scalar_path(1, 100, 1.0)
        with pytest.raises(ValueError, match="align"):
            quadratic_variation_partition(values, [7], 1.0)


class TestSheStructure:
    def test_coincident_times(self):
        assert she_increment_structure(-0.25, 64, 0.5, 0.5) == 0.0

    def test_backwards_interval_rejected(self):
        with pytest.raises(ValueError, match="0 <= s <= t"):
            she_increment_structure(-0.25, 64, 0.5, 0.4)

    def test_start_from_zero_reduction(self):
        # s = 0: the first term vanishes, leaving sum w^alpha (1-e^{-2 mu t})/(2 mu)
        alpha, K, t = -0.5, 32, 0.01
        grid = TorusGrid(K, 2 * K + 1)
        mu = grid.laplacian_eigs[1:]
        w = grid.sobolev_weights
        expected = w[0] ** alpha * t + 2 * np.sum(
            w[1:] ** alpha * (1 - np.exp(-2 * mu * t)) / (2 * mu)
        )
        assert she_increment_structure(alpha, K, 0.0, t) == pytest.approx(expected, rel=1e-12)

    def test_mc_cross_check(self):
        # exact-OU ensemble vs the closed form at a dyadic lag
        alpha, K, s, gap = -0.25, 64, 0.5, 2.0**-10
        grid = TorusGrid(K, 2 * K + 1)
        target = she_increment_structure(alpha, K, s, s + gap)
        q = CovarianceSpec.white(grid)
        n = 10_000
        from spdekit.noise import pack_draws

        mu = grid.laplacian_eigs
        w = grid.sobolev_weights
        # two-step exact transition: to time s, then to time s + gap
        z = mc_normals(777, n, 2 * q.n_channels).reshape(n, 2, q.n_channels)

        def ou_std(tt):
            tau = np.empty_like(mu)
            tau[0] = tt
            tau[1:] = (1 - np.exp(-2 * mu[1:] * tt)) / (2 * mu[1:])
            ch = np.empty(q.n_channels)
            ch[0] = tau[0]
            ch[1::2] = tau[1:]
            ch[2::2] = tau[1:]
            return np.sqrt(ch)

        v_s = pack_draws(q, z[:, 0, :] * ou_std(s))
        decay = np.exp(-mu * gap)
        v_t = decay * v_s + pack_draws(q, z[:, 1, :] * ou_std(gap))
        diff = v_t - v_s
        norms = w[0] ** alpha * diff[:, 0].real ** 2 + 2 * np.sum(
            w[1:] ** alpha * np.abs(diff[:, 1:]) ** 2, axis=1
        )
        se = np.std(norms, ddof=1) / np.sqrt(n)
        assert abs(np.mean(norms) - target) < 3 * se


class TestHolderFit:
    def test_alpha_band(self):
        rep = holder_exponent_fit(-0.25, 256, [2.0**-e for e in range(8, 15)])
        assert rep.target == pytest.approx(0.75)
        assert rep.passed

    def test_cap_regime(self):
        rep = holder_exponent_fit(-2.0, 256, [2.0**-e for e in range(8, 15)])
        assert rep.target == 1.0
        assert rep.passed

    def test_divergent_alpha_rejected(self):
        with pytest.raises(ValueError, match="diverges"):
            holder_exponent_fit(0.5, 64, [1e-3])


class TestItoStratCompare:
    def test_sigma_zero_all_pass(self):
        g = TorusGrid(8)
        model = TransportHeat(g, (0.0,))
        rep = ito_strat_compare(model, cos_field(g), [1e-3, 5e-4], 0.01, McConfig(5, 3))
        assert rep.estimate == 1.0

    def test_zero_initial_data(self):
        g = TorusGrid(8)
        model = TransportHeat(g, (1.0,))
        rep = ito_strat_compare(model, zero_field(g), [1e-3, 5e-4], 0.01, McConfig(5, 3))
        assert rep.estimate == 1.0

    def test_needs_a_transport_model(self):
        # Heun steps the Stratonovich form of transport noise only
        g = TorusGrid(8)
        model = AdditiveHeat(CovarianceSpec.white(g))
        with pytest.raises(ValueError, match="TransportHeat"):
            ito_strat_compare(model, cos_field(g), [1e-3, 5e-4], 0.01, McConfig(5, 3))


def counted_stream_normals(monkeypatch):
    """Record the (seed, streams, cols, chunk) of every stream_normals call."""
    calls = []

    def counted(seed, streams, cols, chunk=0):
        calls.append((seed, tuple(streams), cols, chunk))
        return stream_normals(seed, streams, cols, chunk)

    monkeypatch.setattr(noise, "stream_normals", counted)
    monkeypatch.setattr(verify, "stream_normals", counted)
    return calls


KINDS = ("euler_maruyama", "heun_stratonovich")
OU_KINDS = ("euler_maruyama", "exponential_euler", "exact_ou")


class TestLadder:
    # the ladder runner steps every lane off one fine path, block-summed per
    # rung; a run driven by the whole fine draw matrix is the reference

    def matrix_lanes(self, model, u0, T, dts, seed, stream):
        """Each lane's states, driven by coarse sums of the held fine draw matrix."""
        white = CovarianceSpec.white(model.grid)
        dts = sorted(dts, reverse=True)
        n_fine = int(round(T / dts[-1]))
        fine = NoiseSampler(white, seed, stream).draws_block(0, n_fine)
        fine *= np.sqrt(dts[-1])
        states = []
        for dt in dts:
            coarse = MatrixNoise(white, coarsen_increments(fine, int(round(dt / dts[-1]))))
            states += [simulate(model, SchemeSpec(k, dt), u0, T, coarse).states for k in KINDS]
        return states

    @pytest.mark.parametrize("dts", [(3e-5, 2e-5, 1e-5), (1.6e-4, 4e-5, 1e-5), (4e-4, 1e-4, 1e-5)])
    def test_lanes_are_the_matrix_driven_runs(self, dts):
        # factors 3 and 2 do not divide each other; 16 and 4, 40 and 10 do
        g = TorusGrid(8)
        model = TransportHeat(g, (0.6, 0.4))
        u0 = field_from_modes(g, [(1, 0.4 - 0.1j), (3, 0.05j)])
        T = 0.0312  # 3120 fine steps: 13 counter blocks, the last one partial
        states = [[u0.coef] for _ in range(2 * len(dts))]
        for lane, step0, rows, _ in ladder_blocks(model, u0, T, dts, KINDS, 4, 2):
            assert step0 == len(states[lane]) - 1
            states[lane].extend(rows[1:].copy())
        for got, ref in zip(states, self.matrix_lanes(model, u0, T, dts, 4, 2)):
            assert np.array(got).tobytes() == ref.tobytes()

    def test_reports_are_the_matrix_driven_reports(self):
        g = TorusGrid(8)
        model = TransportHeat(g, (0.6, 0.4))
        u0 = cos_field(g)
        T, dts = 0.0312, [3e-5, 2e-5, 1e-5]
        white = CovarianceSpec.white(g)
        for kind in KINDS:
            reps = energy_identity_refinement(model, u0, T, dts, 9, 1, kind=kind)
            fine = NoiseSampler(white, 9, 1).draws_block(0, 3120) * np.sqrt(1e-5)
            for rep, dt in zip(reps, dts):
                coarse = MatrixNoise(white, coarsen_increments(fine, int(round(dt / 1e-5))))
                path = simulate(model, SchemeSpec(kind, dt), u0, T, coarse)
                norms = block_norms(path.times, path.states, g)
                ref = energy_table(norms, model.sigma_seq)
                assert rep.estimate == ref.estimate and rep.tolerance == ref.tolerance
                assert rep.metadata["relative_residual"] == ref.metadata["relative_residual"]
        # ito_strat: the terminal distances of each path, matrix-driven
        rep = ito_strat_compare(model, u0, dts, T, McConfig(3, 5))
        dists = np.zeros(3)
        for path in range(3):
            final = [states[-1] for states in self.matrix_lanes(model, u0, T, dts, 5, path)]
            dists += np.sqrt([l2_sq_rows(a - b) for a, b in zip(final[::2], final[1::2])])
        assert rep.metadata["mean_distances"] == (dists / 3).tolist()

    @pytest.mark.parametrize("dts", [(3e-5, 2e-5, 1e-5), (4e-4, 1e-4, 1e-5)])
    def test_each_fine_block_drawn_once_and_few_held(self, monkeypatch, dts):
        calls = counted_stream_normals(monkeypatch)
        held = []
        increments = verify._FineStream.increments

        def holding(self, *args):
            out = increments(self, *args)
            held.append(len(self.held))
            return out

        monkeypatch.setattr(verify._FineStream, "increments", holding)
        g = TorusGrid(4)
        model = TransportHeat(g, (1.0,))
        for _ in ladder_blocks(model, cos_field(g), 0.06, dts, KINDS, 3, 7):
            pass
        blocks = -(-6000 // BLOCK_STEPS)
        assert sorted(c[3] for c in calls) == list(range(blocks))
        # each block draws the rows the path reads: all 256, and 112 of the last
        rows = [min(BLOCK_STEPS, 6000 - c * BLOCK_STEPS) for c in range(blocks)]
        width = 2 * g.n_modes + 1
        assert sorted((c[3], c[2]) for c in calls) == [(c, n * width) for c, n in enumerate(rows)]
        assert {c[:2] for c in calls} == {(3, (7,))}
        f_max = int(round(dts[0] / dts[-1]))
        assert max(held) <= f_max + 1

    @pytest.mark.parametrize("additive", [False, True])
    def test_lanes_leave_the_fine_blocks_unchanged(self, monkeypatch, additive):
        # the finest lanes all read the one held block: a lane that rescaled
        # or packed into it would change the draws of the lanes after it
        handed = []
        increments = NoiseSampler.increments

        def keeping(self, *args):
            out = increments(self, *args)
            handed.append((out, out.copy()))
            return out

        monkeypatch.setattr(NoiseSampler, "increments", keeping)
        g = TorusGrid(4)
        if additive:
            model, kinds = AdditiveHeat(CovarianceSpec.power(g, 1.0)), OU_KINDS
        else:
            model, kinds = TransportHeat(g, (1.0,)), KINDS
        for _ in ladder_blocks(model, cos_field(g), 0.006, (2e-5, 1e-5), kinds, 3, 7):
            pass
        assert len(handed) == -(-600 // BLOCK_STEPS)
        assert all(out.tobytes() == kept.tobytes() for out, kept in handed)

    def test_ito_strat_draws_one_fine_pass_per_path(self, monkeypatch):
        calls = counted_stream_normals(monkeypatch)
        g = TorusGrid(8)
        model = TransportHeat(g, (1.0,))
        ito_strat_compare(model, cos_field(g), [1e-3, 2.5e-4, 6.25e-5], 0.05, McConfig(4, 3))
        # 800 fine steps per path: counter blocks 0..3 of each path's stream, once
        assert sorted((c[1], c[3]) for c in calls) == [((p,), c) for p in range(4) for c in range(4)]

    def test_energy_refinement_memory_does_not_grow_with_the_horizon(self):
        # K = 32: a held fine draw matrix at 4T would be 65 floats per step, 5.3 MB
        import tracemalloc

        g = TorusGrid(32)
        model = TransportHeat(g, (1.0,))
        energy_identity_refinement(model, cos_field(g), 2.56e-3, [2e-5, 1e-5], 1)  # warm up
        peaks = []
        for T in (0.0256, 0.1024):
            tracemalloc.start()
            try:
                energy_identity_refinement(model, cos_field(g), T, [2e-5, 1e-5], 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.5 * 2**20, peaks


class TestSmoothQuadraticVariation:
    @pytest.mark.parametrize("T", [0.05, 0.5, 1.0, 3.7])
    def test_chunked_sum_has_the_bits_of_the_whole_path(self, monkeypatch, T):
        n = 2**21
        s = np.arange(n + 1) / n * T
        whole = quadratic_variation_partition(s + 0.1 * np.sin(2 * np.pi * s / T), [n], 0.0, 1e-6)
        for chunk in (2**13, 2**15, 2**16, 2**18):
            monkeypatch.setattr(verify, "_QV_CHUNK", chunk)
            rep = smooth_quadratic_variation(T)
            assert rep.estimate == whole.estimate
            assert (rep.target, rep.n, rep.tol_kind) == (0.0, n, "abs")
        assert rep.name == "quadratic_variation_smooth"

    @pytest.mark.parametrize("T", [0.05, 1.0, 2.0, 10.0])
    def test_gate_is_the_paths_own_partition_sum(self, T):
        # (T/n) int_0^T |g'|^2 = (T^2 + 0.02 pi^2) / n: above 1e-6 once T >= 1.4
        n = 2**21
        bound = (T * T + 0.02 * np.pi**2) / n
        rep = smooth_quadratic_variation(T)
        assert rep.passed
        assert rep.tolerance == pytest.approx(bound, rel=1e-8) and rep.tolerance >= bound
        assert abs(rep.estimate - bound) <= 1e-11 * bound

    @pytest.mark.parametrize("T", [2.0, 10.0])
    def test_gate_fails_for_nonzero_quadratic_variation(self, T):
        # the same partition of a Brownian path sums to about T, and a sum
        # one part in 10^6 above the smooth path's is rejected too
        rep = smooth_quadratic_variation(T)
        n = rep.n
        brownian = quadratic_variation_partition(brownian_scalar_path(3, n, T), [n], T)
        assert brownian.estimate == pytest.approx(T, rel=0.01)
        for estimate in (brownian.estimate, rep.estimate * (1 + 1e-6)):
            assert not dataclasses.replace(rep, estimate=estimate).passed

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            smooth_quadratic_variation(0.0)


class TestGaussianMoments:
    def test_single_channel_fourth_moment(self):
        g = TorusGrid(0, 1)
        spec = CovarianceSpec.from_eigenvalues(g, [1.0])
        rep = mc_reports([gaussian_moment_stat(spec)], McConfig(20_000, 5))[0]
        assert rep.target == pytest.approx(3.0)
        assert rep.passed

    def test_closed_form_against_quadrature_oracle(self):
        # two unit channels: E (z1^2 + z2^2)^2 by Gauss-Hermite quadrature
        nodes, weights = np.polynomial.hermite_e.hermegauss(40)
        weights = weights / np.sqrt(2 * np.pi)
        z1, z2 = np.meshgrid(nodes, nodes)
        w2d = np.outer(weights, weights)
        oracle = np.sum(w2d * (z1**2 + z2**2) ** 2)
        assert oracle == pytest.approx((2.0) ** 2 + 2.0 * 2.0, rel=1e-10)  # = 8

    def test_zero_operator(self):
        g = TorusGrid(2)
        spec = CovarianceSpec.from_eigenvalues(g, np.zeros(3))
        rep = mc_reports([gaussian_moment_stat(spec)], McConfig(100, 1))[0]
        assert rep.estimate == 0.0 and rep.target == 0.0
        assert rep.passed


class TestTraceIdentity:
    def test_small_power_spectrum(self):
        g = TorusGrid(16)
        spec = CovarianceSpec.power(g, 1.0)
        rep = mc_reports([trace_identity_stat(spec, 0.5)], McConfig(5000, 9))[0]
        assert rep.passed
        assert rep.note == ""

    def test_report_fields_recomputed_from_the_samples(self):
        g = TorusGrid(8)
        spec = CovarianceSpec.white(g)
        cfg = McConfig(200, 4, tolerance_multiplier=2.5)
        rep = mc_reports([trace_identity_stat(spec, 0.5)], cfg)[0]
        z = mc_normals(cfg.base_seed, cfg.n_paths, spec.n_channels)
        samples = np.sum(0.5 * z**2, axis=1)  # |W|^2 = T * sum of squared unit channels
        assert rep.estimate == pytest.approx(np.mean(samples), rel=1e-12)
        assert rep.se == pytest.approx(np.std(samples, ddof=1) / np.sqrt(200), rel=1e-12)
        assert (rep.n, rep.tol_kind, rep.tolerance) == (200, "se", 2.5)
        assert rep.note == "truncated white noise (K modes recorded)"
        assert rep.metadata == {"T": 0.5, "n_modes": 8}


class TestOuVariance:
    def test_modes_against_closed_form(self):
        g = TorusGrid(16)
        q = CovarianceSpec.white(g)
        reps = mc_reports(ou_variance_stats(q, 0.01, [0, 1, 8]), McConfig(5000, 13))
        assert [r.passed for r in reps] == [True, True, True]
        assert reps[0].target == pytest.approx(0.01)  # Brownian mode
