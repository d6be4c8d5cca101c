"""Time-stepping schemes: one-step contracts, whole paths, convergence."""

import numpy as np
import pytest

from conftest import cos_field, make_random_field, sampled_increment, sin_field
from reference import (
    MatrixNoise,
    em_step,
    exact_ou_step,
    exp_euler_step,
    heun_strat_step,
    increment_from_scaled,
)
from spdekit.integrators import (
    BLOW_UP_NORM,
    BlowUpError,
    SchemeSpec,
    block_norms,
    noise_spec,
    simulate,
    step_blocks,
)
from spdekit.models import AdditiveHeat, Burgers, PorousMedium, ReactionDiffusion, TransportHeat
from spdekit.noise import BLOCK_STEPS, CovarianceSpec, NoiseSampler, coarsen_increments, pack_draws
from spdekit.spectral import SpectralField, TorusGrid, field_from_modes, l2_sq_rows, zero_field

TWO_PI = 2.0 * np.pi


def zero_inc(grid, dt):
    spec = CovarianceSpec.white(grid)
    return increment_from_scaled(spec, np.zeros(2 * grid.n_modes + 1), dt)


def l2_dist(a, b):
    d = a - b
    return float(np.sqrt(d[0].real ** 2 + 2 * np.sum(np.abs(d[1:]) ** 2)))


class TestSchemeSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            SchemeSpec("rk4", 0.1)
        for dt in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                SchemeSpec("euler_maruyama", dt)


class TestEmStep:
    def test_frozen_on_constants_with_dead_noise(self):
        g = TorusGrid(4)
        q = CovarianceSpec.from_eigenvalues(g, np.zeros(5))
        m = AdditiveHeat(q)
        u = field_from_modes(g, [(0, 2.0)])
        inc = increment_from_scaled(q, np.ones(9), 0.1)
        out = em_step(m, u, inc)
        assert np.array_equal(out.coef, u.coef)

    def test_heat_equation_mode_factor(self):
        g = TorusGrid(4)
        m = TransportHeat(g, (0.0,))
        u = field_from_modes(g, [(1, 1.0)])
        dt = 1e-3
        out = em_step(m, u, zero_inc(g, dt))
        assert out.amp(1) == pytest.approx(1.0 - TWO_PI**2 * dt, rel=1e-14)

    def test_pure_noise_step(self):
        g = TorusGrid(4)
        q = CovarianceSpec.white(g)
        m = AdditiveHeat(q)
        inc = sampled_increment(q, 3, 0.01)
        out = em_step(m, zero_field(g), inc)
        assert np.array_equal(out.coef, inc.field.coef)


class TestHeunStep:
    def test_zero_noise_reduces_to_strat_drift(self):
        g = TorusGrid(4)
        sigma = 0.8
        m = TransportHeat(g, (sigma,))
        u = field_from_modes(g, [(1, 1.0)])
        dt = 1e-3
        out = heun_strat_step(m, u, zero_inc(g, dt))
        assert out.amp(1) == pytest.approx(1.0 - (1 - sigma / 2) * TWO_PI**2 * dt, rel=1e-14)

    def test_sigma_zero_matches_em(self, rand_field):
        g = TorusGrid(8)
        m = TransportHeat(g, (0.0,))
        u = make_random_field(g, 5)
        inc = sampled_increment(CovarianceSpec.white(g), 7, 1e-3)
        a = heun_strat_step(m, u, inc)
        b = em_step(m, u, inc)
        assert np.allclose(a.coef, b.coef, atol=1e-15)

    def test_wrong_model_rejected(self):
        g = TorusGrid(4)
        m = AdditiveHeat(CovarianceSpec.white(g))
        with pytest.raises(ValueError, match="TransportHeat"):
            heun_strat_step(m, cos_field(g), zero_inc(g, 0.1))


class TestExpEulerStep:
    def test_exact_heat_decay(self):
        g = TorusGrid(4)
        m = TransportHeat(g, (0.0,))
        u = field_from_modes(g, [(2, 1.0)])
        dt = 0.05
        out = exp_euler_step(m, u, zero_inc(g, dt))
        assert out.amp(2) == pytest.approx(np.exp(-((4 * np.pi) ** 2) * dt), rel=1e-13)

    def test_small_dt_is_identity_plus_order_dt(self, rand_field):
        g = TorusGrid(8)
        m = Burgers(CovarianceSpec.mean_free_white(g))
        u = make_random_field(g, 9)
        dt = 1e-8
        out = exp_euler_step(m, u, zero_inc(g, dt))
        assert np.max(np.abs(out.coef - u.coef)) < 1e-4

    def test_porous_medium_m3_rejected(self):
        g = TorusGrid(4)
        m = ReactionDiffusion(-1.0, 4, CovarianceSpec.white(g))
        exp_euler_step(m, cos_field(g), zero_inc(g, 0.01))  # has Laplacian part
        from spdekit.models import PorousMedium

        with pytest.raises(ValueError, match="no Laplacian linear part"):
            exp_euler_step(PorousMedium(3, CovarianceSpec.white(g)), cos_field(g), zero_inc(g, 0.01))

    def test_burgers_zero_noise_self_convergence(self):
        # viscous Burgers from sin(2 pi x): dt vs dt/64 reference
        g = TorusGrid(32)
        m = Burgers(CovarianceSpec.from_eigenvalues(g, np.zeros(33)))
        u0 = sin_field(g)
        T = 0.1
        coarse = simulate(m, SchemeSpec("exponential_euler", 1e-3), u0, T)
        ref = simulate(m, SchemeSpec("exponential_euler", 1e-3 / 64), u0, T)
        err = l2_dist(coarse.states[-1], ref.states[-1])
        assert err / np.sqrt(l2_sq_rows(ref.states[-1])) < 1e-3


class TestExactOu:
    def test_zero_stays_zero(self):
        g = TorusGrid(4)
        q = CovarianceSpec.from_eigenvalues(g, np.zeros(5))
        out = exact_ou_step(AdditiveHeat(q), zero_field(g), sampled_increment(q, 1, 0.1))
        assert np.all(out.coef == 0)

    def test_dt_validation(self):
        g = TorusGrid(4)
        q = CovarianceSpec.white(g)
        inc = increment_from_scaled(q, np.zeros(9), -0.1)
        with pytest.raises(ValueError, match="positive"):
            exact_ou_step(AdditiveHeat(q), zero_field(g), inc)

    def test_wrong_model_rejected(self):
        g = TorusGrid(4)
        with pytest.raises(ValueError, match="AdditiveHeat"):
            exact_ou_step(TransportHeat(g, (1.0,)), cos_field(g), zero_inc(g, 0.1))

    def test_stationary_variance(self):
        # long-time marginal of mode k reaches lambda/(2 mu) (3 SE at n draws)
        g = TorusGrid(4)
        q = CovarianceSpec.white(g)
        m = AdditiveHeat(q)
        n, k, dt = 4000, 1, 5.0  # mu*dt >> 1: one step reaches stationarity
        mu = g.laplacian_eigs[k]
        samples = np.empty(n)
        for i in range(n):
            out = exact_ou_step(m, zero_field(g), sampled_increment(q, 100, dt, stream=i))
            samples[i] = abs(out.amp(k)) ** 2
        target = 1.0 / (2 * mu)
        se = np.std(samples, ddof=1) / np.sqrt(n)
        assert abs(np.mean(samples) - target) < 3 * se

    def test_brownian_small_dt_limit(self):
        # Var eta_k -> lambda dt as dt -> 0: ratio of closed forms
        from spdekit.integrators import ou_channel_variances

        g = TorusGrid(8)
        q = CovarianceSpec.white(g)
        dt = 1e-9
        var = ou_channel_variances(q, dt)
        assert np.allclose(var, dt, rtol=1e-3)


class TestSimulate:
    def test_noise_spec_per_model(self):
        g = TorusGrid(4)
        q = CovarianceSpec.power(g, 1.0)
        white = noise_spec(TransportHeat(g, (0.5, 0.3)))
        assert white.kind == "white" and white.grid == g
        for model in (AdditiveHeat(q), ReactionDiffusion(-1.0, 3, q), Burgers(q)):
            assert noise_spec(model) is q

    def test_zero_horizon(self):
        g = TorusGrid(4)
        m = TransportHeat(g, (1.0,))
        p = simulate(m, SchemeSpec("euler_maruyama", 0.1), cos_field(g), 0.0)
        assert p.times.shape == (1,)
        assert p.states.shape == (1, 5)

    def test_dt_must_divide_horizon(self):
        g = TorusGrid(4)
        m = TransportHeat(g, (1.0,))
        with pytest.raises(ValueError, match="does not divide"):
            simulate(m, SchemeSpec("euler_maruyama", 0.3), cos_field(g), 1.0)

    def test_exact_linear_flow(self):
        g = TorusGrid(8)
        m = TransportHeat(g, (0.0,))
        T = 0.07
        p = simulate(m, SchemeSpec("exponential_euler", 1e-3), cos_field(g), T)
        assert p.final.amp(1) == pytest.approx(0.5 * np.exp(-(TWO_PI**2) * T), rel=1e-12)

    def test_determinism_bit_identical(self):
        g = TorusGrid(16)
        m = TransportHeat(g, (1.0,))
        runs = []
        for _ in range(2):
            s = NoiseSampler(CovarianceSpec.white(g), 5, 2)
            runs.append(simulate(m, SchemeSpec("euler_maruyama", 1e-4), cos_field(g), 0.02, sampler=s))
        assert np.array_equal(runs[0].states, runs[1].states)

    def test_mean_mode_constant_transport_and_burgers(self, rand_field):
        gt = TorusGrid(16)
        mt = TransportHeat(gt, (1.0,))
        u0 = make_random_field(gt, 13, mean_zero=False)
        st = NoiseSampler(CovarianceSpec.white(gt), 7, 0)
        pt = simulate(mt, SchemeSpec("euler_maruyama", 1e-5), u0, 0.005, sampler=st)
        assert np.max(np.abs(pt.states[:, 0].real - u0.mean)) < 1e-12

        gb = TorusGrid(32)
        mb = Burgers(CovarianceSpec.mean_free_white(gb))
        w0 = sin_field(gb) + field_from_modes(gb, [(0, 0.3)])
        sb = NoiseSampler(mb.q, 11, 0)
        pb = simulate(mb, SchemeSpec("exponential_euler", 1e-4), w0, 0.02, sampler=sb)
        assert np.max(np.abs(pb.states[:, 0].real - 0.3)) < 1e-12

    def test_blow_up_reported_with_time(self):
        g = TorusGrid(16)
        m = ReactionDiffusion(+1.0, 4, CovarianceSpec.white(g))
        u0 = cos_field(g, amplitude=50.0)
        s = NoiseSampler(m.q, 3, 0)
        with pytest.raises(BlowUpError) as err:
            simulate(m, SchemeSpec("euler_maruyama", 1e-4), u0, 1.0, sampler=s)
        assert 0 < err.value.time < 1.0

    def test_scheme_model_compatibility(self):
        g = TorusGrid(4)
        m = TransportHeat(g, (1.0,))
        s = NoiseSampler(CovarianceSpec.white(g), 1)
        with pytest.raises(ValueError, match="AdditiveHeat"):
            simulate(m, SchemeSpec("exact_ou", 0.1), cos_field(g), 0.1, sampler=s)
        ma = AdditiveHeat(CovarianceSpec.white(g))
        with pytest.raises(ValueError, match="TransportHeat"):
            simulate(ma, SchemeSpec("heun_stratonovich", 0.1), cos_field(g), 0.1, sampler=s)

    def test_sampler_must_carry_the_model_noise(self):
        g = TorusGrid(8)
        m = AdditiveHeat(CovarianceSpec.power(g, 1.0))
        scheme = SchemeSpec("euler_maruyama", 1e-3)
        white = NoiseSampler(CovarianceSpec.white(g), 1)
        with pytest.raises(ValueError, match=r"\(white\).*AdditiveHeat \(trace_class\)"):
            simulate(m, scheme, zero_field(g), 0.01, sampler=white)
        steeper = NoiseSampler(CovarianceSpec.power(g, 2.0), 1)
        with pytest.raises(ValueError, match=r"\(trace_class\).*\(trace_class\)"):
            simulate(m, scheme, zero_field(g), 0.01, sampler=steeper)
        # a distinct spec with the same eigenvalues is the model's covariance
        p = simulate(m, scheme, zero_field(g), 0.01,
                     sampler=NoiseSampler(CovarianceSpec.power(g, 1.0), 1))
        first = NoiseSampler(m.q, 1).draws_block(0, 1)[0] * np.sqrt(1e-3)
        assert np.array_equal(p.states[1], pack_draws(m.q, first))

    def test_sampler_and_explicit_draws_agree(self):
        g = TorusGrid(8)
        m = TransportHeat(g, (1.0,))
        spec = CovarianceSpec.white(g)
        scheme = SchemeSpec("euler_maruyama", 1e-4)
        via_sampler = simulate(m, scheme, cos_field(g), 0.01, sampler=NoiseSampler(spec, 5, 1))
        draws = NoiseSampler(spec, 5, 1).draws_block(0, 100) * np.sqrt(1e-4)
        via_draws = simulate(m, scheme, cos_field(g), 0.01, MatrixNoise(spec, draws))
        assert np.array_equal(via_sampler.states, via_draws.states)

    def test_path_invariants(self):
        g = TorusGrid(8)
        m = TransportHeat(g, (1.0,))
        s = NoiseSampler(CovarianceSpec.white(g), 9)
        p = simulate(m, SchemeSpec("euler_maruyama", 1e-3), cos_field(g), 0.05, sampler=s)
        assert p.states.shape[0] == p.times.shape[0] == p.n_steps + 1
        assert np.all(np.diff(p.times) > 0)
        assert p.times[4] - p.times[3] == pytest.approx(1e-3)


REFERENCE_STEPS = {
    "euler_maruyama": em_step,
    "heun_stratonovich": heun_strat_step,
    "exponential_euler": exp_euler_step,
    "exact_ou": exact_ou_step,
}


def reference_states(model, kind, u0, scaled, spec, dt):
    """The path as a Python loop of the per-step reference function."""
    u, rows = u0, [u0.coef]
    for n in range(scaled.shape[0]):
        u = REFERENCE_STEPS[kind](model, u, increment_from_scaled(spec, scaled[n], dt))
        rows.append(u.coef)
    return np.array(rows)


class TestDiagonalLanes:
    # simulate steps TransportHeat and AdditiveHeat as blocks of mode
    # recursions; the per-step functions are the reference they must match

    @pytest.mark.parametrize("sigma", [(1.0,), (0.5, 0.3)])
    @pytest.mark.parametrize("kind", ["euler_maruyama", "heun_stratonovich", "exponential_euler"])
    def test_transport_matches_per_step_reference(self, kind, sigma):
        g = TorusGrid(8)
        m = TransportHeat(g, sigma)
        spec = CovarianceSpec.white(g)
        u0 = field_from_modes(g, [(0, 0.2), (1, 0.5), (3, 0.1 + 0.2j), (8, 0.05)])
        dt = 1e-4
        n_steps = BLOCK_STEPS + 44  # crosses a block boundary
        scaled = NoiseSampler(spec, 3, 1).draws_block(0, n_steps) * np.sqrt(dt)
        p = simulate(m, SchemeSpec(kind, dt), u0, n_steps * dt, MatrixNoise(spec, scaled))
        ref = reference_states(m, kind, u0, scaled, spec, dt)
        np.testing.assert_allclose(p.states, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["euler_maruyama", "exponential_euler", "exact_ou"])
    def test_additive_matches_per_step_reference(self, kind):
        g = TorusGrid(8)
        q = CovarianceSpec.power(g, 1.0)
        m = AdditiveHeat(q)
        u0 = cos_field(g)
        dt = 1e-4
        n_steps = BLOCK_STEPS + 44  # crosses a block boundary
        scaled = NoiseSampler(q, 4, 2).draws_block(0, n_steps) * np.sqrt(dt)
        p = simulate(m, SchemeSpec(kind, dt), u0, n_steps * dt, MatrixNoise(q, scaled))
        ref = reference_states(m, kind, u0, scaled, q, dt)
        np.testing.assert_allclose(p.states, ref, rtol=1e-12, atol=0)

    def test_blow_up_time_matches_reference(self):
        # the reported time and step are those of the first reference state
        # out of range, and the norm and worst mode are read from that state
        def reference_blow_up_step(m, u0, white, scaled, dt, err):
            u, n = u0, 0
            with np.errstate(over="ignore", invalid="ignore"):
                while np.all(np.isfinite(u.coef)) and l2_sq_rows(u.coef) <= BLOW_UP_NORM**2:
                    u = em_step(m, u, increment_from_scaled(white, scaled[n], dt))
                    n += 1
                assert err.step == n
                assert err.mode == int(np.argmax(np.abs(u.coef)))
                assert err.norm == pytest.approx(np.sqrt(l2_sq_rows(u.coef)), rel=1e-12)
            return n

        # explicit EM far beyond the stability limit of the top mode
        g = TorusGrid(32)
        white = CovarianceSpec.white(g)
        u0 = SpectralField(g, np.ones(33, dtype=np.complex128))
        dt = 1e-2
        scaled = NoiseSampler(white, 1).draws_block(0, 100) * np.sqrt(dt)
        for m in (TransportHeat(g, (0.0,)), AdditiveHeat(white)):
            with pytest.raises(BlowUpError) as err:
                simulate(m, SchemeSpec("euler_maruyama", dt), u0, 1.0, MatrixNoise(white, scaled))
            n = reference_blow_up_step(m, u0, white, scaled, dt, err.value)
            assert 0 < n < 100
            assert err.value.time == n * dt

        # a stable path kicked out of range by one huge draw on either side
        # of the boundary between the first two blocks of the stepping loop
        g = TorusGrid(8)
        white = CovarianceSpec.white(g)
        u0 = cos_field(g)
        dt = 1e-4
        n_steps = BLOCK_STEPS + 8
        draws = NoiseSampler(white, 2).draws_block(0, n_steps) * np.sqrt(dt)
        models = (TransportHeat(g, (1.0,)), AdditiveHeat(white), ReactionDiffusion(1.0, 3, white))
        for row in (BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1):
            scaled = draws.copy()
            scaled[row, 0] = 1e14
            for m in models:
                with pytest.raises(BlowUpError) as err:
                    simulate(m, SchemeSpec("euler_maruyama", dt), u0, n_steps * dt,
                             MatrixNoise(white, scaled))
                assert reference_blow_up_step(m, u0, white, scaled, dt, err.value) == row + 1
                assert err.value.time == (row + 1) * dt


NONLINEAR_CASES = [
    ("rd_theta-1_m3", "euler_maruyama"),
    ("rd_theta-1_m3", "exponential_euler"),
    ("rd_theta+1_m3", "euler_maruyama"),
    ("rd_theta+1_m3", "exponential_euler"),
    ("rd_theta-1_m4", "euler_maruyama"),
    ("rd_theta-1_m4", "exponential_euler"),
    ("rd_theta+1_m4", "euler_maruyama"),
    ("rd_theta+1_m4", "exponential_euler"),
    ("pm_m2", "euler_maruyama"),
    ("pm_m2", "exponential_euler"),
    ("pm_m3", "euler_maruyama"),
    ("burgers", "euler_maruyama"),
    ("burgers", "exponential_euler"),
]


def nonlinear_model(name, grid):
    q = CovarianceSpec.power(grid, 1.0)
    if name == "burgers":
        return Burgers(CovarianceSpec.mean_free_white(grid))
    if name.startswith("pm"):
        return PorousMedium(int(name[-1]), q)
    theta = -1.0 if "theta-1" in name else 1.0
    return ReactionDiffusion(theta, int(name[-1]), q)


class TestNonlinearLane:
    # simulate steps ReactionDiffusion, PorousMedium and Burgers as one loop
    # over raw coefficient rows; em_step / exp_euler_step are the reference

    @pytest.mark.parametrize("name,kind", NONLINEAR_CASES)
    def test_matches_per_step_reference(self, name, kind):
        g = TorusGrid(16)
        m = nonlinear_model(name, g)
        u0 = field_from_modes(g, [(1, 0.4 - 0.2j), (2, 0.15j), (5, 0.05), (16, 1e-3)])
        if not isinstance(m, Burgers):
            u0 = u0 + field_from_modes(g, [(0, 0.1)])
        dt = 5e-5
        n_steps = BLOCK_STEPS + 44  # crosses a noise-packing block boundary
        scaled = NoiseSampler(m.q, 8, 3).draws_block(0, n_steps) * np.sqrt(dt)
        p = simulate(m, SchemeSpec(kind, dt), u0, n_steps * dt, MatrixNoise(m.q, scaled))
        ref = reference_states(m, kind, u0, scaled, m.q, dt)
        # entries that cancel to a few units of the field's scale are held to
        # an absolute floor of one rounding unit of that scale
        scale = np.max(np.abs(ref))
        np.testing.assert_allclose(p.states, ref, rtol=1e-12, atol=1e-15 * scale)
        # same operations in the same order as the reference: same bits
        assert np.array_equal(p.states, ref)
        # mode 0 is real, with a +0.0 imaginary part as in a SpectralField
        assert not np.any(p.states[:, 0].imag) and not np.any(np.signbit(p.states[:, 0].imag))

    def test_exp_euler_porous_medium_above_m2_rejected(self):
        g = TorusGrid(8)
        m = PorousMedium(3, CovarianceSpec.white(g))
        with pytest.raises(ValueError, match="no Laplacian linear part"):
            simulate(m, SchemeSpec("exponential_euler", 1e-4), cos_field(g), 1e-2)

    def test_steps_build_no_fields(self, monkeypatch):
        # the lane works on raw rows: the number of SpectralField objects a
        # run builds must not grow with the number of steps
        g = TorusGrid(16)
        m = ReactionDiffusion(-1.0, 3, CovarianceSpec.power(g, 1.0))
        u0 = cos_field(g)
        built = []
        post_init = SpectralField.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(SpectralField, "__post_init__", counting)
        for kind in ("euler_maruyama", "exponential_euler"):
            built.clear()
            p = simulate(m, SchemeSpec(kind, 1e-5), u0, 1e-2,
                         sampler=NoiseSampler(m.q, 4, 0))
            assert p.n_steps == 1000
            assert len(built) <= 2


STEPPED_PAIRS = [
    ("transport", "euler_maruyama"),
    ("transport", "heun_stratonovich"),
    ("transport", "exponential_euler"),
    ("additive", "euler_maruyama"),
    ("additive", "exponential_euler"),
    ("additive", "exact_ou"),
] + NONLINEAR_CASES


def stepped_model(name, grid):
    if name == "transport":
        return TransportHeat(grid, (0.5, 0.3))
    if name == "additive":
        return AdditiveHeat(CovarianceSpec.power(grid, 1.0))
    return nonlinear_model(name, grid)


class TestStreamedDraws:
    # simulate draws each block of 256 steps inside its stepping loop and
    # holds no draw matrix; a step's draws are a function of its stream and index

    @pytest.mark.parametrize("n_steps", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("name,kind", STEPPED_PAIRS)
    def test_sampler_lane_equals_matrix_lane(self, monkeypatch, name, kind, n_steps):
        from spdekit import integrators

        g = TorusGrid(4)
        m = stepped_model(name, g)
        u0 = field_from_modes(g, [(0, 0.1), (1, 0.4 - 0.2j), (3, 0.05j)])
        if isinstance(m, Burgers):
            u0 = field_from_modes(g, [(1, 0.4 - 0.2j), (3, 0.05j)])
        dt = 1e-5
        sampler = NoiseSampler(noise_spec(m), 12, 5)
        consumed = []
        block_filler = integrators._block_filler

        def recording(*args):
            fill = block_filler(*args)

            def recorded(rows, scaled):
                consumed.append(scaled.copy())
                fill(rows, scaled)

            return recorded

        monkeypatch.setattr(integrators, "_block_filler", recording)
        p = simulate(m, SchemeSpec(kind, dt), u0, n_steps * dt, sampler=sampler)
        consumed = np.concatenate(consumed)
        monkeypatch.undo()
        matrix = sampler.draws_block(0, n_steps) * np.sqrt(dt)
        source = MatrixNoise(sampler.spec, matrix)
        ref = simulate(m, SchemeSpec(kind, dt), u0, n_steps * dt, source)
        assert np.array_equal(consumed, matrix)
        assert np.array_equal(p.states, ref.states)
        for i in sorted({0, n_steps // 2, min(255, n_steps - 1), n_steps - 1}):
            # a step's draws read on their own are the row the run consumed
            assert np.array_equal(sampler.draws_block(i, 1)[0] * np.sqrt(dt), consumed[i])

    @pytest.mark.parametrize("n_steps", [0, 1, 255, 256, 257, 600])
    @pytest.mark.parametrize("name,kind", STEPPED_PAIRS)
    def test_step_blocks_yield_the_rows_of_simulate(self, name, kind, n_steps):
        g = TorusGrid(4)
        m = stepped_model(name, g)
        u0 = field_from_modes(g, [(0, 0.1), (1, 0.4 - 0.2j), (3, 0.05j)])
        if isinstance(m, Burgers):
            u0 = field_from_modes(g, [(1, 0.4 - 0.2j), (3, 0.05j)])
        dt = 1e-5
        run = (m, SchemeSpec(kind, dt), u0, n_steps * dt)
        p = simulate(*run, sampler=NoiseSampler(noise_spec(m), 12, 5))
        states = [u0.coef]
        for step0, rows, l2_sq in step_blocks(*run, sampler=NoiseSampler(noise_spec(m), 12, 5)):
            assert step0 == len(states) - 1 and rows.shape[0] <= BLOCK_STEPS + 1
            assert np.array_equal(rows[0], states[-1])  # the carried state
            assert l2_sq.tobytes() == l2_sq_rows(rows[1:]).tobytes()  # the scan's row sums
            states.extend(rows[1:].copy())
        assert np.array_equal(np.array(states), p.states)

    @pytest.mark.parametrize("n_steps", [0, 1, 256, 600])
    @pytest.mark.parametrize("name,kind", STEPPED_PAIRS)
    def test_block_norms_are_the_held_paths(self, name, kind, n_steps):
        # the norm rows of the stepped blocks are bit for bit the held path's
        g = TorusGrid(4)
        m = stepped_model(name, g)
        u0 = field_from_modes(g, [(0, 0.1), (1, 0.4 - 0.2j), (3, 0.05j)])
        if isinstance(m, Burgers):
            u0 = field_from_modes(g, [(1, 0.4 - 0.2j), (3, 0.05j)])
        dt = 1e-5
        run = (m, SchemeSpec(kind, dt), u0, n_steps * dt)
        sampler = NoiseSampler(noise_spec(m), 12, 5)
        matrix = MatrixNoise(sampler.spec, sampler.draws_block(0, n_steps) * np.sqrt(dt))
        path = simulate(*run, sampler=sampler)
        table = block_norms(path.times, path.states, g)
        assert table.dtype.names == ("t", "l2_sq", "h1_sq", "mode0")
        assert table.shape == (n_steps + 1,)
        for source in (sampler, matrix):
            rows = [block_norms(np.zeros(1), u0.coef[None], g)]
            for step0, block, l2_sq in step_blocks(*run, source):
                times = np.arange(step0 + 1, step0 + block.shape[0]) * dt
                rows.append(block_norms(times, block[1:], g, l2_sq))
            assert np.concatenate(rows).tobytes() == table.tobytes()
            assert simulate(*run, source).states.tobytes() == path.states.tobytes()

    @pytest.mark.parametrize("name,kind", STEPPED_PAIRS)
    def test_lanes_leave_the_source_unchanged(self, name, kind):
        # a lane rescales and packs its draws into its own buffers: the array a
        # noise source hands out (here views of a held matrix) is never written
        g = TorusGrid(4)
        m = stepped_model(name, g)
        u0 = field_from_modes(g, [(1, 0.4 - 0.2j), (3, 0.05j)])
        dt, n_steps = 1e-5, 600
        matrix = NoiseSampler(noise_spec(m), 12, 5).draws_block(0, n_steps) * np.sqrt(dt)
        kept = matrix.copy()
        source = MatrixNoise(noise_spec(m), matrix)
        assert source.matrix is matrix
        for _ in step_blocks(m, SchemeSpec(kind, dt), u0, n_steps * dt, source):
            pass
        assert matrix.tobytes() == kept.tobytes()

    def test_step_blocks_checks_at_the_call(self):
        g = TorusGrid(4)
        scheme = SchemeSpec("euler_maruyama", 1e-4)
        with pytest.raises(ValueError, match="exact_ou"):
            step_blocks(TransportHeat(g, (1.0,)), SchemeSpec("exact_ou", 1e-4), cos_field(g), 0.01)
        # four intensities on K = 1: the grid draws 2K+1 = 3 channels
        g1 = TorusGrid(1)
        with pytest.raises(ValueError, match="2K\\+1 = 3"):
            step_blocks(TransportHeat(g1, (0.1,) * 4), scheme, cos_field(g1), 0.01)
        for T in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                step_blocks(TransportHeat(g, (1.0,)), scheme, cos_field(g), T)

    def test_noise_free_path_steps_zero_increments(self):
        g = TorusGrid(4)
        run = (TransportHeat(g, (1.0,)), SchemeSpec("euler_maruyama", 1e-4), cos_field(g), 0.03)
        zero = simulate(*run, MatrixNoise(CovarianceSpec.white(g), np.zeros((300, 9))))
        assert np.array_equal(simulate(*run).states, zero.states)

    @pytest.mark.parametrize("n_steps", [1, 255, 256, 257, 600])
    def test_one_stream_call_per_block(self, monkeypatch, n_steps):
        from spdekit import noise

        calls = []
        stream_normals = noise.stream_normals

        def counted(*args):
            calls.append(args)
            return stream_normals(*args)

        monkeypatch.setattr(noise, "stream_normals", counted)
        g = TorusGrid(4)
        q = CovarianceSpec.power(g, 1.0)
        simulate(AdditiveHeat(q), SchemeSpec("exact_ou", 1e-4), cos_field(g), n_steps * 1e-4,
                 sampler=NoiseSampler(q, 2))
        assert len(calls) == -(-n_steps // BLOCK_STEPS)
        # each call reads one whole counter block of the stream, in order
        assert [c[3] for c in calls] == list(range(len(calls)))

    @pytest.mark.parametrize("name,kind", [("transport", "heun_stratonovich"),
                                           ("additive", "exact_ou")])
    def test_memory_beyond_the_states_does_not_grow(self, name, kind):
        # K = 64: a draw matrix would cost 2K+1 = 129 floats per step, held
        # twice while it is scaled; the streamed lane holds one block
        import tracemalloc

        g = TorusGrid(64)
        m = stepped_model(name, g)
        simulate(m, SchemeSpec(kind, 1e-7), cos_field(g), 1e-7,
                 sampler=NoiseSampler(noise_spec(m), 1))  # first-call allocations
        extra = {}
        for n_steps in (2_000, 20_000):
            sampler = NoiseSampler(noise_spec(m), 1)
            tracemalloc.start()
            try:
                p = simulate(m, SchemeSpec(kind, 1e-7), cos_field(g), n_steps * 1e-7,
                             sampler=sampler)
                extra[n_steps] = tracemalloc.get_traced_memory()[1] - p.states.nbytes
            finally:
                tracemalloc.stop()
        # the time grid costs a few floats per step; one draw row is 129
        assert extra[20_000] - extra[2_000] < 18_000 * 8 * 8
        assert extra[20_000] < 4 * 2**20

    def test_lane_holds_its_rows_and_one_draw_block(self):
        # K = 64 reaction-diffusion over two blocks: the lane packs each block's
        # noise straight into the rows it steps, and the spent draws go before
        # the next block is drawn.  So the traced peak is the rows, one draw
        # block and small buffers (600 kB here).  With a block-sized buffer of
        # packed increments (266 kB), the spent draws held while the next block
        # was drawn, and numpy's default 128 kB ufunc buffers in pack_draws, it
        # was 1,209 kB.
        import tracemalloc

        g = TorusGrid(64)
        m = ReactionDiffusion(-1.0, 3, CovarianceSpec.power(g, 1.0))
        dt = 1e-5
        run = (m, SchemeSpec("euler_maruyama", dt), cos_field(g), 2 * BLOCK_STEPS * dt)

        def last_rows():
            sampler = NoiseSampler(noise_spec(m), 3)
            return [rows[-1].copy() for _, rows, _ in step_blocks(*run, sampler)]

        first = last_rows()  # first-call allocations
        tracemalloc.start()
        try:
            again = last_rows()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(first) == 2 and np.array_equal(first, again)
        rows = (BLOCK_STEPS + 1) * (g.n_modes + 1) * 16
        draws = BLOCK_STEPS * noise_spec(m).n_channels * 8
        assert peak < rows + draws + 2**17, (peak, rows + draws)


class TestSchemeRelations:
    def test_exp_euler_equals_exact_ou_on_additive_heat(self):
        # same draws: the two schemes share the exact convolution increment
        g = TorusGrid(8)
        q = CovarianceSpec.power(g, 1.0)
        m = AdditiveHeat(q)
        u0 = cos_field(g)
        a = simulate(m, SchemeSpec("exponential_euler", 1e-3), u0, 0.05,
                     sampler=NoiseSampler(q, 21, 0))
        b = simulate(m, SchemeSpec("exact_ou", 1e-3), u0, 0.05,
                     sampler=NoiseSampler(q, 21, 0))
        assert np.array_equal(a.states, b.states)

    def test_em_strong_self_convergence_order_half(self):
        # ensemble strong error vs a dt/64 reference scales like dt^(1/2 +- 0.2)
        g = TorusGrid(8)
        m = TransportHeat(g, (1.0,))
        u0 = cos_field(g)
        T = 0.02
        dt_ref = T / 2**14
        dts = [T / 2**8, T / 2**9, T / 2**10]
        white = CovarianceSpec.white(g)
        n_seeds = 24
        errs = np.zeros(len(dts))
        for seed in range(n_seeds):
            fine = NoiseSampler(white, 3000, seed).draws_block(0, 2**14)
            fine *= np.sqrt(dt_ref)
            ref = simulate(m, SchemeSpec("euler_maruyama", dt_ref), u0, T,
                           MatrixNoise(white, fine))
            for j, dt in enumerate(dts):
                coarse = MatrixNoise(white, coarsen_increments(fine, int(round(dt / dt_ref))))
                p = simulate(m, SchemeSpec("euler_maruyama", dt), u0, T, coarse)
                errs[j] += l2_dist(p.states[-1], ref.states[-1]) ** 2
        rms = np.sqrt(errs / n_seeds)
        slope = np.polyfit(np.log(dts), np.log(rms), 1)[0]
        assert 0.3 <= slope <= 0.7

    def test_transport_second_moment_law_em(self):
        # per mode, E|u_k(t)|^2 = |u_k(0)|^2 exp(-(2-sigma) mu t): the Ito
        # solution's exactly known second moment anchors the scheme
        g = TorusGrid(4)
        sigma = 1.0
        m = TransportHeat(g, (sigma,))
        u0 = cos_field(g)
        T, dt, n = 0.01, 1e-5, 1000
        mu = g.laplacian_eigs[1]
        target = 0.25 * np.exp(-(2 - sigma) * mu * T)
        white = CovarianceSpec.white(g)
        vals = np.empty(n)
        for i in range(n):
            p = simulate(
                m, SchemeSpec("euler_maruyama", dt), u0, T, sampler=NoiseSampler(white, 6000, i)
            )
            vals[i] = abs(p.states[-1, 1]) ** 2
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - target) < 3 * se

    def test_transport_modulus_law_heun(self):
        # the Stratonovich solution is a randomly translated heat profile, so
        # |u_k(t)| is pathwise deterministic: exp(-(1 - sigma/2) mu t) |u_k(0)|
        g = TorusGrid(4)
        sigma = 1.0
        m = TransportHeat(g, (sigma,))
        u0 = cos_field(g)
        T, dt = 0.01, 1e-5
        mu = g.laplacian_eigs[1]
        target = 0.5 * np.exp(-(1 - sigma / 2) * mu * T)
        white = CovarianceSpec.white(g)
        for i in range(5):
            p = simulate(
                m, SchemeSpec("heun_stratonovich", dt), u0, T,
                sampler=NoiseSampler(white, 6100, i),
            )
            assert abs(p.states[-1, 1]) == pytest.approx(target, rel=1e-3)

    def test_heun_and_em_approach_each_other(self):
        # same driving path, refining dt: distance ratio >= 1.7 per 4x refinement
        g = TorusGrid(16)
        m = TransportHeat(g, (1.0,))
        u0 = cos_field(g)
        T = 0.05
        dts = [1e-3, 2.5e-4, 6.25e-5]
        white = CovarianceSpec.white(g)
        n_seeds = 16
        dist = np.zeros(3)
        for seed in range(n_seeds):
            fine = NoiseSampler(white, 4000, seed).draws_block(0, int(T / dts[-1]))
            fine *= np.sqrt(dts[-1])
            for j, dt in enumerate(dts):
                coarse = MatrixNoise(white, coarsen_increments(fine, int(round(dt / dts[-1]))))
                a = simulate(m, SchemeSpec("euler_maruyama", dt), u0, T, coarse)
                b = simulate(m, SchemeSpec("heun_stratonovich", dt), u0, T, coarse)
                dist[j] += l2_dist(a.states[-1], b.states[-1]) ** 2
        rms = np.sqrt(dist / n_seeds)
        assert rms[0] / rms[1] >= 1.7
        assert rms[1] / rms[2] >= 1.7
