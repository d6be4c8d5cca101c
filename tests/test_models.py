"""Drift/diffusion pairs and the variational hypothesis checkers."""

import numpy as np
import pytest

from conftest import cos_field, make_random_field, sampled_increment, sin_field
from reference import diffusion_apply, increment_from_scaled
from spdekit.models import (
    AdditiveHeat,
    Burgers,
    DriftKernel,
    PorousMedium,
    ReactionDiffusion,
    TransportHeat,
    coercivity_check,
    diffusion_hs_norm_sq,
    drift,
    growth_check,
    monotonicity_check,
    nonlinear_quad_points,
)
from spdekit.noise import CovarianceSpec
from spdekit.spectral import (
    TorusGrid,
    derivative,
    field_from_modes,
    field_from_samples,
    h_inner,
    laplacian,
    lp_norm,
    physical_samples,
    zero_field,
)

TWO_PI = 2.0 * np.pi


def white_inc(grid, seed, dt=0.01):
    return sampled_increment(CovarianceSpec.white(grid), seed, dt)


def unit_channel_increment(grid, dt, delta):
    """Increment whose first scalar channel carries exactly delta."""
    scaled = np.zeros(2 * grid.n_modes + 1)
    scaled[0] = delta
    return increment_from_scaled(CovarianceSpec.white(grid), scaled, dt)


class TestModelSpecs:
    def test_sigma_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TransportHeat(TorusGrid(4), (-1.0,))

    def test_sigma_total(self):
        m = TransportHeat(TorusGrid(4), (0.5, 0.25, 0.25))
        assert m.sigma_total == pytest.approx(1.0)

    def test_exponent_ranges(self):
        q = CovarianceSpec.white(TorusGrid(4))
        with pytest.raises(ValueError, match="m must be >= 3"):
            ReactionDiffusion(-1.0, 2, q)
        with pytest.raises(ValueError, match="m must be >= 2"):
            PorousMedium(1, q)


class TestDrift:
    def test_transport_is_laplacian(self):
        g = TorusGrid(8)
        m = TransportHeat(g, (1.0,))
        u = cos_field(g)
        assert np.allclose(drift(m, u).coef, laplacian(u).coef)
        assert drift(m, u).amp(1) == pytest.approx(-(TWO_PI**2) * 0.5)

    def test_reaction_on_constant(self):
        g = TorusGrid(8)
        m = ReactionDiffusion(-1.0, 4, CovarianceSpec.white(g))
        c = 1.7
        u = field_from_modes(g, [(0, c)])
        out = drift(m, u)
        assert out.amp(0) == pytest.approx(-(c**3), rel=1e-12)
        assert np.max(np.abs(out.coef[1:])) < 1e-12

    def test_porous_medium_linear_case(self, rand_field):
        g = TorusGrid(8)
        m = PorousMedium(2, CovarianceSpec.white(g))
        u = make_random_field(g, 3)
        assert np.allclose(drift(m, u).coef, laplacian(u).coef, atol=1e-14)

    def test_burgers_drift_oracle(self):
        # Lap(sin) + d/dx sin^2 evaluated mode-wise by hand
        g = TorusGrid(8)
        m = Burgers(CovarianceSpec.mean_free_white(g))
        u = sin_field(g)
        out = drift(m, u)
        # sin^2 = 1/2 - cos(4 pi x)/2 -> derivative = 2 pi sin(4 pi x) -> amp(2) = pi/1j
        assert out.amp(1) == pytest.approx(-(TWO_PI**2) * (0.5 / 1j), rel=1e-12)
        assert out.amp(2) == pytest.approx(2 * np.pi * (0.5 / 1j) * 2 / 2, rel=1e-12)

    def test_burgers_drift_alias_free_off_default_grid(self):
        # M = 49 is not 4K: the quadratic needs >= 3K+1 points, not 2K+1
        g = TorusGrid(24, n_points=49)
        m = Burgers(CovarianceSpec.mean_free_white(g))
        assert nonlinear_quad_points(m) >= 3 * g.n_modes + 1
        u = make_random_field(g, 21, decay=0.0)
        square = field_from_samples(g, physical_samples(u, 512) ** 2)
        ref = laplacian(u).coef + derivative(square).coef
        got = drift(m, u).coef
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("name", ["rd_m3", "rd_m5", "pm_m2", "pm_m3", "burgers"])
    def test_kernel_writes_out_with_the_bits_of_a_new_array(self, name):
        # the stepping lanes evaluate the drift into their state rows
        g = TorusGrid(12)
        q = CovarianceSpec.power(g, 1.0)
        m = {"rd_m3": ReactionDiffusion(-1.0, 3, q), "rd_m5": ReactionDiffusion(2.0, 5, q),
             "pm_m2": PorousMedium(2, q), "pm_m3": PorousMedium(3, q), "burgers": Burgers(q)}[name]
        c = make_random_field(g, 5, decay=1.0).coef
        kernel = DriftKernel(m)
        for evaluate in (kernel, kernel.nonlinear):
            want = evaluate(c.copy())
            out = np.full_like(c, np.nan)
            assert evaluate(c, out) is out
            assert out.tobytes() == want.tobytes()
            assert evaluate(c).tobytes() == want.tobytes()  # the kernel's buffers carry nothing

    def test_grid_mismatch(self):
        m = TransportHeat(TorusGrid(8), (1.0,))
        with pytest.raises(ValueError, match="does not match"):
            drift(m, cos_field(TorusGrid(4)))

    def test_linearity_of_linear_models(self, rand_field):
        g = TorusGrid(16)
        for m in (TransportHeat(g, (0.7,)), AdditiveHeat(CovarianceSpec.white(g))):
            u = make_random_field(g, 5)
            w = make_random_field(g, 6)
            a = 1.37
            lhs = drift(m, a * u + w)
            rhs = a * drift(m, u) + drift(m, w)
            assert np.max(np.abs(lhs.coef - rhs.coef)) < 1e-10


class TestDiffusion:
    def test_transport_unit_kick(self):
        g = TorusGrid(8)
        sigma = 0.81
        m = TransportHeat(g, (sigma,))
        u = cos_field(g)
        delta = 0.37
        inc = unit_channel_increment(g, 0.01, delta)
        out = diffusion_apply(m, u, inc)
        target = -np.sqrt(sigma) * TWO_PI * np.sin(TWO_PI * g.points) * delta
        assert np.allclose(physical_samples(out), target, atol=1e-13)

    def test_transport_mean_mode_vanishes(self, rand_field):
        g = TorusGrid(16)
        m = TransportHeat(g, (1.0, 0.5))
        u = make_random_field(g, 9)
        inc = white_inc(g, 2)
        assert drift(m, u).amp(0) == 0.0
        assert diffusion_apply(m, u, inc).amp(0) == 0.0

    def test_additive_ignores_state(self, rand_field):
        g = TorusGrid(8)
        m = AdditiveHeat(CovarianceSpec.white(g))
        u = make_random_field(g, 7)
        inc = white_inc(g, 3)
        a = diffusion_apply(m, u, inc)
        b = diffusion_apply(m, 2.0 * u, inc)
        assert np.array_equal(a.coef, b.coef)
        assert np.array_equal(a.coef, inc.field.coef)

    def test_zero_increment(self):
        g = TorusGrid(8)
        m = TransportHeat(g, (1.0,))
        inc = unit_channel_increment(g, 0.01, 0.0)
        out = diffusion_apply(m, cos_field(g), inc)
        assert np.all(out.coef == 0)

    def test_hs_norm_transport_cosine(self):
        g = TorusGrid(8)
        m = TransportHeat(g, (1.0,))
        assert diffusion_hs_norm_sq(m, cos_field(g)) == pytest.approx(TWO_PI**2 / 2, rel=1e-12)
        assert diffusion_hs_norm_sq(m, zero_field(g)) == 0.0

    def test_hs_norm_additive_is_trace(self):
        g = TorusGrid(1, 3)
        q = CovarianceSpec.from_eigenvalues(g, [1.0, 0.5])
        m = AdditiveHeat(q)
        assert diffusion_hs_norm_sq(m, cos_field(g)) == pytest.approx(2.0)


class TestCoercivity:
    def test_transport_closed_form_example(self):
        g = TorusGrid(8)
        m = TransportHeat(g, (1.0,))
        rep = coercivity_check(m, cos_field(g), 0.5)
        assert rep.lhs == pytest.approx(-(TWO_PI**2) / 4, rel=1e-12)
        assert rep.margin > 0

    def test_transport_closed_form_matches_generic(self, rand_field):
        g = TorusGrid(32)
        m = TransportHeat(g, (0.8, 0.4))
        for seed in range(20):
            u = make_random_field(g, 100 + seed, mean_zero=True)
            rep = coercivity_check(m, u, 0.3)
            assert rep.lhs == pytest.approx(rep.metadata["closed_form"], rel=1e-10)

    def test_transport_supercritical_fails_everywhere(self, rand_field):
        g = TorusGrid(32)
        m = TransportHeat(g, (2.5,))
        for seed in range(20):
            u = make_random_field(g, 200 + seed, mean_zero=True)
            rep = coercivity_check(m, u, 0.1)
            assert rep.margin < 0

    def test_transport_requires_mean_zero(self):
        g = TorusGrid(8)
        m = TransportHeat(g, (1.0,))
        with pytest.raises(ValueError, match="mean-zero"):
            coercivity_check(m, field_from_modes(g, [(0, 1.0)]), 0.1)

    def test_porous_medium_m2_closed_form(self, rand_field):
        g = TorusGrid(16)
        m = PorousMedium(2, CovarianceSpec.from_eigenvalues(g, np.zeros(17)))
        u = make_random_field(g, 33, mean_zero=True)
        rep = coercivity_check(m, u, 0.0)
        assert rep.lhs == pytest.approx(-2.0 * lp_norm(u, 2) ** 2, rel=1e-10)

    def test_additive_bound_is_trace(self):
        g = TorusGrid(8)
        q = CovarianceSpec.power(g, 1.0)
        rep = coercivity_check(AdditiveHeat(q), cos_field(g), 0.1)
        from spdekit.noise import trace

        assert rep.bound == pytest.approx(trace(q))

    def test_burgers_rejected(self):
        g = TorusGrid(8)
        m = Burgers(CovarianceSpec.mean_free_white(g))
        with pytest.raises(ValueError, match="not defined"):
            coercivity_check(m, sin_field(g), 0.1)


class TestMonotonicity:
    def test_identical_arguments(self, rand_field):
        g = TorusGrid(16)
        m = ReactionDiffusion(-1.0, 4, CovarianceSpec.white(g))
        u = make_random_field(g, 41)
        assert monotonicity_check(m, u, u).lhs == 0.0

    def test_focusing_reaction_negative(self):
        g = TorusGrid(8)
        m = ReactionDiffusion(-1.0, 4, CovarianceSpec.white(g))
        for seed in range(100):
            u = make_random_field(g, 500 + seed)
            w = make_random_field(g, 900 + seed)
            assert monotonicity_check(m, u, w).lhs <= 1e-10

    def test_defocusing_violation_exists(self):
        g = TorusGrid(8)
        m = ReactionDiffusion(+1.0, 4, CovarianceSpec.white(g))
        u = cos_field(g, amplitude=50.0)
        rep = monotonicity_check(m, u, zero_field(g))
        assert rep.lhs > 0

    def test_porous_medium_negative(self, rand_field):
        g = TorusGrid(8)
        m = PorousMedium(3, CovarianceSpec.white(g))
        for seed in range(50):
            u = make_random_field(g, 1500 + seed, mean_zero=True)
            w = make_random_field(g, 1900 + seed, mean_zero=True)
            assert monotonicity_check(m, u, w).lhs <= 1e-10

    def test_transport_sign_tracks_sigma(self, rand_field):
        g = TorusGrid(8)
        u = make_random_field(g, 61, mean_zero=True)
        w = make_random_field(g, 67, mean_zero=True)
        assert monotonicity_check(TransportHeat(g, (1.0,)), u, w).lhs <= 0
        assert monotonicity_check(TransportHeat(g, (2.5,)), u, w).lhs >= 0


class TestGrowth:
    def test_zero_field(self):
        g = TorusGrid(8)
        rep = growth_check(TransportHeat(g, (1.0,)), zero_field(g))
        assert rep.lhs == 0.0
        assert rep.metadata["ratio"] == 0.0

    def test_transport_ratio_below_one(self, rand_field):
        g = TorusGrid(16)
        m = TransportHeat(g, (1.0,))
        for seed in range(20):
            u = make_random_field(g, 2500 + seed)
            assert growth_check(m, u).metadata["ratio"] < 1.0

    def test_reaction_ensemble_constant_finite(self, rand_field):
        g = TorusGrid(8)
        m = ReactionDiffusion(-1.0, 4, CovarianceSpec.white(g))
        ratios = [
            growth_check(m, make_random_field(g, 3000 + s)).metadata["ratio"]
            for s in range(50)
        ]
        assert np.isfinite(ratios).all()
        assert max(ratios) < 10.0

    def test_porous_ratio_below_one(self, rand_field):
        g = TorusGrid(8)
        m = PorousMedium(4, CovarianceSpec.white(g))
        u = make_random_field(g, 71)
        assert growth_check(m, u).metadata["ratio"] < 1.0


class TestPorousDuality:
    @pytest.mark.parametrize("m_exp", [2, 3, 4, 5])
    def test_duality_identity(self, m_exp, rand_field):
        g = TorusGrid(16)
        model = PorousMedium(m_exp, CovarianceSpec.white(g))
        quad = nonlinear_quad_points(model)
        for seed in range(10):
            u = make_random_field(g, 4000 + seed, mean_zero=True)
            lhs = h_inner(drift(model, u), u, "h-1")
            rhs = -lp_norm(u, m_exp, quad) ** m_exp
            assert lhs == pytest.approx(rhs, rel=1e-10)
