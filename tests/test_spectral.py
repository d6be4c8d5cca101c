"""Field representation, multiplier operators, norms and their identities."""

import numpy as np
import pytest

from conftest import cos_field, make_random_field, sin_field
from spdekit.spectral import (
    SpectralField,
    TorusGrid,
    dealias,
    derivative,
    field_from_modes,
    field_from_samples,
    h_inner,
    halpha_rows,
    heat_semigroup,
    l2_sq_rows,
    laplacian,
    lp_norm,
    lp_rows,
    mode_sum,
    physical_samples,
    sobolev_norm,
    zero_field,
)
from spdekit.spectral import _LP_FLOOR, _lp_of_squares

TWO_PI = 2.0 * np.pi


class TestTorusGrid:
    def test_defaults_and_invariant(self):
        g = TorusGrid(16)
        assert g.n_points == 64
        assert g.n_points >= 2 * g.n_modes + 1

    def test_rejects_aliasing_grid(self):
        with pytest.raises(ValueError, match="alias"):
            TorusGrid(16, 32)

    def test_degenerate_constant_grid(self):
        g = TorusGrid(0, 1)
        f = field_from_modes(g, [(0, 2.0)])
        assert lp_norm(f, 2, 1) == pytest.approx(2.0)

    def test_points(self):
        g = TorusGrid(3, 8)
        assert np.allclose(g.points, np.arange(8) / 8.0)


class TestFieldConstruction:
    def test_constant_mode_unit_norm(self):
        g = TorusGrid(4)
        f = field_from_modes(g, [(0, 1.0)])
        assert lp_norm(f, 2) == pytest.approx(1.0)

    def test_single_pair_is_cosine(self):
        g = TorusGrid(4)
        f = field_from_modes(g, [(1, 0.5)])
        assert lp_norm(f, 2) == pytest.approx(1.0 / np.sqrt(2.0))
        x = g.points
        assert np.allclose(physical_samples(f), np.cos(TWO_PI * x), atol=1e-14)

    def test_empty_is_zero(self):
        g = TorusGrid(4)
        f = field_from_modes(g, [])
        assert lp_norm(f, 2) == 0.0
        assert sobolev_norm(f, 1.0) == 0.0

    def test_negative_entry_fills_mirror(self):
        g = TorusGrid(4)
        f = field_from_modes(g, [(-2, 1.0 - 0.5j)])
        assert f.amp(2) == pytest.approx(1.0 + 0.5j)
        assert f.amp(-2) == pytest.approx(1.0 - 0.5j)

    def test_mode_out_of_range(self):
        g = TorusGrid(4)
        with pytest.raises(ValueError, match="outside truncation"):
            field_from_modes(g, [(5, 1.0)])

    def test_conflicting_pair(self):
        g = TorusGrid(4)
        with pytest.raises(ValueError, match="conjugate pair"):
            field_from_modes(g, [(1, 1.0 + 1.0j), (-1, 1.0 + 1.0j)])

    def test_consistent_pair_accepted(self):
        g = TorusGrid(4)
        f = field_from_modes(g, [(1, 1.0 + 1.0j), (-1, 1.0 - 1.0j)])
        assert f.amp(1) == pytest.approx(1.0 + 1.0j)

    def test_imaginary_mean_rejected(self):
        g = TorusGrid(4)
        with pytest.raises(ValueError, match="zero imaginary"):
            field_from_modes(g, [(0, 1.0j)])


class TestTransformRoundtrip:
    def test_cosine_samples_and_roundtrip(self):
        g = TorusGrid(3, 8)
        f = cos_field(g)
        samples = physical_samples(f)
        assert np.allclose(samples, np.cos(TWO_PI * np.arange(8) / 8), atol=1e-13)
        back = field_from_samples(g, samples)
        assert np.max(np.abs(back.coef - f.coef)) < 1e-12

    def test_pointwise_square_of_cosine(self):
        g = TorusGrid(3, 8)
        f = cos_field(g)
        sq = field_from_samples(g, physical_samples(f) ** 2)
        assert sq.amp(0) == pytest.approx(0.5, abs=1e-14)
        assert sq.amp(2) == pytest.approx(0.25, abs=1e-14)
        assert sq.amp(1) == pytest.approx(0.0, abs=1e-14)

    def test_zero_samples(self):
        g = TorusGrid(3, 8)
        f = field_from_samples(g, np.zeros(8))
        assert np.all(f.coef == 0)

    def test_random_roundtrip(self, rand_field):
        g = TorusGrid(21, 43)
        f = make_random_field(g, 7)
        back = field_from_samples(g, physical_samples(f))
        assert np.max(np.abs(back.coef - f.coef)) < 1e-12


class TestMultiplierOperators:
    def test_laplacian_eigenfunction(self):
        g = TorusGrid(4)
        f = field_from_modes(g, [(1, 1.0)])
        assert laplacian(f).amp(1) == pytest.approx(-((TWO_PI) ** 2))

    def test_derivative_of_cosine_is_minus_sine(self):
        g = TorusGrid(4)
        df = derivative(cos_field(g))
        target = -TWO_PI * np.sin(TWO_PI * g.points)
        assert np.allclose(physical_samples(df), target, atol=1e-13)

    def test_heat_identity_at_zero(self, rand_field):
        g = TorusGrid(8)
        f = make_random_field(g, 3)
        assert np.array_equal(heat_semigroup(f, 0.0).coef, f.coef)

    def test_heat_factor_mode_two(self):
        g = TorusGrid(4)
        f = field_from_modes(g, [(2, 1.0)])
        factor = heat_semigroup(f, 0.01).amp(2).real
        assert factor == pytest.approx(np.exp(-((4 * np.pi) ** 2) * 0.01), rel=1e-12)

    def test_negative_time_rejected(self):
        g = TorusGrid(4)
        with pytest.raises(ValueError, match="t >= 0"):
            heat_semigroup(zero_field(g), -0.1)

    def test_semigroup_property(self, rand_field):
        g = TorusGrid(16)
        f = make_random_field(g, 5)
        a = heat_semigroup(heat_semigroup(f, 0.003), 0.007)
        b = heat_semigroup(f, 0.010)
        assert np.max(np.abs(a.coef - b.coef)) < 1e-12

    def test_smoothing_estimate_bounded(self):
        # rough field amp(k) = 1 for all modes: H^1 norm after time t,
        # weighted by t^{(beta-alpha)/2} with beta=1, alpha=-1, stays bounded
        g = TorusGrid(256)
        f = SpectralField(g, np.ones(257, dtype=np.complex128))
        h_minus1 = sobolev_norm(f, -1.0)
        ladder = [2.0**-e for e in range(0, 17)]
        vals = [sobolev_norm(heat_semigroup(f, t), 1.0) * t for t in ladder]
        assert max(vals) < 2.0 * h_minus1


class TestNorms:
    def test_sobolev_constant(self):
        g = TorusGrid(4)
        f = field_from_modes(g, [(0, 1.0)])
        for alpha in (-2.0, 0.0, 1.5):
            assert sobolev_norm(f, alpha) == pytest.approx(1.0)

    def test_sobolev_cosine_h1(self):
        g = TorusGrid(4)
        val = sobolev_norm(cos_field(g), 1.0)
        assert val == pytest.approx(np.sqrt((1 + TWO_PI**2) * 0.5), rel=1e-12)

    def test_sobolev_alpha_zero_is_l2(self, rand_field):
        g = TorusGrid(16)
        f = make_random_field(g, 11)
        assert sobolev_norm(f, 0.0) == pytest.approx(lp_norm(f, 2), rel=1e-10)

    def test_lp_constant(self):
        g = TorusGrid(4)
        f = field_from_modes(g, [(0, 1.0)])
        for p in (1.0, 2.0, 3.5, 6.0):
            assert lp_norm(f, p) == pytest.approx(1.0)

    def test_lp_cosine_parseval(self):
        g = TorusGrid(4)
        assert lp_norm(cos_field(g), 2) == pytest.approx(1 / np.sqrt(2), rel=1e-12)

    def test_lp_cosine_fourth_power(self):
        # independent oracle: fine rectangle quadrature of cos^4
        x = np.arange(20001) / 20001
        oracle = np.mean(np.cos(TWO_PI * x) ** 4) ** 0.25
        g = TorusGrid(4)
        assert lp_norm(cos_field(g), 4) == pytest.approx(oracle, rel=1e-8)
        assert lp_norm(cos_field(g), 4) == pytest.approx((3.0 / 8.0) ** 0.25, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [32.0, 64.0])
    @pytest.mark.parametrize("c", [1e-20, 1e20])
    def test_lp_is_homogeneous_where_powers_under_or_overflow(self, c, p):
        # |c u|^p is below the smallest or above the largest double here
        g = TorusGrid(16)
        f = make_random_field(g, 5)
        assert lp_norm(f.with_coef(c * f.coef), p) / c == pytest.approx(lp_norm(f, p), rel=1e-14)
        assert lp_norm(f.with_coef(0 * f.coef), p) == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, 7.0, 64.0, 400.0])
    def test_lp_row_sum_prescreen_is_the_exact_max_formula(self, p):
        # the row sum settles most rows without their max; each norm must be
        # bit for bit the formula that takes every row's exact max
        def exact(sq):
            m_sq = np.max(sq, axis=-1)
            with np.errstate(over="ignore", under="ignore"):
                top = m_sq ** (p / 2)
                scaled = ((top < _LP_FLOOR) | np.isinf(top)) & (m_sq > 0) & np.isfinite(m_sq)
                np.divide(sq, m_sq[..., None], out=sq, where=scaled[..., None])
                sq **= p / 2
                norms = np.mean(sq, axis=-1) ** (1.0 / p)
            return np.multiply(norms, np.sqrt(m_sq), out=norms, where=scaled)

        rng = np.random.default_rng(17)
        with np.errstate(over="ignore", under="ignore"):
            # row sums across the double range, and at the prescreen's two bounds
            edges = [_LP_FLOOR ** (2.0 / p), np.finfo(float).max ** (2.0 / p)]
            sums = [*10.0 ** np.arange(-320.0, 309.0, 7.3), *np.outer(edges, [0.3, 1, 3]).flat]
            for total in filter(lambda x: 0 < x < np.inf, sums):
                sq = rng.standard_normal((6, 64)) ** 2
                sq[1, 1:] = 0.0  # the max is the sum
                sq[2] = 1.0  # the max is the sum over n
                sq /= sq.sum(axis=-1, keepdims=True)
                sq *= total
                sq[3] = 0.0
                sq[4, 5], sq[5, 3] = np.inf, np.nan
                ref = exact(sq.copy())
                assert _lp_of_squares(sq, p).tobytes() == ref.tobytes(), total

    def test_lp_rejects_small_p(self):
        g = TorusGrid(4)
        with pytest.raises(ValueError, match="p >= 1"):
            lp_norm(cos_field(g), 0.5)

    def test_parseval_random(self, rand_field):
        g = TorusGrid(24)
        f = make_random_field(g, 13)
        assert lp_norm(f, 2, g.n_points) == pytest.approx(sobolev_norm(f, 0.0), rel=1e-10)

    def test_h1_norm_identity(self, rand_field):
        g = TorusGrid(24)
        f = make_random_field(g, 17)
        lhs = sobolev_norm(f, 1.0) ** 2
        rhs = lp_norm(f, 2) ** 2 + lp_norm(derivative(f), 2) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)


    @pytest.mark.parametrize("weighted", [False, True])
    def test_l2_sq_rows_in_row_chunks_is_bitwise(self, weighted):
        # 2001 rows: seven chunks of 256 rows and a short one, against the
        # squares of the whole batch at once and against each row alone
        g = TorusGrid(16)
        rng = np.random.default_rng(3)
        coef = rng.normal(size=(2001, 17)) + 1j * rng.normal(size=(2001, 17))
        w = g.sobolev_weights**0.7 if weighted else None
        sq = np.abs(coef) ** 2
        sq[:, 0] = coef[:, 0].real ** 2
        whole = mode_sum(sq if w is None else sq * w)
        got = l2_sq_rows(coef, w)
        assert np.array_equal(got, whole)
        assert np.array_equal(got, [l2_sq_rows(row, w) for row in coef])

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 4.0, 6.0])
    def test_norms_are_one_row_of_the_row_kernels(self, p):
        # lp_norm and sobolev_norm are the row kernels on one row, bit for
        # bit; lp_norm stays within one ulp of mean(|u|^p)^(1/p)
        g = TorusGrid(16)
        fields = [make_random_field(g, seed) for seed in range(40)]
        coef = np.array([f.coef for f in fields])
        for n in (None, 33, 128):
            rows = lp_rows(coef, p, n or g.n_points)
            got = np.array([lp_norm(f, p, n) for f in fields])
            assert np.array_equal(got, rows)
            direct = [np.mean(np.abs(physical_samples(f, n)) ** p) ** (1 / p) for f in fields]
            np.testing.assert_array_max_ulp(got, np.array(direct), maxulp=1)
        for alpha in (-1.0, 0.0, 0.7, 1.0):
            got = np.array([sobolev_norm(f, alpha) for f in fields])
            assert np.array_equal(got, halpha_rows(coef, g, alpha))


class TestInnerProducts:
    def test_cos_cos_l2(self):
        g = TorusGrid(4)
        f = cos_field(g)
        assert h_inner(f, f, "l2") == pytest.approx(0.5)

    def test_cos_cos_hminus1(self):
        g = TorusGrid(4)
        f = cos_field(g)
        assert h_inner(f, f, "h-1") == pytest.approx(1.0 / (2 * TWO_PI**2), rel=1e-12)

    def test_cos_sin_orthogonal(self):
        g = TorusGrid(4)
        assert h_inner(cos_field(g), sin_field(g), "l2") == pytest.approx(0.0, abs=1e-15)

    def test_mean_constraint(self):
        g = TorusGrid(4)
        f = field_from_modes(g, [(0, 1.0)])
        with pytest.raises(ValueError, match="mean-zero"):
            h_inner(f, f, "h-1")

    def test_duality_inverse_laplacian(self, rand_field):
        # <-Lap u, v>_{H^-1} = <u, v>_{L^2} for mean-zero band-limited u, v
        g = TorusGrid(24)
        u = make_random_field(g, 19, mean_zero=True)
        v = make_random_field(g, 23, mean_zero=True)
        lhs = h_inner(-1.0 * laplacian(u), v, "h-1")
        rhs = h_inner(u, v, "l2")
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_unknown_space(self):
        g = TorusGrid(4)
        with pytest.raises(ValueError, match="unknown space"):
            h_inner(cos_field(g), cos_field(g), "h2")


class TestDealias:
    def test_identity_at_one(self, rand_field):
        g = TorusGrid(12)
        f = make_random_field(g, 29)
        assert np.array_equal(dealias(f, 1.0).coef, f.coef)

    def test_two_thirds_rule(self):
        g = TorusGrid(3)
        f = field_from_modes(g, [(1, 1.0), (3, 1.0)])
        cut = dealias(f, 2.0 / 3.0)
        assert cut.amp(1) == pytest.approx(1.0)
        assert cut.amp(3) == 0.0

    def test_zero_field(self):
        g = TorusGrid(6)
        assert np.all(dealias(zero_field(g), 0.5).coef == 0)


class TestFieldArithmetic:
    def test_vector_space_ops(self, rand_field):
        g = TorusGrid(8)
        f = make_random_field(g, 1)
        h = make_random_field(g, 2)
        combo = 2.0 * f + h - f
        assert np.allclose(combo.coef, f.coef + h.coef)

    def test_grid_mismatch(self):
        f = cos_field(TorusGrid(4))
        h = cos_field(TorusGrid(8))
        with pytest.raises(ValueError, match="grid mismatch"):
            f + h

    def test_amp_accessor_hermitian(self, rand_field):
        g = TorusGrid(8)
        f = make_random_field(g, 31)
        for k in range(1, 9):
            assert f.amp(-k) == pytest.approx(np.conj(f.amp(k)))

    def test_physical_samples_rejects_aliasing(self):
        g = TorusGrid(8)
        with pytest.raises(ValueError, match="alias"):
            physical_samples(cos_field(g), 10)
        with pytest.raises(ValueError, match="alias"):
            lp_norm(cos_field(g), 2, 10)
