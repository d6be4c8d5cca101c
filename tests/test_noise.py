"""Covariance arithmetic and Q-Wiener increment sampling."""

import numpy as np
import pytest

from conftest import cos_field, make_random_field, sampled_increment, sin_field
from reference import pack_reference, per_channel
from spdekit import noise
from spdekit.noise import (
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
from spdekit.integrators import ou_tau
from spdekit.spectral import TorusGrid, field_from_modes, l2_sq_rows
from spdekit.verify import brownian_scalar_path


class TestCovarianceSpec:
    def test_white(self):
        spec = CovarianceSpec.white(TorusGrid(8))
        assert np.all(spec.lam == 1.0)
        assert spec.n_channels == 17

    def test_power(self):
        spec = CovarianceSpec.power(TorusGrid(4), 1.0)
        assert spec.lam[0] == 1.0
        assert spec.lam[2] == pytest.approx(1.0 / 5.0)

    def test_mean_free_white(self):
        spec = CovarianceSpec.mean_free_white(TorusGrid(4))
        assert spec.lam[0] == 0.0
        assert trace(spec) == pytest.approx(8.0)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CovarianceSpec.from_eigenvalues(TorusGrid(2), [1.0, -0.1, 0.0])

    def test_channel_variances_layout(self):
        # channel 0 is the constant mode, channels 2k-1 and 2k the pair of mode k
        spec = CovarianceSpec.from_eigenvalues(TorusGrid(2), [3.0, 2.0, 1.0])
        units = pack_draws(spec, np.eye(spec.n_channels))
        assert np.allclose(l2_sq_rows(units), [3.0, 2.0, 2.0, 1.0, 1.0])
        assert np.array_equal(np.flatnonzero(units[:, 2]), [3, 4])


class TestTraceArithmetic:
    def test_finite_sum(self):
        spec = CovarianceSpec.from_eigenvalues(TorusGrid(2, 5), [1.0, 0.5, 0.25])
        assert trace(spec) == pytest.approx(1.0 + 2 * 0.5 + 2 * 0.25)
        assert hs_norm_sq(spec) == pytest.approx(1.0 + 2 * 0.25 + 2 * 0.0625)

    def test_basel_partial_sum_oracle(self):
        # independent oracle: partial sums of 1/k^2 approach pi^2/6
        n = 1000
        partial = np.sum(1.0 / np.arange(1.0, n + 1) ** 2)
        assert partial == pytest.approx(np.pi**2 / 6.0, abs=1e-3)
        lam = np.zeros(n + 1)
        lam[1:] = 1.0 / np.arange(1.0, n + 1) ** 2
        spec = CovarianceSpec.from_eigenvalues(TorusGrid(n, 2 * n + 1), lam)
        # the +-k pairing doubles each listed eigenvalue
        assert trace(spec) == pytest.approx(2.0 * partial, rel=1e-12)

    def test_zero_operator(self):
        spec = CovarianceSpec.from_eigenvalues(TorusGrid(3), np.zeros(4))
        assert trace(spec) == 0.0
        assert hs_norm_sq(spec) == 0.0

    def test_white_requires_acknowledgement(self):
        spec = CovarianceSpec.white(TorusGrid(4))
        with pytest.raises(ValueError, match="not trace class"):
            trace(spec)
        assert trace(spec, truncated_ok=True) == pytest.approx(9.0)
        with pytest.raises(ValueError, match="not Hilbert-Schmidt"):
            hs_norm_sq(spec)
        assert hs_norm_sq(spec, truncated_ok=True) == pytest.approx(9.0)


class TestCovariancePairing:
    def test_white_cosine(self):
        g = TorusGrid(4)
        spec = CovarianceSpec.white(g)
        f = cos_field(g)
        assert covariance_pairing(spec, f, f) == pytest.approx(0.5)

    def test_weighted_pair(self):
        g = TorusGrid(4)
        spec = CovarianceSpec.from_eigenvalues(g, [0.0, 2.0, 0.0, 0.0, 0.0])
        f = cos_field(g)
        assert covariance_pairing(spec, f, f) == pytest.approx(1.0)

    def test_orthogonal_modes(self):
        g = TorusGrid(4)
        spec = CovarianceSpec.white(g)
        f = field_from_modes(g, [(1, 0.5)])
        h = field_from_modes(g, [(2, 0.5)])
        assert covariance_pairing(spec, f, h) == 0.0

    def test_grid_mismatch(self):
        spec = CovarianceSpec.white(TorusGrid(4))
        f = cos_field(TorusGrid(8))
        with pytest.raises(ValueError, match="share one grid"):
            covariance_pairing(spec, f, f)


class TestSampling:
    def test_zero_spectrum_gives_zero_field(self):
        spec = CovarianceSpec.from_eigenvalues(TorusGrid(4), np.zeros(5))
        inc = sampled_increment(spec, 1, 0.1)
        assert np.all(inc.field.coef == 0)
        assert np.any(inc.per_mode != 0)  # draws are made, the operator kills them

    def test_hermitian_and_mean_real(self):
        spec = CovarianceSpec.white(TorusGrid(8))
        inc = sampled_increment(spec, 5, 0.01)
        assert inc.field.coef[0].imag == 0.0

    def test_reproducibility_and_stream_independence(self):
        spec = CovarianceSpec.white(TorusGrid(4))
        a = NoiseSampler(spec, 7, 3).draws_block(0, 600)
        b = NoiseSampler(spec, 7, 3).draws_block(0, 600)
        assert np.array_equal(a, b)
        c = NoiseSampler(spec, 7, 4).draws_block(0, 600)
        n = a.size
        corr = np.corrcoef(a.ravel(), c.ravel())[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(n)

    def test_block_matches_per_step_across_chunks(self):
        spec = CovarianceSpec.white(TorusGrid(3))
        s = NoiseSampler(spec, 11, 2)
        block = s.draws_block(250, 20)  # spans the 256-row chunk boundary
        fresh = NoiseSampler(spec, 11, 2)
        rows = np.concatenate([fresh.draws_block(250 + i, 1) for i in range(20)])
        assert np.array_equal(block, rows)

    def test_gaussian_moments(self):
        spec = CovarianceSpec.white(TorusGrid(2))
        z = NoiseSampler(spec, 17).draws_block(0, 4000).ravel()
        n = z.size
        skew = np.mean(z**3)
        kurt = np.mean(z**4) - 3.0
        assert abs(skew) < 3.0 * np.sqrt(6.0 / n)
        assert abs(kurt) < 3.0 * np.sqrt(24.0 / n)

    def test_mode_variance_and_brownian_scaling(self):
        g = TorusGrid(4)
        lam = np.array([1.0, 0.8, 0.6, 0.4, 0.2])
        spec = CovarianceSpec.from_eigenvalues(g, lam)
        n = 10_000
        sampler = NoiseSampler(spec, 23)
        dt = 0.01
        z = sampler.draws_block(0, n)
        from spdekit.noise import pack_draws

        for scale in (1.0, 4.0):
            coef = pack_draws(spec, z * np.sqrt(scale * dt))
            for k in range(5):
                samples = coef[:, k].real ** 2 if k == 0 else np.abs(coef[:, k]) ** 2
                target = lam[k] * scale * dt
                se = np.std(samples, ddof=1) / np.sqrt(n)
                assert abs(np.mean(samples) - target) < 3 * se

    def test_distinct_modes_uncorrelated(self):
        # E <dW, e_k> conj(<dW, e_l>) = 0 for k != l, and the cosine/sine
        # channels of one pair stay independent (real packing does not
        # correlate distinct test functions)
        g = TorusGrid(6)
        spec = CovarianceSpec.white(g)
        n, dt = 20_000, 0.05
        from spdekit.noise import pack_draws

        coef = pack_draws(spec, NoiseSampler(spec, 43).draws_block(0, n) * np.sqrt(dt))
        for k, l in ((1, 2), (0, 3), (2, 5)):
            cross = np.mean(coef[:, k] * np.conj(coef[:, l]))
            # each factor has std sqrt(lambda dt); the cross moment must
            # vanish within 3 MC standard errors
            se = dt / np.sqrt(n)
            assert abs(cross.real) < 3 * se and abs(cross.imag) < 3 * se
        re_im = np.mean(coef[:, 2].real * coef[:, 2].imag)
        assert abs(re_im) < 3 * (dt / 2) / np.sqrt(n)

    def test_field_second_moment_is_truncated_trace(self):
        g = TorusGrid(8)
        spec = CovarianceSpec.white(g)
        n, dt = 20_000, 0.05
        sampler = NoiseSampler(spec, 29)
        from spdekit.noise import pack_draws

        coef = pack_draws(spec, sampler.draws_block(0, n) * np.sqrt(dt))
        norms = coef[:, 0].real ** 2 + 2 * np.sum(np.abs(coef[:, 1:]) ** 2, axis=1)
        target = (2 * g.n_modes + 1) * dt
        se = np.std(norms, ddof=1) / np.sqrt(n)
        assert abs(np.mean(norms) - target) < 3 * se

    def test_coarsen_increments(self):
        spec = CovarianceSpec.white(TorusGrid(2))
        fine = NoiseSampler(spec, 31).draws_block(0, 12) * np.sqrt(0.25)
        coarse = coarsen_increments(fine, 4)
        assert coarse.shape == (3, 5)
        assert np.allclose(coarse[0], fine[:4].sum(axis=0))
        with pytest.raises(ValueError, match="group"):
            coarsen_increments(fine, 5)

    @pytest.mark.parametrize(
        "kind", ["white", "power", "mean_free_white", "zero_modes", "from_eigenvalues"]
    )
    def test_pack_draws_has_the_bits_of_the_reference(self, kind):
        # products formed in the output buffer, in the reference's order: equal
        # bits, signed zeros of zero-variance modes included; with a per-mode
        # gain (the exact-OU rescale), the bits of packing the rescaled draws
        g = TorusGrid(6)
        spec = {
            "white": lambda: CovarianceSpec.white(g),
            "power": lambda: CovarianceSpec.power(g, 1.5),
            "mean_free_white": lambda: CovarianceSpec.mean_free_white(g),
            "zero_modes": lambda: CovarianceSpec.from_eigenvalues(g, [0, 1, 0, 2, 0, 0, 0.5]),
            "from_eigenvalues": lambda: CovarianceSpec.from_eigenvalues(g, np.linspace(2, 0.1, 7)),
        }[kind]()
        z = NoiseSampler(spec, 41, 2).draws_block(0, 300) * np.sqrt(1e-3)
        z[:3] = np.array([[-0.0], [0.0], [-1.0]])  # signed zeros and a negative row
        ref = pack_reference(spec, z)
        gain = np.sqrt(ou_tau(g.laplacian_eigs, 1e-3) / 1e-3)
        gained = pack_reference(spec, z * per_channel(gain))
        out = np.full(ref.shape, np.nan, dtype=np.complex128)
        for got, want in (
            (pack_draws(spec, z), ref),
            (pack_draws(spec, z, out=out), ref),
            (pack_draws(spec, z[7]), ref[7]),
            (pack_draws(spec, z, gain=gain), gained),
            (pack_draws(spec, z[7], gain=gain), gained[7]),
        ):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
            assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
        assert np.array_equal(out, ref)
        if spec.lam[0] == 0.0:  # the mean of a negative draw is -0.0, as in the reference
            assert np.signbit(out[2, 0].real)

    def test_scalar_increments_bounds(self):
        spec = CovarianceSpec.white(TorusGrid(2))
        inc = sampled_increment(spec, 37, 0.1)
        assert inc.scalar_increments(3).shape == (3,)
        with pytest.raises(ValueError, match="channels requested"):
            inc.scalar_increments(99)


class TestRandomnessContract:
    # every normal is read from the Philox stream keyed (seed, stream) at
    # counter [0, 0, 0, chunk]; a path's step s is row s mod 256 of chunk s // 256

    @staticmethod
    def philox_normals(seed, stream, chunk, shape):
        bitgen = np.random.Philox(
            key=np.array([seed, stream], dtype=np.uint64),
            counter=np.array([0, 0, 0, chunk], dtype=np.uint64),
        )
        return np.random.Generator(bitgen).standard_normal(shape)

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    @pytest.mark.parametrize("stream", [0, 7, 2**40])
    @pytest.mark.parametrize("modes", [0, 3, 32])
    def test_draws_block_rows_are_counter_blocks(self, seed, stream, modes):
        spec = CovarianceSpec.white(TorusGrid(modes))
        sampler = NoiseSampler(spec, seed, stream)
        width = spec.n_channels
        chunks = np.concatenate(
            [self.philox_normals(seed, stream, c, (256, width)) for c in range(3)]
        )
        for step0, n_steps in ((0, 0), (0, 256), (250, 20), (255, 1), (256, 300), (511, 257)):
            block = sampler.draws_block(step0, n_steps)
            assert block.shape == (n_steps, width)
            assert np.array_equal(block, chunks[step0 : step0 + n_steps])

    @pytest.mark.parametrize("modes", [0, 5])
    def test_requests_are_slices_of_stream_normals_blocks(self, monkeypatch, modes):
        # aligned, prefix and unaligned requests read the leading rows of a
        # counter block: only rows up to the last one read are drawn, and a
        # request inside one block is a view of what was drawn
        spec = CovarianceSpec.white(TorusGrid(modes))
        width = spec.n_channels
        blocks = [
            stream_normals(9, [4], BLOCK_STEPS * width, chunk).reshape(BLOCK_STEPS, width)
            for chunk in range(3)
        ]
        full = np.concatenate(blocks)
        drawn = []

        def recording(seed, streams, cols, chunk=0):
            drawn.append((chunk, cols, stream_normals(seed, streams, cols, chunk)))
            return drawn[-1][2]

        monkeypatch.setattr(noise, "stream_normals", recording)
        sampler = NoiseSampler(spec, 9, 4)
        cases = [  # (step0, n_steps), then (chunk, rows drawn) per block drawn
            ((0, 256), [(0, 256)]),  # aligned: one whole block
            ((256, 100), [(1, 100)]),  # prefix: the leading rows of a block
            ((300, 50), [(1, 94)]),  # unaligned, inside one block
            ((250, 20), [(0, 256), (1, 14)]),  # across a block boundary
            ((100, 600), [(0, 256), (1, 256), (2, 188)]),
        ]
        for (step0, n_steps), want in cases:
            drawn.clear()
            got = sampler.draws_block(step0, n_steps)
            assert np.array_equal(got, full[step0 : step0 + n_steps])
            assert [(c, cols // width) for c, cols, _ in drawn] == want
            chunk, lo = divmod(step0, BLOCK_STEPS)
            if lo + n_steps <= BLOCK_STEPS:
                assert np.array_equal(got, blocks[chunk][lo : lo + n_steps])
                assert np.shares_memory(got, drawn[0][2])

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("chunk", [0, 4, 2**64 - 1])
    def test_stream_normals_rows_are_keyed_streams(self, seed, chunk):
        # one generator is re-keyed per row: every key word and counter word
        # over the whole uint64 range, a stream repeated out of order
        streams = [3, 2**64 - 1, 0, 2**40, 3, 0]
        rows = stream_normals(seed, streams, 10, chunk=chunk)
        for row, stream in zip(rows, streams):
            assert np.array_equal(row, self.philox_normals(seed, stream, chunk, 10))
        assert stream_normals(1, [], 5).shape == (0, 5)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_brownian_scalar_path_is_a_stream_cumsum(self, seed):
        n, t = 1000, 0.7
        path = brownian_scalar_path(seed, n, t, stream_id=2**40)
        inc = self.philox_normals(seed, 2**40, 0, n) * np.sqrt(t / n)
        assert path[0] == 0.0
        assert np.array_equal(path[1:], np.cumsum(inc))
        assert np.array_equal(stream_normals(seed, [2**40], n)[0] * np.sqrt(t / n), inc)
