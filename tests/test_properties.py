"""Property tests of cheap algebraic invariants (packing, packed channel weights, norms, coarsening, the Duhamel scan)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference import per_channel
from spdekit.burgers import _decay_powers, _semigroup_scan
from spdekit.integrators import ou_gain, ou_tau
from spdekit.models import AdditiveHeat, growth_check
from spdekit.noise import (
    CovarianceSpec,
    coarsen_increments,
    covariance_pairing,
    hs_norm_sq,
    pack_draws,
    trace,
)
from spdekit.spectral import (
    SpectralField,
    TorusGrid,
    derivative,
    h_inner,
    l2_sq_rows,
    laplacian,
    mode_sum,
    sobolev_norm,
)
from spdekit.verify import wiener_covariance_stat

# derandomized and without an example database, so a run is reproducible
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def spec_and_draws(draw):
    """A covariance on a small grid with a (rows, 2K+1) block of channel draws."""
    n_modes = draw(st.integers(1, 12))
    lam = draw(arrays(float, n_modes + 1, elements=st.floats(0.0, 10.0)))
    spec = CovarianceSpec.from_eigenvalues(TorusGrid(n_modes), lam)
    rows = draw(st.integers(1, 5))
    z = draw(arrays(float, (rows, spec.n_channels), elements=finite))
    return spec, z


def field_on(draw, grid):
    parts = arrays(float, grid.n_modes + 1, elements=st.floats(-1e3, 1e3))
    coef = draw(parts) + 1j * draw(parts)
    coef[0] = coef[0].real
    return SpectralField(grid, coef)


@st.composite
def fields(draw):
    return field_on(draw, TorusGrid(draw(st.integers(1, 16))))


@PROPERTY
@given(spec_and_draws())
def test_packed_norm_is_variance_weighted_sum_of_squares(case):
    spec, z = case
    expected = np.sum(per_channel(spec.lam) * z**2, axis=-1)
    got = l2_sq_rows(pack_draws(spec, z))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-300)


@PROPERTY
@given(spec_and_draws(), st.data())
def test_wiener_weights_give_the_packed_l2_pairings(case, data):
    # at s = t = 1 a row's sample is <W, h> <W, g> for the packed W of its draws
    spec, z = case
    h, g = field_on(data.draw, spec.grid), field_on(data.draw, spec.grid)
    stat = wiener_covariance_stat(spec, h, g, 1.0, 1.0)
    got = stat.per_row(np.hstack([z, np.zeros((z.shape[0], stat.cols - spec.n_channels))]))
    packed = pack_draws(spec, z)
    pair = [np.array([h_inner(SpectralField(spec.grid, c), f) for c in packed]) for f in (h, g)]
    # rtol 1e-12 of each pairing, or of its absolute sum where the terms cancel
    bound = [np.abs(p) + mode_sum(np.abs(packed) * np.abs(f.coef)) for p, f in zip(pair, (h, g))]
    assert np.all(np.abs(got - pair[0] * pair[1]) <= 1e-12 * bound[0] * bound[1] + 1e-300)


@PROPERTY
@given(spec_and_draws(), st.data())
def test_half_spectrum_sums_agree_across_modules(case, data):
    spec, _ = case
    f, g = field_on(data.draw, spec.grid), field_on(data.draw, spec.grid)
    close = dict(rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(h_inner(f, f, "l2"), l2_sq_rows(f.coef), **close)
    assert covariance_pairing(CovarianceSpec.white(spec.grid), f, g) == h_inner(f, g)
    var = per_channel(spec.lam)
    np.testing.assert_allclose(trace(spec), var.sum(), **close)
    np.testing.assert_allclose(hs_norm_sq(spec), np.sum(var**2), **close)


@PROPERTY
@given(spec_and_draws(), st.floats(1e-6, 1.0))
def test_ou_gain_carries_the_mode_variance(case, dt):
    spec, _ = case
    mu = spec.grid.laplacian_eigs
    tau = ou_tau(mu, dt)
    assert tau[0] == dt
    # 1 - e^{-x} loses about eps / x here, x = 2 mu dt >= 7.9e-5
    np.testing.assert_allclose(tau[1:], (1.0 - np.exp(-2.0 * mu[1:] * dt)) / (2.0 * mu[1:]), rtol=1e-9)
    # each unit channel, packed at sqrt(dt) with the gain, carries its mode's variance
    units = np.sqrt(dt) * np.eye(spec.n_channels)
    var = l2_sq_rows(pack_draws(spec, units, gain=ou_gain(spec.grid, dt)))
    close = dict(rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(var, per_channel(spec.lam * tau), **close)
    np.testing.assert_allclose(var.sum(), mode_sum(spec.lam * tau), **close)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(fields())
def test_growth_dual_norm_is_the_division_formula(f):
    # the H^-1 norm through l2_sq_rows with weights w^-1, against c_k^2 / w_k per mode
    c, w = laplacian(f).coef, f.grid.sobolev_weights
    divided = np.sqrt(c[0].real ** 2 / w[0] + 2.0 * np.sum(np.abs(c[1:]) ** 2 / w[1:]))
    value = growth_check(AdditiveHeat(CovarianceSpec.white(f.grid)), f).lhs
    assert abs(value - divided) <= 1e-14 * divided


@PROPERTY
@given(fields())
def test_h1_norm_is_l2_plus_derivative_l2(f):
    lhs = sobolev_norm(f, 1.0) ** 2
    rhs = l2_sq_rows(f.coef) + l2_sq_rows(derivative(f).coef)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


@PROPERTY
@given(
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(1, 4),
    st.data(),
)
def test_coarsening_preserves_column_sums(factor, n_coarse, channels, data):
    fine = data.draw(arrays(float, (factor * n_coarse, channels), elements=finite))
    coarse = coarsen_increments(fine, factor)
    assert coarse.shape == (n_coarse, channels)
    np.testing.assert_allclose(coarse.sum(axis=0), fine.sum(axis=0), rtol=1e-12, atol=1e-9)


@PROPERTY
@given(
    st.integers(1, 70),
    st.integers(1, 6),
    st.floats(1e-6, 1e-2),
    st.data(),
)
def test_semigroup_scan_is_the_row_recurrence(n_rows, n_modes, dt, data):
    mu = (2.0 * np.pi * np.arange(n_modes + 1)) ** 2 * data.draw(st.floats(1.0, 1e3))
    decay = np.exp(-mu * dt)
    parts = arrays(float, (n_rows, n_modes + 1), elements=finite)
    x = data.draw(parts) + 1j * data.draw(parts)
    expected = np.empty_like(x)
    expected[0] = x[0]
    for j in range(1, n_rows):
        expected[j] = decay * expected[j - 1] + x[j]
    got = _semigroup_scan(x.copy(), _decay_powers(decay, n_rows))
    # rounding of a sum of n_rows terms, bounded by their absolute sum (and by
    # the spacing of subnormals where products underflow)
    bound = 1e-13 * np.cumsum(np.abs(x), axis=0) + 1e-300
    assert np.all(np.abs(got - expected) <= bound)
