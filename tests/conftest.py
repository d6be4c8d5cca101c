import numpy as np
import pytest

from reference import increment_from_scaled
from spdekit.integrators import step_blocks
from spdekit.noise import NoiseSampler
from spdekit.spectral import SpectralField, TorusGrid, field_from_modes
from spdekit.verify import PathBalance


def make_random_field(grid, seed, mean_zero=False, decay=2.0, amplitude=1.0):
    """Smooth random band-limited field with |amp(k)| ~ (1+k)^-decay."""
    rng = np.random.default_rng(seed)
    k = np.arange(grid.n_modes + 1, dtype=float)
    coef = (rng.normal(size=k.size) + 1j * rng.normal(size=k.size)) * amplitude
    coef /= (1.0 + k) ** decay
    if mean_zero:
        coef[0] = 0.0
    return SpectralField(grid, coef)


@pytest.fixture
def rand_field():
    return make_random_field


@pytest.fixture
def grid32():
    return TorusGrid(32)


def cos_field(grid, amplitude=1.0, mode=1):
    """amplitude * cos(2 pi mode x)."""
    return field_from_modes(grid, [(mode, amplitude / 2.0)])


def sin_field(grid, amplitude=1.0, mode=1):
    """amplitude * sin(2 pi mode x)."""
    return field_from_modes(grid, [(mode, amplitude / 2j)])


def sampled_increment(spec, seed, dt, stream=0, step=0):
    """The increment of step ``step`` of the noise stream (seed, stream)."""
    sampler = NoiseSampler(spec, seed, stream)
    return increment_from_scaled(spec, sampler.draws_block(step, 1)[0] * np.sqrt(dt), dt)


def stepped_balance(model, scheme, u0, T, sampler=None):
    """The PathBalance of one path, each block folded in as step_blocks yields it."""
    balance = PathBalance(model, scheme.dt, u0)
    for block in step_blocks(model, scheme, u0, T, sampler):
        balance.add(*block)
    return balance
