"""Fault matrix: one named fault in one package function, and ``spdekit verify`` must fail.

Each row replaces one function (everywhere a spdekit module holds it) by a
faulty version and runs ``cli.main(["verify", ...])`` on a small config.
A caught fault exits 1 with the row that caught it marked failed; the same
config without a fault exits 0.  A fault that no check catches yet is a
strict xfail whose reason names the check that would catch it.
"""

import csv
import sys

import numpy as np
import pytest

from spdekit import cli, integrators, noise
from spdekit.noise import BLOCK_STEPS, NoiseSampler

# additive heat driven through the exact-OU lane: the five Monte Carlo checks
ADDITIVE = """
[model]
kind = additive_heat
[grid]
modes = 16
[scheme]
kind = exact_ou
dt = 1e-3
[noise]
kind = white
[experiment]
t = 0.1
ou_modes = 0, 1, 8
n_paths = 400
base_seed = 0
checks = ito_isometry, trace_identity, wiener_covariance, gaussian_moment, ou_exactness
[output]
prefix = faults
"""

# the transport equation on the Heun lane: {checks} over more than one counter block
TRANSPORT = """
[model]
kind = transport_heat
sigma = 1.0
[grid]
modes = 16
[scheme]
kind = heun_stratonovich
dt = 1e-5
[noise]
kind = white
[experiment]
t = 0.006
u0 = cos
n_paths = {n_paths}
base_seed = 11
checks = {checks}
[output]
prefix = faults
"""

CONFIGS = {
    "additive_mc": ADDITIVE,
    "transport_mc": TRANSPORT.format(n_paths=50, checks="trace_identity, gaussian_moment"),
    "transport_pathwise": TRANSPORT.format(
        n_paths=2, checks="mass_conservation, energy_identity, gronwall"
    ),
}


def inject(monkeypatch, owner, name, fault):
    """Replace ``owner.name`` by ``fault(original)`` in every spdekit module that holds it."""
    real = getattr(owner, name)
    fake = fault(real)
    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, fake)
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("spdekit") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, fake)


def pack_without_half(real):
    """(a) pack_draws without its 1/sqrt(2) on modes k >= 1: their variance doubles."""

    def fake(spec, scaled, out=None, gain=None):
        out = real(spec, scaled, out, gain)
        out[..., 1:] *= np.sqrt(2.0)
        return out

    return fake


def tau_at_half_rate(real):
    """(b) ou_tau with its decay rate halved."""
    return lambda mu, t: real(mu / 2.0, t)


def block_zero_always(real):
    """(c) NoiseSampler.draws_block reading counter block 0 for every block."""
    return lambda self, step0, n_steps: real(self, step0 % BLOCK_STEPS, n_steps)


def heun_without_correction(real):
    """(d) the Heun transport factor without its sigma/2 drift correction."""

    def fake(model, kind, scaled, dt, out):
        real(model, kind, scaled, dt, out)
        if kind == "heun_stratonovich":
            re = out.real
            re -= 0.5 * model.sigma_total * model.grid.laplacian_eigs * dt

    return fake


def run_verify(tmp_path, config):
    path = tmp_path / "c.ini"
    path.write_text(CONFIGS[config])
    code = cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    with open(tmp_path / "o" / "faults_reports.csv", newline="") as fh:
        failed = [row["name"] for row in csv.DictReader(fh) if row["pass"] == "false"]
    return code, failed


@pytest.mark.parametrize("config", CONFIGS)
def test_no_fault_passes(tmp_path, config):
    assert run_verify(tmp_path, config) == (0, [])


C_REASON = (
    "ROADMAP item 13: no check reads the independence of increments across counter "
    "blocks until the adapted Ito isometry lands"
)


@pytest.mark.parametrize(
    "owner, name, fault, config, caught_by",
    [
        pytest.param(
            noise, "pack_draws", pack_without_half, "additive_mc", "trace_identity", id="a"
        ),
        pytest.param(
            noise, "pack_draws", pack_without_half, "transport_mc", "trace_identity",
            id="a_transport",
        ),
        pytest.param(
            integrators, "ou_tau", tau_at_half_rate, "additive_mc", "ou_variance_mode8", id="b"
        ),
        pytest.param(
            NoiseSampler, "draws_block", block_zero_always, "transport_pathwise", None, id="c",
            marks=pytest.mark.xfail(strict=True, reason=C_REASON),
        ),
        pytest.param(
            integrators, "_transport_factors", heun_without_correction, "transport_pathwise",
            "energy_identity", id="d",
        ),
    ],
)
def test_fault_fails_verify(tmp_path, monkeypatch, owner, name, fault, config, caught_by):
    inject(monkeypatch, owner, name, fault)
    code, failed = run_verify(tmp_path, config)
    assert code == 1, f"verify passed with the fault; failed rows: {failed}"
    if caught_by is not None:
        assert caught_by in failed, failed
