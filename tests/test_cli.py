"""Config-driven runner: subcommands, exit codes, CSV determinism."""

import json
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from reference import gronwall_table, mass_table
from spdekit import cli, verify
from spdekit.integrators import SchemeSpec, block_norms, step_blocks
from spdekit.verify import energy_identity_refinement


def write_config(path, text):
    path.write_text(text)
    return str(path)


BASE_SIM = """
[model]
kind = transport_heat
sigma = 1.0

[grid]
modes = 16

[scheme]
kind = euler_maruyama
dt = 1e-4

[experiment]
t = 0.01
u0 = cos
base_seed = 7

[output]
directory = {out}
prefix = run
"""


class TestSimulate:
    def test_zero_horizon_single_snapshot(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini", BASE_SIM.format(out=tmp_path / "o").replace("t = 0.01", "t = 0.0")
        )
        assert cli.main(["simulate", "--config", cfg]) == 0
        lines = (tmp_path / "o" / "run_norms.csv").read_text().strip().splitlines()
        assert lines[0] == "t,l2,h1,mode0"
        assert len(lines) == 2  # header + one snapshot

    def test_norms_row_count_and_columns(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE_SIM.format(out=tmp_path / "o"))
        assert cli.main(["simulate", "--config", cfg]) == 0
        lines = (tmp_path / "o" / "run_norms.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 101  # header + N+1 rows at T/dt = 100

    def test_missing_dt_names_key(self, tmp_path, capsys):
        text = BASE_SIM.format(out=tmp_path / "o").replace("dt = 1e-4\n", "")
        cfg = write_config(tmp_path / "c.ini", text)
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert "scheme.dt" in capsys.readouterr().err

    def test_manifest_written_with_hash(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE_SIM.format(out=tmp_path / "o"))
        cli.main(["simulate", "--config", cfg])
        manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert len(manifest["config_hash"]) == 64
        assert manifest["seed"] == 7

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE_SIM.format(out=tmp_path / "o"))
        cli.main(["simulate", "--config", cfg, "--seed", "99"])
        manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
        assert manifest["seed"] == 99

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_seed_out_of_range_exits_two(self, tmp_path, capsys, command):
        # Philox keys are unsigned 64-bit: such seeds are configuration errors
        text = BASE_SIM.format(out=tmp_path / "o").replace(
            "base_seed = 7", "base_seed = 7\nchecks = ito_isometry"
        )
        for bad in ("-3", str(2**64)):
            bad_text = text.replace("base_seed = 7", f"base_seed = {bad}")
            cfg = write_config(tmp_path / "c.ini", bad_text)
            assert cli.main([command, "--config", cfg]) == 2
            assert "experiment.base_seed" in capsys.readouterr().err
            cfg = write_config(tmp_path / "c.ini", text)
            assert cli.main([command, "--config", cfg, "--seed", bad]) == 2
            assert "--seed" in capsys.readouterr().err

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE_SIM.format(out=tmp_path / "o"))
        cli.main(["simulate", "--config", cfg])
        first = (tmp_path / "o" / "run_norms.csv").read_bytes()
        cli.main(["simulate", "--config", cfg])
        assert (tmp_path / "o" / "run_norms.csv").read_bytes() == first

    def test_rerun_replaces_outputs(self, tmp_path):
        # a rerun writes new files: links to the old outputs keep the old bytes
        cfg = write_config(tmp_path / "c.ini", BASE_SIM.format(out=tmp_path / "o"))
        assert cli.main(["simulate", "--config", cfg]) == 0
        norms, manifest = tmp_path / "o" / "run_norms.csv", tmp_path / "o" / "run_manifest.json"
        first_norms, first_manifest = norms.read_bytes(), manifest.read_bytes()
        os.link(norms, tmp_path / "old_norms.csv")
        os.link(manifest, tmp_path / "old_manifest.json")
        assert cli.main(["simulate", "--config", cfg]) == 0
        assert norms.read_bytes() == first_norms
        assert not os.path.samefile(norms, tmp_path / "old_norms.csv")
        assert cli.main(["simulate", "--config", cfg, "--seed", "8"]) == 0
        assert norms.read_bytes() != first_norms
        assert (tmp_path / "old_norms.csv").read_bytes() == first_norms
        assert (tmp_path / "old_manifest.json").read_bytes() == first_manifest
        # a symlink at an output name is replaced too, not written through
        target = tmp_path / "elsewhere.csv"
        target.write_text("keep\n")
        norms.unlink()
        norms.symlink_to(target)
        assert cli.main(["simulate", "--config", cfg]) == 0
        assert not norms.is_symlink() and norms.read_bytes() == first_norms
        assert target.read_text() == "keep\n"

    def test_save_spectra_flag(self, tmp_path):
        text = BASE_SIM.format(out=tmp_path / "o").replace(
            "u0 = cos", "u0 = cos\nsave_spectra = true"
        )
        cfg = write_config(tmp_path / "c.ini", text)
        cli.main(["simulate", "--config", cfg])
        lines = (tmp_path / "o" / "run_spectra.csv").read_text().strip().splitlines()
        assert lines[0] == "t,k,re,im"
        assert len(lines) == 1 + 101 * 17

    @pytest.mark.parametrize("value", ["TRUE", "Yes", "1", "no", "False", "0"])
    def test_save_spectra_values_are_case_insensitive(self, tmp_path, value):
        text = BASE_SIM.format(out=tmp_path / "o").replace(
            "u0 = cos", f"u0 = cos\nsave_spectra = {value}"
        )
        assert cli.main(["simulate", "--config", write_config(tmp_path / "c.ini", text)]) == 0
        wanted = value.lower() in ("true", "yes", "1")
        assert (tmp_path / "o" / "run_spectra.csv").exists() == wanted

    @pytest.mark.parametrize("value", ["ture", "", "on"])
    def test_unrecognised_save_spectra_is_config_error(self, tmp_path, capsys, value):
        # an unrecognised flag used to mean false: exit 0 and no spectra file
        text = BASE_SIM.format(out=tmp_path / "o").replace(
            "u0 = cos", f"u0 = cos\nsave_spectra = {value}"
        )
        assert cli.main(["simulate", "--config", write_config(tmp_path / "c.ini", text)]) == 2
        err = capsys.readouterr().err
        assert "experiment.save_spectra" in err and repr(value) in err
        assert not (tmp_path / "o" / "run_norms.csv").exists()

    def test_blow_up_exits_three(self, tmp_path, capsys):
        text = """
[model]
kind = reaction_diffusion
theta = 1.0
m = 4

[grid]
modes = 16

[scheme]
kind = euler_maruyama
dt = 1e-4

[noise]
kind = white

[experiment]
t = 1.0
u0 = cos
u0_amplitude = 50.0
base_seed = 2

[output]
directory = {out}
prefix = x
""".format(out=tmp_path / "o")
        cfg = write_config(tmp_path / "c.ini", text)
        assert cli.main(["simulate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "blew up" in err
        assert "(step " in err and "L2 norm" in err and "mode k = " in err

    def test_invalid_model_exponent_exits_two(self, tmp_path, capsys):
        text = BASE_SIM.format(out=tmp_path / "o").replace(
            "kind = transport_heat\nsigma = 1.0",
            "kind = reaction_diffusion\ntheta = -1.0\nm = 2",
        )
        cfg = write_config(tmp_path / "c.ini", text)
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert "m must be >= 3" in capsys.readouterr().err


def write_rows(path, header, rows):
    """The row-by-row CSV path: every value through ``cli._fmt``."""
    cli.write_csv(path, header, [list(row) for row in rows])
    return path.read_bytes()


class TestCsvTables:
    # tables are written with one %-string per row; the bytes must be those
    # of the row-wise _fmt path on the same values

    def test_table_matches_row_wise_bytes(self, tmp_path):
        t = np.array([0.0, -0.0, 1e-300, -2.5, np.pi, 1e300, np.nan, np.inf, -np.inf])
        k = np.array([0, 1, -7, 2**40, 3, 0, 12, 5, 9], dtype=np.int64)
        header = ["t", "k", "x"]
        cli.write_csv(tmp_path / "table.csv", header, np.rec.fromarrays([t, k, t[::-1]]))
        rows = write_rows(tmp_path / "rows.csv", header, zip(t, k, t[::-1]))
        assert (tmp_path / "table.csv").read_bytes() == rows

    def test_table_in_row_chunks_matches_row_wise_bytes(self, tmp_path):
        # two full chunks of formatted rows and a short third one
        n = 2 * cli._CSV_ROWS + 3
        rng = np.random.default_rng(5)
        t, x = rng.normal(size=n), rng.normal(size=n) * 1e-200
        k = np.arange(n) - n // 2
        header = ["t", "k", "x"]
        cli.write_csv(tmp_path / "table.csv", header, np.rec.fromarrays([t, k, x]))
        rows = write_rows(tmp_path / "rows.csv", header, zip(t, k, x))
        assert (tmp_path / "table.csv").read_bytes() == rows

    def test_simulate_tables_match_row_wise_bytes(self, tmp_path):
        from spdekit.integrators import SchemeSpec, simulate
        from spdekit.models import ReactionDiffusion
        from spdekit.noise import CovarianceSpec, NoiseSampler
        from spdekit.spectral import TorusGrid, field_from_modes

        text = BASE_SIM.format(out=tmp_path / "o").replace(
            "kind = transport_heat\nsigma = 1.0", "kind = reaction_diffusion\ntheta = -1.0\nm = 3"
        ).replace("u0 = cos", "u0 = cos\nsave_spectra = true")
        assert cli.main(["simulate", "--config", write_config(tmp_path / "c.ini", text)]) == 0

        g = TorusGrid(16)
        q = CovarianceSpec.white(g)
        u0 = field_from_modes(g, [(1, 0.5)])
        path = simulate(ReactionDiffusion(-1.0, 3, q), SchemeSpec("euler_maruyama", 1e-4), u0,
                        0.01, sampler=NoiseSampler(q, 7, 0))
        table = block_norms(path.times, path.states, g)
        norms = zip(table["t"], np.sqrt(table["l2_sq"]), np.sqrt(table["h1_sq"]), table["mode0"])
        spectra = [[t, k, c.real, c.imag] for t, row in zip(path.times, path.states)
                   for k, c in enumerate(row)]
        out = tmp_path / "o"
        assert (out / "run_norms.csv").read_bytes() == write_rows(
            tmp_path / "n.csv", ["t", "l2", "h1", "mode0"], norms)
        assert (out / "run_spectra.csv").read_bytes() == write_rows(
            tmp_path / "s.csv", ["t", "k", "re", "im"], spectra)

    @pytest.mark.parametrize(
        "modes, dt, t, window",
        [
            (32, "1e-3", "0.05", "0.05"),
            (32, "1e-3", "0.05", "0.03"),  # a short last window
            (16, "1e-3", "0.037", "1e-3"),  # one step per window
            (16, "2.5e-4", "0.13", "0.05"),  # 200 steps per window, 520 steps
            (16, "2.5e-4", "0.1575", "0.064"),  # 256 steps per window, 630 steps
            (16, "2.5e-4", "0.2", "0.075"),  # 300 steps per window, 800 steps
            (16, "1e-3", "0.0", "0.05"),  # no step: one row, 0 iterations, residual 0
        ],
    )
    def test_burgers_outputs_match_solve_split_bytes(self, tmp_path, modes, dt, t, window):
        # the command reduces each window as it is solved; its series and
        # summary are bit for bit those of the held paths of solve_split
        from conftest import sin_field
        from spdekit.burgers import BurgersProblem, solve_split
        from spdekit.noise import CovarianceSpec
        from spdekit.spectral import TorusGrid, halpha_rows, l2_sq_rows, lp_rows

        text = BURGERS_TEMPLATE.format(
            noise="mean_free_white", amp="0.5", n=2, maxit=25, out=tmp_path / "o"
        ).replace("picard_maxit", f"window = {window}\npicard_maxit")
        text = text.replace("modes = 32", f"modes = {modes}").replace("dt = 1e-3", f"dt = {dt}")
        text = text.replace("t = 0.05", f"t = {t}")
        assert cli.main(["burgers", "--config", write_config(tmp_path / "c.ini", text)]) == 0

        g = TorusGrid(modes)
        prob = BurgersProblem(g, float(t), float(dt), sin_field(g, 0.5), window=float(window),
                              q=CovarianceSpec.mean_free_white(g))
        spw = prob.steps_per_window
        header = ["t", "v_halpha", "w_lp", "u_l2", "picard_iters", "residual"]
        summary = []
        for i in range(2):
            split = solve_split(prob, 3, i)
            v_ha = halpha_rows(split.v_path.states, g, prob.alpha)
            w_lp = lp_rows(split.w_path.states, prob.p, prob.quad_points)
            assert len(w_lp) == prob.n_steps + 1
            u_l2 = np.sqrt(l2_sq_rows(split.u_path.states))
            iters, residuals = split.picard_iters, split.residuals
            rows = []
            for j, time_j in enumerate(split.u_path.times):
                # row 0 and the rows ending the steps of window w belong to window w
                widx = (j - 1) // spw if j else 0
                rows.append([time_j, v_ha[j], w_lp[j], u_l2[j], iters[widx], residuals[widx]])
            assert (tmp_path / "o" / f"b_seed00{i}.csv").read_bytes() == write_rows(
                tmp_path / "r.csv", header, rows)
            # the empirical a priori ratio sup_t |w|_{L^p} / (|w_0|_{L^p} + sup_t |v|_{H^alpha})
            sup_w, w0_lp, sup_v = float(np.max(w_lp)), float(w_lp[0]), float(np.max(v_ha))
            summary.append([i, sup_w, w0_lp, sup_v, sup_w / (w0_lp + sup_v),
                            max(split.picard_iters), split.residual])
        summary.append(["ensemble", *(max(column) for column in list(zip(*summary))[1:])])
        header = ["seed", "sup_w_lp", "w0_lp", "sup_v_halpha", "apriori_ratio", "max_iters",
                  "max_residual"]
        assert (tmp_path / "o" / "b_summary.csv").read_bytes() == write_rows(
            tmp_path / "s.csv", header, summary)


STREAMED_MODELS = {
    # (model section, noise section, scheme kind, u0)
    "transport_heun": ("kind = transport_heat\nsigma = 0.5, 0.3", "", "heun_stratonovich", "cos"),
    "additive_exact_ou": ("kind = additive_heat", "kind = power\ngamma = 1.0", "exact_ou", "cos"),
    "reaction_diffusion_em": (
        "kind = reaction_diffusion\ntheta = -1.0\nm = 3", "kind = white", "euler_maruyama", "cos"
    ),
    "burgers_exp_euler": ("kind = burgers", "kind = mean_free_white", "exponential_euler", "sin"),
}

STREAMED_SIM = """
[model]
{model}

[grid]
modes = 8

[scheme]
kind = {scheme}
dt = 1e-5

[noise]
{noise}

[experiment]
t = {t!r}
u0 = {u0}
{extra}
base_seed = 7

[output]
directory = {out}
prefix = run
"""


def blow_up_config(out, amplitude="50.0", t=1.0):
    """Reaction-diffusion (theta = 1, m = 4, K = 16) with spectra: 50.0 blows up in block 0.

    At ``u0_amplitude = 1.0`` and ``t = 0.1`` the same run passes.
    """
    return STREAMED_SIM.format(
        model="kind = reaction_diffusion\ntheta = 1.0\nm = 4", noise="kind = white",
        scheme="euler_maruyama", u0="cos", t=t, out=out,
        extra=f"u0_amplitude = {amplitude}\nsave_spectra = true",
    ).replace("modes = 8", "modes = 16").replace("dt = 1e-5", "dt = 1e-4")


def streamed_config(tmp_path, name, n_steps, extra="save_spectra = true"):
    model, noise, scheme, u0 = STREAMED_MODELS[name]
    text = STREAMED_SIM.format(model=model, noise=noise, scheme=scheme, u0=u0, t=n_steps * 1e-5,
                               extra=extra, out=tmp_path / "o")
    return write_config(tmp_path / "c.ini", text)


def full_path(cfg_file):
    """The configured path from ``integrators.simulate``: every state held."""
    from spdekit.integrators import noise_spec, simulate
    from spdekit.noise import NoiseSampler

    cfg = cli.load_config(cfg_file)
    grid = cli.build_grid(cfg)
    model, scheme, T, u0 = cli._path_run(cfg, grid)
    return simulate(model, scheme, u0, T, sampler=NoiseSampler(noise_spec(model), 7, 0))


class TestStreamedSimulate:
    # the simulate command reduces each block as it is stepped; its tables must
    # be the bytes of the full path under the column formulas of a held path

    @pytest.mark.parametrize("n_steps", [0, 1, 255, 256, 257, 600])
    @pytest.mark.parametrize("name", sorted(STREAMED_MODELS))
    def test_tables_equal_the_full_path(self, tmp_path, name, n_steps):
        cfg = streamed_config(tmp_path, name, n_steps)
        assert cli.main(["simulate", "--config", cfg]) == 0
        path = full_path(cfg)
        assert path.n_steps == n_steps
        table = block_norms(path.times, path.states, path.grid)
        norms = zip(table["t"], np.sqrt(table["l2_sq"]), np.sqrt(table["h1_sq"]), table["mode0"])
        spectra = [[t, k, c.real, c.imag] for t, row in zip(path.times, path.states)
                   for k, c in enumerate(row)]
        out = tmp_path / "o"
        assert (out / "run_norms.csv").read_bytes() == write_rows(
            tmp_path / "n.csv", ["t", "l2", "h1", "mode0"], norms)
        assert (out / "run_spectra.csv").read_bytes() == write_rows(
            tmp_path / "s.csv", ["t", "k", "re", "im"], spectra)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["outputs"] == ["run_norms.csv", "run_spectra.csv"]

    @pytest.mark.parametrize("amplitude", ["50.0", "5.0"])  # blows up in block 0 / block 30
    def test_blow_up_message_is_the_full_paths(self, tmp_path, capsys, amplitude):
        from spdekit.integrators import BlowUpError

        cfg = write_config(tmp_path / "c.ini", blow_up_config(tmp_path / "o", amplitude))
        assert cli.main(["simulate", "--config", cfg]) == 3
        with pytest.raises(BlowUpError) as err:
            full_path(cfg)
        assert capsys.readouterr().err == f"numerical failure: {err.value}\n"
        assert (err.value.step > 256) == (amplitude == "5.0")
        assert not (tmp_path / "o").exists()  # no partial file, nor the directory made for them

    def test_peak_memory_does_not_grow_with_the_path(self, tmp_path):
        # K = 64: 5 * 10^4 exact OU steps are 52 MB of states; the command
        # holds one 257-row block and the four norm columns (32 B per step)
        peaks = {}
        for n_steps in (5_000, 50_000):
            text = STREAMED_SIM.format(
                model="kind = additive_heat", noise="kind = white", scheme="exact_ou", u0="cos",
                t=n_steps * 1e-5, extra="", out=tmp_path / "o",
            ).replace("modes = 8", "modes = 64")
            cfg = write_config(tmp_path / f"c{n_steps}.ini", text)
            tracemalloc.start()
            try:
                assert cli.main(["simulate", "--config", cfg]) == 0
                _, peaks[n_steps] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            rows = (tmp_path / "o" / "run_norms.csv").read_text().count("\n")
            assert rows == 1 + n_steps + 1
        assert peaks[50_000] < 8e6
        assert peaks[50_000] - peaks[5_000] <= 32 * 45_000


class TestConfigHash:
    def test_reordering_and_formatting_invariant(self, tmp_path):
        a = cli.load_config(write_config(tmp_path / "a.ini", BASE_SIM.format(out="out")))
        shuffled = BASE_SIM.format(out="out").replace(
            "kind = euler_maruyama\ndt = 1e-4", "dt = 0.0001\nkind = euler_maruyama"
        )
        b = cli.load_config(write_config(tmp_path / "b.ini", shuffled))
        assert a.semantic_hash() == b.semantic_hash()

    def test_value_change_changes_hash(self, tmp_path):
        a = cli.load_config(write_config(tmp_path / "a.ini", BASE_SIM.format(out="out")))
        changed = BASE_SIM.format(out="out").replace("sigma = 1.0", "sigma = 1.5")
        b = cli.load_config(write_config(tmp_path / "b.ini", changed))
        assert a.semantic_hash() != b.semantic_hash()


class TestMalformedInput:
    # a file that is not an INI file, or an output that cannot be written, is a
    # configuration error (exit 2) on one line that names it, and nothing is written

    @staticmethod
    def assert_config_error(capsys, tmp_path, *names):
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1, err
        assert all(name in err for name in names), err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda b: b.replace(b"modes = 16", b"modes = 16\nmodes = 8"), "line 8: grid.modes"),
            (lambda b: b"modes = 8\n" + b, "line 1:"),
            (lambda b: b.replace(b"modes = 16", b"modes 16"), "line 7:"),
            (lambda b: b.replace(b"u0 = cos", b"u0 = cos\xe9"), "byte 0xe9"),
            (lambda b: b + b"[grid]\n", "line 21: section [grid]"),
            (lambda b: b.replace(b"t = 0.01", b"t = 1%"), "experiment.t: '%'"),
        ],
        ids=[
            "duplicate_key",
            "key_before_any_section",
            "key_without_equals",
            "non_utf8_byte",
            "duplicate_section",
            "lone_percent_sign",
        ],
    )
    def test_malformed_file_exits_two_naming_it(self, tmp_path, capsys, edit, named):
        cfg = tmp_path / "c.ini"
        cfg.write_bytes(edit(BASE_SIM.format(out=tmp_path / "o").encode()))
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        self.assert_config_error(capsys, tmp_path, f"config file {cfg}", named)

    @pytest.mark.parametrize("key", ["--out", "output.directory"])
    def test_output_directory_under_a_file_exits_two(self, tmp_path, capsys, key):
        (tmp_path / "file").write_text("")
        below = tmp_path / "file" / "o"
        cfg = write_config(
            tmp_path / "c.ini", BASE_SIM.format(out=below if key == "output.directory" else "o")
        )
        argv = ["simulate", "--config", cfg] + (["--out", str(below)] if key == "--out" else [])
        assert cli.main(argv) == 2
        self.assert_config_error(capsys, tmp_path, f"{key}: cannot make directory {str(below)!r}")

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_prefix_naming_a_directory_exits_two_before_the_run(self, tmp_path, capsys, command):
        text = VERIFY_TEMPLATE.format(sigma="1.0", checks="mass_conservation", out=tmp_path / "o")
        cfg = write_config(tmp_path / "c.ini", text.replace("prefix = v", "prefix = sub/v"))
        assert cli.main([command, "--config", cfg]) == 2
        self.assert_config_error(capsys, tmp_path, "output.prefix", "'sub/v'")
        assert not (tmp_path / "o").exists()


VERIFY_TEMPLATE = """
[model]
kind = transport_heat
sigma = {sigma}

[grid]
modes = 16

[scheme]
kind = euler_maruyama
dt = 1e-4

[experiment]
t = 0.01
u0 = cos
n_paths = 3
base_seed = 5
checks = {checks}

[output]
directory = {out}
prefix = v
"""


MODEL_LINES = "kind = transport_heat\nsigma = 1.0"
ADDITIVE = "kind = additive_heat"

# (command, edit of BASE_SIM, what the one error line must name): each config error
# branch of the builders and getters
CONFIG_ERRORS = {
    "float_not_a_number": ("simulate", ("t = 0.01", "t = soon"), "experiment.t must be a number"),
    "int_not_an_integer": ("simulate", ("modes = 16", "modes = x"), "grid.modes must be an integer"),
    "floats_not_a_number": (
        "simulate", ("sigma = 1.0", "sigma = 1.0, x"), "model.sigma must be a comma list of numbers"
    ),
    "floats_not_finite": (
        "simulate", ("sigma = 1.0", "sigma = nan"), "model.sigma must be a comma list of finite"
    ),
    "unreadable_config": ("simulate", None, "cannot read config file"),
    "grid_points_below_2K_plus_1": (
        "simulate", ("modes = 16", "modes = 16\npoints = 20"), "grid.points=20 < 2*grid.modes+1=33"
    ),
    "noise_list_without_values": (
        "simulate", (MODEL_LINES, f"{ADDITIVE}\n[noise]\nkind = list"), "noise.values required"
    ),
    "noise_list_too_many_values": (
        "simulate",
        (MODEL_LINES, f"{ADDITIVE}\n[noise]\nkind = list\nvalues = {', '.join(['1'] * 18)}"),
        "noise.values lists 18 eigenvalues",
    ),
    "unknown_model_kind": ("simulate", ("transport_heat", "wave"), "model.kind must be one of"),
    "unknown_scheme_kind": (
        "simulate", ("kind = euler_maruyama", "kind = rk4"), "scheme.kind must be one of"
    ),
    "u0_mode_out_of_range": (
        "simulate", ("u0 = cos", "u0 = cos\nu0_mode = 17"), "experiment.u0_mode must lie in 1..16"
    ),
    "unknown_u0": ("simulate", ("u0 = cos", "u0 = gauss"), "experiment.u0 must be cos|sin|zero"),
    "transport_check_on_another_model": (
        "verify",
        (f"{MODEL_LINES}\n\n[grid]", f"{ADDITIVE}\n\n[grid]", "u0 = cos", "u0 = cos\nchecks = gronwall"),
        "gronwall check requires model.kind = transport_heat",
    ),
    "unknown_phi": (
        "verify",
        ("u0 = cos", "u0 = cos\nchecks = ito_isometry\nphi = sine"),
        "experiment.phi must be single_mode|inverse_k|white",
    ),
}


def failing_config(command, out, fails=True):
    """A run of ``command`` that exits 3 after its first output, or with ``fails=False`` passes.

    burgers: two seeds at K = 16; with picard_maxit = 5 seed 0 is written and seed 1
    fails in window 9. simulate: ``blow_up_config``, which blows up after its files are opened.
    """
    if command == "simulate":
        return blow_up_config(out) if fails else blow_up_config(out, "1.0", 0.1)
    text = BURGERS_TEMPLATE.format(
        noise="mean_free_white", amp="0.1", n=2, maxit=5 if fails else 25, out=out
    ).replace("modes = 32", "modes = 16").replace("t = 0.05", "t = 0.2")
    return text.replace("picard_maxit", "window = 0.02\npicard_maxit")


class TestConfigErrors:
    # a configuration error (exit 2) or a numerical failure (exit 3) is one line,
    # naming the key or the failure, and leaves no traceback and no file or
    # directory that its run made

    @staticmethod
    def assert_nothing_left(capsys, tmp_path, named, config, status="configuration error"):
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith(f"{status}: ") and err.count("\n") == 1, err
        assert named in err and "Traceback" not in err + captured.out, err
        assert sorted(tmp_path.rglob("*")) == ([config] if config.exists() else [])

    @pytest.mark.parametrize("case", CONFIG_ERRORS)
    def test_exit_two_naming_the_key(self, tmp_path, capsys, case):
        command, edits, named = CONFIG_ERRORS[case]
        text = BASE_SIM.format(out=tmp_path / "o" / "deep")
        config = tmp_path / "c.ini"
        if edits is not None:
            for old, new in zip(edits[::2], edits[1::2]):
                assert old in text
                text = text.replace(old, new)
            config.write_text(text)
        assert cli.main([command, "--config", str(config)]) == 2
        self.assert_nothing_left(capsys, tmp_path, named, config)

    @pytest.mark.parametrize(
        "command, text, code, named",
        [
            ("verify", lambda out: BASE_SIM.format(out=out).replace(
                "u0 = cos", "u0 = cos\nchecks = nonsense"), 2, "unknown check 'nonsense'"),
            ("simulate", lambda out: BASE_SIM.format(out=out).replace(
                "modes = 16", "modes = x"), 2, "grid.modes must be an integer"),
            # numerical failures after the first output: burgers has written
            # seed 0, simulate has opened its norms and spectra
            ("burgers", lambda out: failing_config("burgers", out), 3, "window 9:"),
            ("simulate", lambda out: failing_config("simulate", out), 3, "blew up"),
        ],
        ids=["verify_bad_check", "simulate_bad_modes", "burgers_picard", "simulate_blow_up"],
    )
    def test_out_made_for_the_run_is_removed(self, tmp_path, capsys, command, text, code, named):
        # the run makes o_bad/deep before its runner reads the bad key or fails; both go
        # again, with every file that the run wrote
        config = tmp_path / "c.ini"
        config.write_text(text("unused"))
        argv = [command, "--config", str(config), "--out", str(tmp_path / "o_bad" / "deep")]
        assert cli.main(argv) == code
        status = "configuration error" if code == 2 else "numerical failure"
        self.assert_nothing_left(capsys, tmp_path, named, config, status)

    @pytest.mark.parametrize("command", ["burgers", "simulate"])
    def test_failed_rerun_leaves_no_stale_manifest(self, tmp_path, command):
        # a good run, then a failing rerun into its directory: a manifest left
        # must be the good run's, and every file it names must be the good run's
        out, kept = tmp_path / "o", tmp_path / "kept"
        good = write_config(tmp_path / "good.ini", failing_config(command, out, fails=False))
        assert cli.main([command, "--config", good]) == 0
        kept.mkdir()
        for path in out.iterdir():
            os.link(path, kept / path.name)
        bad = write_config(tmp_path / "bad.ini", failing_config(command, out))
        assert cli.main([command, "--config", bad]) == 3
        for manifest in out.glob("*_manifest.json"):
            for name in [manifest.name, *json.loads(manifest.read_text())["outputs"]]:
                assert (out / name).exists() and os.path.samefile(out / name, kept / name), name

    def test_failed_rerun_leaves_no_file_of_the_prefix(self, tmp_path):
        # the failing rerun takes back both seeds and the summary of the good run
        # that its manifest lists, not the names an edited manifest adds off the prefix
        out = tmp_path / "o"
        good = write_config(tmp_path / "good.ini", failing_config("burgers", out, fails=False))
        assert cli.main(["burgers", "--config", good]) == 0
        manifest = json.loads((out / "b_manifest.json").read_text())
        manifest["outputs"] += ["../good.ini", "c_seed000.csv", str(tmp_path / "good.ini")]
        (out / "b_manifest.json").write_text(json.dumps(manifest))
        (out / "c_seed000.csv").write_text("kept\n")
        bad = write_config(tmp_path / "bad.ini", failing_config("burgers", out))
        assert cli.main(["burgers", "--config", bad]) == 3
        assert sorted(path.name for path in out.iterdir()) == ["c_seed000.csv"]
        assert (tmp_path / "good.ini").exists()

    def test_shorter_rerun_leaves_what_its_manifest_lists(self, tmp_path):
        out = tmp_path / "o"
        text = failing_config("burgers", out, fails=False)
        assert cli.main(["burgers", "--config", write_config(tmp_path / "two.ini", text)]) == 0
        one = write_config(tmp_path / "one.ini", text.replace("n_paths = 2", "n_paths = 1"))
        assert cli.main(["burgers", "--config", one]) == 0
        listed = json.loads((out / "b_manifest.json").read_text())["outputs"]
        assert listed == ["b_seed000.csv", "b_summary.csv"]
        assert sorted(path.name for path in out.iterdir()) == ["b_manifest.json", *listed]

    def test_out_that_existed_is_kept(self, tmp_path, capsys):
        (tmp_path / "o").mkdir()
        config = tmp_path / "c.ini"
        config.write_text(BASE_SIM.format(out=tmp_path / "o").replace("modes = 16", "modes = x"))
        assert cli.main(["simulate", "--config", str(config)]) == 2
        assert (tmp_path / "o").is_dir() and not list((tmp_path / "o").iterdir())


class TestVerify:
    def read_rows(self, tmp_path):
        lines = (tmp_path / "o" / "v_reports.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    def test_mass_conservation_single_row(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini",
            VERIFY_TEMPLATE.format(sigma="1.0", checks="mass_conservation", out=tmp_path / "o"),
        )
        assert cli.main(["verify", "--config", cfg]) == 0
        rows = self.read_rows(tmp_path)
        assert len(rows) == 1
        assert rows[0]["name"] == "mass_conservation"
        assert rows[0]["pass"] == "true"

    def test_gronwall_supercritical_skipped(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini",
            VERIFY_TEMPLATE.format(sigma="2.5", checks="gronwall", out=tmp_path / "o"),
        )
        assert cli.main(["verify", "--config", cfg]) == 0
        rows = self.read_rows(tmp_path)
        assert rows[0]["pass"] == "skipped"
        assert "sigma >= 2" in rows[0]["note"]

    def test_mass_conservation_skipped_for_additive_noise(self, tmp_path):
        text = VERIFY_TEMPLATE.format(
            sigma="1.0", checks="mass_conservation", out=tmp_path / "o"
        ).replace("kind = transport_heat\nsigma = 1.0", "kind = additive_heat")
        cfg = write_config(tmp_path / "c.ini", text)
        assert cli.main(["verify", "--config", cfg]) == 0
        rows = self.read_rows(tmp_path)
        assert rows[0]["pass"] == "skipped"
        assert "Brownian" in rows[0]["note"]

    @pytest.mark.parametrize("checks", ["checks = ", "checks = ,", ""])  # empty, or no key
    def test_empty_check_list_is_config_error(self, tmp_path, capsys, checks):
        # a run with no check would pass vacuously with a header-only report
        text = VERIFY_TEMPLATE.format(sigma="1.0", checks="", out=tmp_path / "o")
        cfg = write_config(tmp_path / "c.ini", text.replace("checks = \n", checks + "\n"))
        assert cli.main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "experiment.checks" in err and ", ".join(cli.CHECKS) in err
        assert not (tmp_path / "o" / "v_reports.csv").exists()

    def test_unknown_check_is_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.ini",
            VERIFY_TEMPLATE.format(sigma="1.0", checks="nonsense", out=tmp_path / "o"),
        )
        assert cli.main(["verify", "--config", cfg]) == 2
        assert "nonsense" in capsys.readouterr().err

    def test_failing_check_exits_one(self, tmp_path):
        # a 16-interval partition cannot pin the quadratic variation to 5%
        text = VERIFY_TEMPLATE.format(
            sigma="1.0", checks="quadratic_variation", out=tmp_path / "o"
        ).replace("n_paths = 3", "n_paths = 50\nqv_intervals = 16")
        cfg = write_config(tmp_path / "c.ini", text)
        assert cli.main(["verify", "--config", cfg]) == 1
        rows = self.read_rows(tmp_path)
        assert rows[0]["pass"] == "false"

    def test_out_flag_overrides_directory(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini",
            VERIFY_TEMPLATE.format(sigma="1.0", checks="mass_conservation", out=tmp_path / "o"),
        )
        other = tmp_path / "elsewhere"
        assert cli.main(["verify", "--config", cfg, "--out", str(other)]) == 0
        assert (other / "v_reports.csv").exists()

    def test_verify_rerun_byte_identical(self, tmp_path):
        checks = "mass_conservation, gronwall, ito_isometry, gaussian_moment"
        text = (
            VERIFY_TEMPLATE.format(sigma="1.0", checks=checks, out=tmp_path / "o")
            .replace("n_paths = 3", "n_paths = 32")
            .replace("dt = 1e-4", "dt = 5e-6")
        )
        cfg = write_config(tmp_path / "c.ini", text)
        assert cli.main(["verify", "--config", cfg]) == 0
        first = (tmp_path / "o" / "v_reports.csv").read_bytes()
        cli.main(["verify", "--config", cfg])
        assert (tmp_path / "o" / "v_reports.csv").read_bytes() == first


ROOT = Path(__file__).resolve().parents[1]

# every check applies to this config; the Monte Carlo budget is tiny, so the
# gates may fail (exit 1), but each check must run and write its rows
ALL_CHECKS_TEMPLATE = """
[model]
kind = transport_heat
sigma = 1.0

[grid]
modes = 8

[scheme]
kind = {scheme}
dt = 1e-4

[noise]
kind = white

[experiment]
t = 0.01
u0 = cos
n_paths = {n_paths}
base_seed = 5
qv_intervals = 1024
checks = {checks}
{extra}
[output]
directory = {out}
prefix = v
"""

EXPECTED_REPORTS = {
    "mass_conservation": ["mass_conservation"],
    "energy_identity": ["energy_identity"],
    "gronwall": ["gronwall"],
    "ito_isometry": ["ito_isometry"],
    "trace_identity": ["trace_identity"],
    "wiener_covariance": ["wiener_covariance"],
    "quadratic_variation": ["quadratic_variation", "quadratic_variation_smooth"],
    "ito_strat": ["ito_strat_equivalence"],
    "gaussian_moment": ["gaussian_fourth_moment"],
    "ou_exactness": ["ou_variance_mode0", "ou_variance_mode1", "ou_variance_mode8"],
    "holder_exponent": ["holder_exponent"],
}


def all_checks_config(tmp_path, checks, scheme="euler_maruyama", n_paths=3, extra=""):
    text = ALL_CHECKS_TEMPLATE.format(
        scheme=scheme, n_paths=n_paths, checks=checks, extra=extra, out=tmp_path / "o"
    )
    return write_config(tmp_path / "c.ini", text)


def report_rows(tmp_path):
    lines = (tmp_path / "o" / "v_reports.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestCheckTable:
    @pytest.mark.parametrize("name", list(cli.CHECKS))
    def test_each_check_writes_its_reports(self, tmp_path, name):
        cfg = all_checks_config(tmp_path, name)
        assert cli.main(["verify", "--config", cfg]) in (0, 1)
        assert [row["name"] for row in report_rows(tmp_path)] == EXPECTED_REPORTS[name]

    def test_expected_reports_cover_the_table(self):
        assert list(EXPECTED_REPORTS) == list(cli.CHECKS)

    def test_readme_lists_the_table(self):
        readme = (ROOT / "README.md").read_text()
        listed = re.search(r"Known verify checks: (.*?)\.\n", readme, re.DOTALL).group(1)
        assert tuple(re.findall(r"`(\w+)`", listed)) == tuple(cli.CHECKS)

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.ini")), ids=lambda p: p.name)
    def test_shipped_configs_build(self, path):
        cfg = cli.load_config(path)
        grid = cli.build_grid(cfg)
        if path.name == "she_regularity.ini":  # regularity reads no model, scheme or noise
            assert not {"model", "scheme", "noise"} & set(cfg.sections)
            return
        cli.build_model(cfg, grid)
        cli.build_scheme(cfg)
        assert set(cfg.get_list("experiment", "checks")) <= set(cli.CHECKS)

    def test_energy_identity_steps_with_the_configured_scheme(self, tmp_path):
        cfg_path = all_checks_config(
            tmp_path, "energy_identity", scheme="heun_stratonovich", n_paths=2
        )
        assert cli.main(["verify", "--config", cfg_path]) == 0
        cfg = cli.load_config(cfg_path)
        grid = cli.build_grid(cfg)
        model, u0 = cli.build_model(cfg, grid), cli.build_initial_field(cfg, grid)

        def worst(kind):
            return max(
                energy_identity_refinement(model, u0, 0.01, [1e-4, 5e-5], 5, i, kind=kind)[-1]
                .estimate
                for i in range(2)
            )

        estimate = report_rows(tmp_path)[0]["estimate"]
        assert estimate == "%.17e" % worst("heun_stratonovich")
        assert estimate != "%.17e" % worst("euler_maruyama")

    def test_energy_identity_rejects_exact_ou(self, tmp_path, capsys):
        cfg = all_checks_config(tmp_path, "energy_identity", scheme="exact_ou")
        assert cli.main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "energy_identity" in err and "exact_ou" in err

    def test_ito_strat_misaligned_ladder_is_config_error(self, tmp_path, capsys):
        cfg = all_checks_config(tmp_path, "ito_strat", extra="dt_ladder = 1e-3, 3e-4")
        assert cli.main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "experiment.dt_ladder" in err and "integer multiples of the finest" in err

    def test_ito_strat_coarse_rung_off_the_horizon_is_config_error(self, tmp_path, capsys):
        # 3e-3 is three fine steps, and t = 0.01 is ten: the plan rejects it, not the run
        cfg = all_checks_config(tmp_path, "ito_strat", extra="dt_ladder = 3e-3, 1e-3")
        assert cli.main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "experiment.dt_ladder" in err and "does not divide" in err

    def test_monte_carlo_checks_need_no_path_keys(self, tmp_path):
        # no [model] or [scheme]: only a pathwise unit builds the path experiment
        text = (
            "[grid]\nmodes = 8\n[experiment]\nt = 0.5\nn_paths = 50\n"
            f"checks = ito_isometry, trace_identity\n[output]\ndirectory = {tmp_path / 'o'}\n"
            "prefix = v\n"
        )
        cfg = write_config(tmp_path / "c.ini", text)
        assert cli.main(["verify", "--config", cfg]) in (0, 1)
        assert [row["name"] for row in report_rows(tmp_path)] == ["ito_isometry", "trace_identity"]

    def test_single_path_runs_pathwise_checks(self, tmp_path):
        cfg = all_checks_config(tmp_path, "mass_conservation, gronwall", n_paths=1)
        assert cli.main(["verify", "--config", cfg]) == 0
        assert [row["name"] for row in report_rows(tmp_path)] == ["mass_conservation", "gronwall"]

    def test_zero_paths_is_config_error(self, tmp_path, capsys):
        cfg = all_checks_config(tmp_path, "mass_conservation", n_paths=0)
        assert cli.main(["verify", "--config", cfg]) == 2
        assert "experiment.n_paths" in capsys.readouterr().err

    def test_single_path_monte_carlo_check_is_config_error(self, tmp_path, capsys):
        cfg = all_checks_config(tmp_path, "ito_isometry", n_paths=1)
        assert cli.main(["verify", "--config", cfg]) == 2
        assert "experiment.n_paths" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["s", "t"])
    def test_negative_wiener_covariance_time_is_config_error(self, tmp_path, capsys, key):
        cfg = Path(all_checks_config(tmp_path, "wiener_covariance", extra="s = 0.3\n"))
        cfg.write_text(cfg.read_text().replace(f"\n{key} = ", f"\n{key} = -"))
        assert cli.main(["verify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"experiment.{key} must be nonnegative" in err
        assert "Traceback" not in err


class TestPathwiseChecks:
    # one verify command steps each path once, folding its blocks into one
    # PathBalance, and every listed pathwise check reads that balance

    @staticmethod
    def config(tmp_path, n_steps, n_paths, modes=8, dt=1e-5):
        text = Path(all_checks_config(
            tmp_path, "mass_conservation, gronwall", scheme="heun_stratonovich", n_paths=n_paths
        )).read_text()
        text = text.replace("modes = 8", f"modes = {modes}").replace("dt = 1e-4", f"dt = {dt!r}")
        text = text.replace("\nt = 0.01\n", f"\nt = {n_steps * dt!r}\n")
        return write_config(tmp_path / "c.ini", text)

    @pytest.mark.parametrize("n_steps", [0, 1, 256, 600])
    def test_each_path_is_stepped_once(self, tmp_path, monkeypatch, n_steps):
        from spdekit.integrators import noise_spec, simulate
        from spdekit.noise import NoiseSampler

        n_paths = 3
        cfg_file = self.config(tmp_path, n_steps, n_paths)
        streams = []
        draws_block = NoiseSampler.draws_block

        def recorded(sampler, step0, n):
            streams.append((sampler.stream_id, step0))
            return draws_block(sampler, step0, n)

        monkeypatch.setattr(NoiseSampler, "draws_block", recorded)
        assert cli.main(["verify", "--config", cfg_file]) == 0
        monkeypatch.undo()
        path_runs = [stream for stream, step0 in streams if step0 == 0]
        assert path_runs == (list(range(n_paths)) if n_steps else [])
        assert len(streams) == n_paths * -(-n_steps // 256)

        # the reference: each check's worst whole-table report over held paths
        cfg = cli.load_config(cfg_file)
        model, scheme, T, u0 = cli._path_run(cfg, cli.build_grid(cfg))
        paths = [
            simulate(model, scheme, u0, T, sampler=NoiseSampler(noise_spec(model), 5, i))
            for i in range(n_paths)
        ]
        tables = [block_norms(p.times, p.states, p.grid) for p in paths]
        worst = [
            max(reports, key=lambda r: r.estimate - r.target)
            for reports in (
                [mass_table(t) for t in tables],
                [gronwall_table(t, model.sigma_seq, 0.05) for t in tables],
            )
        ]
        ref = tmp_path / "ref.csv"
        cli.write_csv(ref, cli.REPORT_HEADER, [cli.report_row(r, 5) for r in worst])
        assert (tmp_path / "o" / "v_reports.csv").read_bytes() == ref.read_bytes()

    def test_energy_identity_steps_no_coarse_rung(self, tmp_path, monkeypatch):
        # mass_conservation and gronwall read each path at dt, energy_identity
        # at dt/2: the finest rung of its ladder, whose coarse rung is not stepped
        calls = []

        def recorded(model, scheme, u0, T, sampler=None):
            calls.append((getattr(sampler, "stream_id", None), scheme))
            return step_blocks(model, scheme, u0, T, sampler)

        monkeypatch.setattr(cli, "step_blocks", recorded)
        monkeypatch.setattr(verify, "step_blocks", recorded)
        checks = "mass_conservation, energy_identity, gronwall"
        cfg = all_checks_config(tmp_path, checks, scheme="heun_stratonovich", n_paths=2)
        assert cli.main(["verify", "--config", cfg]) == 0
        steps = [SchemeSpec("heun_stratonovich", dt) for dt in (1e-4, 5e-5)]
        assert calls == [(i, scheme) for i in range(2) for scheme in steps]
        assert [row["name"] for row in report_rows(tmp_path)] == checks.split(", ")

    def test_peak_memory_holds_no_path(self, tmp_path):
        # K = 32 and 2 * 10^4 Heun steps: a held path is 5.3 MB of states, and
        # a norm table 32 bytes per step; the command holds one block per path.
        # An untraced one-step run first imports what the command loads lazily.
        assert cli.main(["verify", "--config", self.config(tmp_path, 1, 2, modes=32)]) == 0
        peaks = {}
        for n_steps in (20_000, 80_000):
            cfg = self.config(tmp_path, n_steps, 2, modes=32, dt=2.5e-6)
            tracemalloc.start()
            try:
                assert cli.main(["verify", "--config", cfg]) == 0
                _, peaks[n_steps] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            names = [row["name"] for row in report_rows(tmp_path)]
            assert names == ["mass_conservation", "gronwall"]
        assert peaks[20_000] < 4e6
        assert abs(peaks[80_000] - peaks[20_000]) < 0.5e6, peaks


MC_CHECK_NAMES = "ito_isometry, trace_identity, wiener_covariance, gaussian_moment, ou_exactness"


class TestWidestBlockFirst:
    # one verify command streams the Monte Carlo rows once: every row
    # 0..n_paths-1 is drawn exactly once, at the widest width any listed check
    # reads, and a command without a Monte Carlo check draws nothing

    # the columns each check reads per row, as the README states them
    WIDTHS = {
        "ito_isometry": 1,
        "trace_identity": 2 * 8 + 1,
        "wiener_covariance": 2 * 8 + 3,  # h = g = cos at mode 1: channel 1 of the increment
        "gaussian_moment": 2 * 8 + 1,
        "ou_exactness": 2 * 8 + 1,
    }
    PHI_WIDTHS = {"phi = white\nphi_count = 20": 2 * 20 + 1, "phi = inverse_k\nphi_count = 5": 5}

    @pytest.fixture
    def draws(self, monkeypatch):
        """(rows, columns) of each call to ``verify.mc_normals``."""
        calls = []
        real = verify.mc_normals

        def recorded(seed, rows, cols):
            calls.append((rows, cols))
            return real(seed, rows, cols)

        monkeypatch.setattr(verify, "mc_normals", recorded)
        return calls

    @staticmethod
    def assert_each_row_once(draws, n_paths, width):
        assert [row for rows, _ in draws for row in rows] == list(range(n_paths))
        assert {cols for _, cols in draws} == {width}

    def test_all_monte_carlo_checks_draw_once(self, tmp_path, draws):
        n_paths = 2 * verify._MC_ROWS + 37
        cfg = all_checks_config(tmp_path, MC_CHECK_NAMES, n_paths=n_paths)
        assert cli.main(["verify", "--config", cfg]) in (0, 1)
        self.assert_each_row_once(draws, n_paths, 2 * 8 + 3)
        assert len(draws) == 3
        assert len(report_rows(tmp_path)) == 7

    def test_widest_phi_sets_the_width(self, tmp_path, draws):
        extra = "phi = white\nphi_count = 20"
        cfg = all_checks_config(tmp_path, MC_CHECK_NAMES, n_paths=50, extra=extra)
        assert cli.main(["verify", "--config", cfg]) in (0, 1)
        self.assert_each_row_once(draws, 50, 2 * 20 + 1)

    def test_no_monte_carlo_check_draws_nothing(self, tmp_path, draws):
        cfg = all_checks_config(tmp_path, "mass_conservation, gronwall, holder_exponent")
        assert cli.main(["verify", "--config", cfg]) in (0, 1)
        assert len(report_rows(tmp_path)) == 3
        assert draws == []

    @pytest.mark.parametrize(
        "name, extra",
        [(name, "") for name in cli.CHECKS]
        + [
            ("ito_isometry", "phi = white\nphi_count = 20"),
            ("ito_isometry", "phi = inverse_k\nphi_count = 5"),
        ],
    )
    def test_rule_matches_what_each_check_reads(self, tmp_path, draws, name, extra):
        cfg = all_checks_config(tmp_path, name, n_paths=4, extra=extra)
        assert cli.main(["verify", "--config", cfg]) in (0, 1)
        width = self.PHI_WIDTHS.get(extra, self.WIDTHS.get(name))
        if width is None:
            assert draws == []
        else:
            self.assert_each_row_once(draws, 4, width)

    def test_peak_memory_does_not_grow_with_the_draws(self, tmp_path):
        # K = 128 and 10^4 paths: holding every draw would take 41 MB
        text = Path(all_checks_config(tmp_path, MC_CHECK_NAMES, n_paths=10_000)).read_text()
        cfg = write_config(tmp_path / "c.ini", text.replace("modes = 8", "modes = 128"))
        tracemalloc.start()
        try:
            assert cli.main(["verify", "--config", cfg]) in (0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report_rows(tmp_path)) == 7
        assert peak < 8e6

    @pytest.mark.parametrize("modes", ["0, 9", "1.5", "1, 1", "0, 1e0, 0"])
    def test_bad_ou_modes_are_config_errors(self, tmp_path, capsys, modes):
        # a mode outside the grid, a fraction int() would truncate, a repeat
        cfg = all_checks_config(tmp_path, "ou_exactness", n_paths=50, extra=f"ou_modes = {modes}")
        assert cli.main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "experiment.ou_modes" in err

    def test_integral_float_ou_mode_is_valid(self, tmp_path):
        cfg = all_checks_config(tmp_path, "ou_exactness", n_paths=50, extra="ou_modes = 1e0, 2")
        assert cli.main(["verify", "--config", cfg]) in (0, 1)
        assert [row["name"] for row in report_rows(tmp_path)] == [
            "ou_variance_mode1",
            "ou_variance_mode2",
        ]

    @pytest.mark.parametrize("phi", ["inverse_k", "white"])
    @pytest.mark.parametrize("count", [0, -3])
    def test_phi_count_below_one_is_config_error(self, tmp_path, capsys, phi, count):
        extra = f"phi = {phi}\nphi_count = {count}"
        cfg = all_checks_config(tmp_path, "ito_isometry", n_paths=50, extra=extra)
        assert cli.main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "experiment.phi_count" in err

    def test_single_mode_ignores_phi_count(self, tmp_path, draws):
        cfg = all_checks_config(tmp_path, "ito_isometry", n_paths=50, extra="phi_count = 0")
        assert cli.main(["verify", "--config", cfg]) in (0, 1)
        self.assert_each_row_once(draws, 50, 1)


# the benchmark's transport_paths command: K = 32, 1400 steps at dt and two paths
TRANSPORT_PATHS = """
[model]
kind = transport_heat
sigma = 1.0
[grid]
modes = 32
[scheme]
kind = heun_stratonovich
dt = 2.5e-06
[noise]
kind = white
[experiment]
t = 0.0035
u0 = cos
n_paths = 2
base_seed = 11
checks = mass_conservation, energy_identity, gronwall
[output]
prefix = transport
"""


def recorded_stream_calls(monkeypatch, draws=True) -> list:
    """Record each later ``stream_normals`` call; zeros in place of the draws unless ``draws``."""
    from spdekit import noise

    calls = []
    stream_normals = noise.stream_normals

    def counted(seed, streams, cols, chunk=0):
        calls.append((seed, tuple(streams), cols, chunk))
        if draws:
            return stream_normals(seed, streams, cols, chunk)
        return np.zeros((len(streams), cols))

    monkeypatch.setattr(noise, "stream_normals", counted)
    monkeypatch.setattr(verify, "stream_normals", counted)
    return calls


class TestStreamCalls:
    # a path reads each Philox counter block of its stream once per step it
    # is read at: dt for mass_conservation and gronwall, dt/2 for
    # energy_identity; and each Monte Carlo chunk is drawn once

    def count_calls(self, monkeypatch, tmp_path, config, draws=True):
        """The command's stream_normals calls; zeros in place of the draws unless ``draws``."""
        calls = recorded_stream_calls(monkeypatch, draws)
        code = cli.main(["verify", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 0 if draws else code in (0, 1)
        return len(calls)

    def test_transport_paths_command(self, monkeypatch, tmp_path):
        config = write_config(tmp_path / "c.ini", TRANSPORT_PATHS)
        # per path: 6 blocks of 1400 steps at dt, 11 of 2800 steps at dt/2
        assert self.count_calls(monkeypatch, tmp_path, config) == 2 * (6 + 11) == 34

    def test_transport_verify_config(self, monkeypatch, tmp_path):
        # the count does not depend on the values drawn, so zeros keep this short
        config = ROOT / "configs" / "transport_verify.ini"
        # per path: 79 blocks of 2 * 10^4 steps, 157 of 4 * 10^4; one chunk of 50 rows
        count = self.count_calls(monkeypatch, tmp_path, config, draws=False)
        assert count == 50 * (79 + 157) + 1 == 11_801


# (checks, key, value): a value of an [experiment] or [scheme] key that a
# verify check, or the regularity or burgers command, rejects before it draws anything
BAD_CHECK_VALUES = {
    "verify_dt_ladder_zero_rung": ("ito_strat", "dt_ladder", "0, 1e-3"),
    "verify_dt_ladder_one_rung": ("ito_strat", "dt_ladder", "1e-3"),
    "verify_dt_ladder_repeated_rung": ("ito_strat", "dt_ladder", "1e-3, 1e-3"),
    "verify_qv_intervals_zero": ("quadratic_variation", "qv_intervals", "0"),
    "verify_qv_intervals_negative": ("quadratic_variation", "qv_intervals", "-4"),
    "verify_qv_intervals_unaligned": ("quadratic_variation", "qv_intervals", "17"),
    "verify_ito_isometry_t_negative": ("ito_isometry", "t", "-1.0"),
    "verify_trace_identity_t_negative": ("trace_identity", "t", "-1.0"),
    "verify_quadratic_variation_t_negative": ("quadratic_variation", "t", "-1.0"),
    "verify_ou_exactness_dt_zero": ("ou_exactness", "dt", "0"),
    "verify_ou_exactness_dt_negative": ("ou_exactness", "dt", "-1e-3"),
    "verify_holder_exponent_base_time_negative": ("holder_exponent", "base_time", "-0.5"),
    "regularity_base_time_negative": ("", "base_time", "-0.5"),
    "verify_quadratic_variation_t_zero": ("quadratic_variation", "t", "0.0"),
    "verify_ito_strat_t_zero": ("ito_strat", "t", "0.0"),
    "verify_holder_exponent_one_lag": ("holder_exponent", "lags", "0.01"),
    "verify_holder_exponent_repeated_lag": ("holder_exponent", "lags", "0.01, 0.01"),
    "regularity_one_lag": ("", "lags", "0.01"),
    "verify_tolerance_multiplier_negative": ("trace_identity", "tolerance_multiplier", "-3"),
    "verify_tolerance_multiplier_zero": ("ito_isometry", "tolerance_multiplier", "0"),
    "verify_energy_identity_rel_tol_negative": ("energy_identity", "rel_tol", "-1"),
    "verify_energy_identity_rel_tol_zero": ("energy_identity", "rel_tol", "0"),
    "verify_quadratic_variation_rel_tol_negative": ("quadratic_variation", "rel_tol", "-1"),
    "verify_gronwall_slack_negative": ("gronwall", "slack", "-1"),
    # just past a bound: AT_THE_BOUND gives the value at it, which is accepted
    "verify_wiener_covariance_s_past_zero": ("wiener_covariance", "s", "-1e-12"),
    "verify_gronwall_slack_past_zero": ("gronwall", "slack", "-1e-12"),
    "verify_holder_exponent_base_time_past_zero": ("holder_exponent", "base_time", "-1e-12"),
    "regularity_base_time_past_zero": ("", "base_time", "-1e-12"),
    "verify_ito_isometry_phi_count_past_one": ("ito_isometry", "phi_count", "0\nphi = white"),
    "verify_mass_conservation_n_paths_past_one": ("mass_conservation", "n_paths", "0"),
    "burgers_n_paths_past_one": ("", "n_paths", "0"),
    "verify_trace_identity_t_past_zero": ("trace_identity", "t", "-1e-12"),
}

# the value at the bound of a case above: ">= 0" accepts 0 where "> 0" would not
AT_THE_BOUND = {
    "verify_wiener_covariance_s_past_zero": "0",
    "verify_gronwall_slack_past_zero": "0",
    "verify_holder_exponent_base_time_past_zero": "0",
    "regularity_base_time_past_zero": "0",
    "verify_ito_isometry_phi_count_past_one": "1\nphi = white",
    "verify_mass_conservation_n_paths_past_one": "1",
    "burgers_n_paths_past_one": "1",
    "verify_trace_identity_t_past_zero": "0.0",
}


def stepping_error_config(tmp_path, case, value=None):
    """(command, config path) of a configuration the stepping layer rejects.

    A ``value`` given, such as one of ``AT_THE_BOUND``, replaces the rejected
    value of a ``BAD_CHECK_VALUES`` case.
    """
    out = tmp_path / "o"
    burgers = (ROOT / "configs" / "burgers_ensemble.ini").read_text()
    burgers = burgers.replace("directory = out", f"directory = {out}")
    if case in BAD_CHECK_VALUES:
        checks, key, bad = BAD_CHECK_VALUES[case]
        command = case.partition("_")[0]
        if command == "burgers":
            text = burgers
        else:
            text = Path(all_checks_config(tmp_path, checks)).read_text()
        value = bad if value is None else value
        text, found = re.subn(rf"\n{key} = [^\n]*", f"\n{key} = {value}", text)
        if not found:  # a key the template leaves out joins [experiment]
            text = text.replace("\nchecks = ", f"\n{key} = {value}\nchecks = ")
        return command, write_config(tmp_path / "c.ini", text)
    sim = BASE_SIM.format(out=out)
    transport = "kind = transport_heat\nsigma = 1.0"
    if case == "simulate_transport_exact_ou":
        text = sim.replace("euler_maruyama", "exact_ou")
        return "simulate", write_config(tmp_path / "c.ini", text)
    if case == "verify_transport_exact_ou":
        return "verify", all_checks_config(tmp_path, "mass_conservation, gronwall", "exact_ou")
    if case == "simulate_reaction_diffusion_heun":
        text = sim.replace(transport, "kind = reaction_diffusion\ntheta = -1\nm = 3")
        text = text.replace("euler_maruyama", "heun_stratonovich")
        return "simulate", write_config(tmp_path / "c.ini", text)
    if case == "simulate_porous_medium_m3_exp_euler":
        text = sim.replace(transport, "kind = porous_medium\nm = 3")
        text = text.replace("euler_maruyama", "exponential_euler")
        return "simulate", write_config(tmp_path / "c.ini", text)
    if case == "simulate_dt_does_not_divide":
        return "simulate", write_config(tmp_path / "c.ini", sim.replace("dt = 1e-4", "dt = 3e-3"))
    if case == "verify_dt_does_not_divide":
        text = all_checks_config(tmp_path, "mass_conservation")
        return "verify", write_config(
            tmp_path / "c.ini", Path(text).read_text().replace("dt = 1e-4", "dt = 3e-3")
        )
    for suffix, sigma in (("_too_many_channels", "0.1, 0.1, 0.1, 0.1"), ("_negative_sigma", "-1.0")):
        if case.endswith(suffix):  # on K = 1: four intensities for 2K+1 = 3 channels, or one < 0
            command, _, checks = case[: -len(suffix)].partition("_")
            text = sim if command == "simulate" else Path(all_checks_config(tmp_path, checks)).read_text()
            text = re.sub(r"\nmodes = \d+", "\nmodes = 1", text)
            text = text.replace("sigma = 1.0", f"sigma = {sigma}")
            return command, write_config(tmp_path / "c.ini", text)
    nonfinite = re.fullmatch(r"(simulate|verify|burgers)_(t|dt)_(inf|nan)", case)
    if nonfinite:
        command, key, value = nonfinite.groups()
        text = {"simulate": sim, "burgers": burgers}.get(command)
        text = text or Path(all_checks_config(tmp_path, "mass_conservation")).read_text()
        return command, write_config(
            tmp_path / "c.ini", re.sub(rf"\n{key} = [^\n]*", f"\n{key} = {value}", text)
        )
    return "burgers", write_config(tmp_path / "c.ini", burgers.replace("dt = 2.5e-4", "dt = 3e-3"))


class TestSteppingConfigErrors:
    # a scheme that cannot step the model, a dt that does not divide the
    # horizon, a non-finite horizon or step, a negative transport intensity or
    # more of them than noise channels, or a ladder, partition count, time, step or
    # tolerance a check cannot use is a configuration error naming its key,
    # whatever the command

    @pytest.mark.parametrize(
        "case, key",
        [
            ("simulate_transport_exact_ou", "scheme.kind = exact_ou"),
            ("verify_transport_exact_ou", "scheme.kind = exact_ou"),
            ("simulate_reaction_diffusion_heun", "scheme.kind = heun_stratonovich"),
            ("simulate_porous_medium_m3_exp_euler", "scheme.kind = exponential_euler"),
            ("simulate_dt_does_not_divide", "scheme.dt / experiment.t"),
            ("verify_dt_does_not_divide", "scheme.dt / experiment.t"),
            ("burgers_dt_does_not_divide", "scheme.dt / experiment.t"),
            ("simulate_t_inf", "experiment.t"),
            ("simulate_t_nan", "experiment.t"),
            ("simulate_dt_inf", "scheme.dt"),
            ("simulate_dt_nan", "scheme.dt"),
            ("verify_t_inf", "experiment.t"),
            ("verify_dt_nan", "scheme.dt"),
            ("burgers_t_inf", "experiment.t"),
            ("burgers_t_nan", "experiment.t"),
            ("burgers_dt_inf", "scheme.dt"),
            ("simulate_too_many_channels", "model.sigma"),
            ("verify_mass_conservation_too_many_channels", "model.sigma"),
            ("verify_ito_strat_too_many_channels", "model.sigma"),
            ("simulate_negative_sigma", "model.sigma"),
            ("verify_mass_conservation_negative_sigma", "model.sigma"),
            ("verify_dt_ladder_zero_rung", "experiment.dt_ladder"),
            ("verify_dt_ladder_one_rung", "experiment.dt_ladder"),
            ("verify_dt_ladder_repeated_rung", "experiment.dt_ladder"),
            ("verify_qv_intervals_zero", "experiment.qv_intervals"),
            ("verify_qv_intervals_negative", "experiment.qv_intervals"),
            ("verify_qv_intervals_unaligned", "experiment.qv_intervals"),
            ("verify_ito_isometry_t_negative", "experiment.t"),
            ("verify_trace_identity_t_negative", "experiment.t"),
            ("verify_quadratic_variation_t_negative", "experiment.t"),
            ("verify_ou_exactness_dt_zero", "scheme.dt"),
            ("verify_ou_exactness_dt_negative", "scheme.dt"),
            ("verify_holder_exponent_base_time_negative", "experiment.base_time"),
            ("regularity_base_time_negative", "experiment.base_time"),
            ("verify_quadratic_variation_t_zero", "experiment.t"),
            ("verify_ito_strat_t_zero", "experiment.t"),
            ("verify_holder_exponent_one_lag", "experiment.lags"),
            ("verify_holder_exponent_repeated_lag", "experiment.lags"),
            ("regularity_one_lag", "experiment.lags"),
            ("verify_tolerance_multiplier_negative", "experiment.tolerance_multiplier"),
            ("verify_tolerance_multiplier_zero", "experiment.tolerance_multiplier"),
            ("verify_energy_identity_rel_tol_negative", "experiment.rel_tol"),
            ("verify_energy_identity_rel_tol_zero", "experiment.rel_tol"),
            ("verify_quadratic_variation_rel_tol_negative", "experiment.rel_tol"),
            ("verify_gronwall_slack_negative", "experiment.slack"),
            ("verify_wiener_covariance_s_past_zero", "experiment.s must be nonnegative"),
            ("verify_gronwall_slack_past_zero", "experiment.slack must be nonnegative"),
            (
                "verify_holder_exponent_base_time_past_zero",
                "experiment.base_time must be nonnegative",
            ),
            ("regularity_base_time_past_zero", "experiment.base_time must be nonnegative"),
            ("verify_ito_isometry_phi_count_past_one", "experiment.phi_count must be at least 1"),
            ("verify_mass_conservation_n_paths_past_one", "experiment.n_paths must be at least 1"),
            ("burgers_n_paths_past_one", "experiment.n_paths must be at least 1"),
            ("verify_trace_identity_t_past_zero", "experiment.t must be nonnegative"),
        ],
    )
    def test_exit_two_naming_the_key(self, tmp_path, capsys, case, key):
        command, cfg = stepping_error_config(tmp_path, case)
        assert cli.main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and key in err
        if case in AT_THE_BOUND:  # the bound itself is accepted
            _, cfg = stepping_error_config(tmp_path, case, AT_THE_BOUND[case])
            assert cli.main([command, "--config", cfg]) in (0, 1)
            assert capsys.readouterr().err == ""


# the checks that draw or step when they run, and which BAD_CHECK_VALUES keys they read
DRAWING_CHECKS = "energy_identity, ito_strat, quadratic_variation"
DRAWING_CHECK_KEYS = {
    "t", "dt", "dt_ladder", "qv_intervals", "rel_tol", "tolerance_multiplier", "n_paths"
}


class TestVerifyPlan:
    # every listed check is built before any check runs: a bad key of a check
    # listed after the three that draw or step stops the command before they do

    @pytest.mark.parametrize(
        "case",
        [
            case
            for case, (_, key, _) in BAD_CHECK_VALUES.items()
            if case.startswith("verify_") and key not in DRAWING_CHECK_KEYS
        ],
    )
    def test_bad_key_exits_before_any_draw(self, tmp_path, capsys, monkeypatch, case):
        checks, key, _ = BAD_CHECK_VALUES[case]
        _, cfg = stepping_error_config(tmp_path, case)
        listed = f"\nchecks = {DRAWING_CHECKS}, {checks}\n"
        text = Path(cfg).read_text().replace(f"\nchecks = {checks}\n", listed)
        assert listed in text
        calls = recorded_stream_calls(monkeypatch)
        assert cli.main(["verify", "--config", write_config(tmp_path / "c.ini", text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and f"experiment.{key}" in err
        assert calls == []


BURGERS_TEMPLATE = """
[model]
kind = burgers

[grid]
modes = 32

[scheme]
kind = exponential_euler
dt = 1e-3

[noise]
kind = {noise}

[experiment]
t = 0.05
w0 = sin
w0_amplitude = {amp}
n_paths = {n}
base_seed = 3
picard_maxit = {maxit}

[output]
directory = {out}
prefix = b
"""


class TestBurgers:
    def test_requires_burgers_model(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.ini",
            VERIFY_TEMPLATE.format(sigma="1.0", checks="", out=tmp_path / "o"),
        )
        assert cli.main(["burgers", "--config", cfg]) == 2
        assert "model.kind = burgers" in capsys.readouterr().err

    def test_ensemble_file_contract(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini",
            BURGERS_TEMPLATE.format(
                noise="mean_free_white", amp="0.5", n=3, maxit=25, out=tmp_path / "o"
            ),
        )
        assert cli.main(["burgers", "--config", cfg]) == 0
        files = sorted(p.name for p in (tmp_path / "o").glob("b_seed*.csv"))
        assert files == ["b_seed000.csv", "b_seed001.csv", "b_seed002.csv"]
        summary = (tmp_path / "o" / "b_summary.csv").read_text().strip().splitlines()
        assert len(summary) == 1 + 3 + 1  # header, three seeds, ensemble row
        assert summary[-1].startswith("ensemble,")

    def test_zero_horizon_writes_the_initial_row(self, tmp_path):
        text = BURGERS_TEMPLATE.format(
            noise="mean_free_white", amp="0.5", n=2, maxit=25, out=tmp_path / "o"
        ).replace("t = 0.05", "t = 0.0")
        assert cli.main(["burgers", "--config", write_config(tmp_path / "c.ini", text)]) == 0
        for i in range(2):
            lines = (tmp_path / "o" / f"b_seed00{i}.csv").read_text().strip().splitlines()
            assert len(lines) == 2  # the header and the row at t = 0
            t, *_, iters, residual = lines[1].split(",")
            assert float(t) == 0.0 and iters == "0" and float(residual) == 0.0
        summary = (tmp_path / "o" / "b_summary.csv").read_text().strip().splitlines()
        rows = [line.split(",") for line in summary[1:]]
        assert [row[0] for row in rows] == ["0", "1", "ensemble"]
        assert rows[-1][5:] == ["0", "%.17e" % 0.0]

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_seed_is_config_error(self, tmp_path, capsys, n):
        text = BURGERS_TEMPLATE.format(
            noise="mean_free_white", amp="0.5", n=n, maxit=25, out=tmp_path / "o"
        )
        assert cli.main(["burgers", "--config", write_config(tmp_path / "c.ini", text)]) == 2
        err = capsys.readouterr().err
        assert "experiment.n_paths must be at least 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("window", ["0", "-0.05"])
    def test_nonpositive_window_is_config_error(self, tmp_path, capsys, window):
        # a window <= 0 used to run one-step Picard windows and exit 0
        text = BURGERS_TEMPLATE.format(
            noise="mean_free_white", amp="0.5", n=1, maxit=25, out=tmp_path / "o"
        ).replace("picard_maxit", f"window = {window}\npicard_maxit")
        assert cli.main(["burgers", "--config", write_config(tmp_path / "c.ini", text)]) == 2
        err = capsys.readouterr().err
        assert "window must be positive" in err and "Traceback" not in err
        assert not (tmp_path / "o" / "b_seed000.csv").exists()

    @pytest.mark.parametrize("window", ["1e-4", "1.5e-3"])
    def test_window_of_zero_steps_is_config_error(self, tmp_path, capsys, window):
        # a window must be a whole number of steps: at dt = 1e-3, 1e-4 used to
        # run one-step windows and 1.5e-3 two-step windows, and exit 0
        text = BURGERS_TEMPLATE.format(
            noise="mean_free_white", amp="0.5", n=1, maxit=25, out=tmp_path / "o"
        ).replace("picard_maxit", f"window = {window}\npicard_maxit")
        assert "dt = 1e-3" in text
        assert cli.main(["burgers", "--config", write_config(tmp_path / "c.ini", text)]) == 2
        err = capsys.readouterr().err
        expected = f"experiment.window = {float(window)} is not a whole multiple of dt = 0.001"
        assert expected in err and "Traceback" not in err
        assert not (tmp_path / "o" / "b_seed000.csv").exists()

    def test_zero_noise_matches_reference(self, tmp_path):
        # the w column of a zero-noise run equals a directly computed remainder
        cfg = write_config(
            tmp_path / "c.ini",
            BURGERS_TEMPLATE.format(noise="list", amp="0.5", n=1, maxit=25, out=tmp_path / "o")
            .replace("kind = list", "kind = list\nvalues = 0.0"),
        )
        assert cli.main(["burgers", "--config", cfg]) == 0
        lines = (tmp_path / "o" / "b_seed000.csv").read_text().strip().splitlines()[1:]
        w_col = np.array([float(line.split(",")[2]) for line in lines])

        from conftest import sin_field
        from spdekit.burgers import BurgersProblem, solve_split
        from spdekit.noise import CovarianceSpec
        from spdekit.spectral import TorusGrid, lp_rows

        g = TorusGrid(32)
        q = CovarianceSpec.from_eigenvalues(g, np.zeros(33))
        prob = BurgersProblem(g, 0.05, 1e-3, sin_field(g, 0.5), q=q)
        w = solve_split(prob, 3, 0).w_path
        ref = lp_rows(w.states, prob.p, prob.quad_points)
        assert np.allclose(w_col, ref, rtol=1e-12, atol=1e-15)

    def test_picard_failure_names_the_window_of_solve_split(self, tmp_path, capsys):
        # the first window needing more than picard_maxit iterations is a later
        # one here; the command stops in the same window as the library solve
        from conftest import sin_field
        from spdekit.burgers import BurgersProblem, PicardError, solve_split
        from spdekit.spectral import TorusGrid

        g = TorusGrid(16)
        prob = BurgersProblem(g, 0.2, 1e-3, sin_field(g, 0.1), window=0.02)
        iters = solve_split(prob, 5).picard_iters
        maxit = 5
        failing = next(j for j, n in enumerate(iters) if n > maxit)
        assert failing > 0
        with pytest.raises(PicardError, match=f"window {failing}:"):
            solve_split(BurgersProblem(g, 0.2, 1e-3, sin_field(g, 0.1), window=0.02,
                                       picard_maxit=maxit), 5)
        text = BURGERS_TEMPLATE.format(
            noise="mean_free_white", amp="0.1", n=1, maxit=maxit, out=tmp_path / "o"
        ).replace("modes = 32", "modes = 16").replace("t = 0.05", "t = 0.2")
        text = text.replace("base_seed = 3", "base_seed = 5\nwindow = 0.02")
        assert cli.main(["burgers", "--config", write_config(tmp_path / "c.ini", text)]) == 3
        assert f"window {failing}:" in capsys.readouterr().err
        assert not (tmp_path / "o" / "b_seed000.csv").exists()

    def test_blow_up_of_the_linear_part_exits_three(self, tmp_path, capsys):
        text = BURGERS_TEMPLATE.format(noise="list", amp="0.5", n=1, maxit=25, out=tmp_path / "o")
        text = text.replace("kind = list", "kind = list\nvalues = 1e30")
        assert cli.main(["burgers", "--config", write_config(tmp_path / "c.ini", text)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: solution blew up at t = 0.001 (step 1" in err

    def test_peak_memory_does_not_grow_with_the_horizon(self, tmp_path):
        # K = 64: a seed's v, w and u paths are 3 * 16 * 65 B = 3.1 kB per
        # step; the command holds one 200-step window and 48 B of series per step
        def peak(t):
            text = BURGERS_TEMPLATE.format(
                noise="mean_free_white", amp="1.0", n=1, maxit=25, out=tmp_path / t
            ).replace("modes = 32", "modes = 64").replace("dt = 1e-3", "dt = 2.5e-4")
            cfg = write_config(tmp_path / f"c{t}.ini", text.replace("t = 0.05", f"t = {t}"))
            tracemalloc.start()
            try:
                assert cli.main(["burgers", "--config", cfg]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("0.25")  # first-call allocations
        short, long = peak("0.25"), peak("1.0")
        assert long <= 1.2 * short, (short, long)

    def test_picard_failure_exit_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.ini",
            BURGERS_TEMPLATE.format(
                noise="mean_free_white", amp="8.0", n=1, maxit=1, out=tmp_path / "o"
            ).replace("picard_maxit = 1", "picard_maxit = 1\npicard_tol = 1e-14"),
        )
        assert cli.main(["burgers", "--config", cfg]) == 3
        assert "window 0" in capsys.readouterr().err


REGULARITY_TEMPLATE = """
[model]
kind = additive_heat

[grid]
modes = 256

[scheme]
kind = exact_ou
dt = 1e-3

[noise]
kind = white

[experiment]
alpha = -0.25
base_seed = 1

[output]
directory = {out}
prefix = r
"""


class TestRegularity:
    def test_fit_report_and_curve(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", REGULARITY_TEMPLATE.format(out=tmp_path / "o"))
        assert cli.main(["regularity", "--config", cfg]) == 0
        rows = (tmp_path / "o" / "r_reports.csv").read_text().strip().splitlines()
        assert len(rows) == 2
        assert "holder_exponent" in rows[1]
        curve = (tmp_path / "o" / "r_structure.csv").read_text().strip().splitlines()
        assert curve[0] == "alpha,lag,structure"
        assert len(curve) == 1 + 7  # default dyadic ladder 2^-8 .. 2^-14

    def test_failed_fit_exits_one_with_every_report(self, tmp_path):
        # alpha = +0.25 misses the band at K = 256 (the strict xfail of c09)
        text = REGULARITY_TEMPLATE.format(out=tmp_path / "o").replace(
            "alpha = -0.25", "alpha = -0.25, 0.25"
        )
        cfg = write_config(tmp_path / "c.ini", text)
        assert cli.main(["regularity", "--config", cfg]) == 1
        rows = (tmp_path / "o" / "r_reports.csv").read_text().strip().splitlines()
        assert [r.split(",")[5] for r in rows[1:]] == ["true", "false"]
        manifest = json.loads((tmp_path / "o" / "r_manifest.json").read_text())
        assert manifest["outputs"] == ["r_reports.csv", "r_structure.csv"]

    def test_divergent_alpha_config_error(self, tmp_path, capsys):
        text = REGULARITY_TEMPLATE.format(out=tmp_path / "o").replace(
            "alpha = -0.25", "alpha = 0.75"
        )
        cfg = write_config(tmp_path / "c.ini", text)
        assert cli.main(["regularity", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "experiment.alpha" in err and "diverges" in err
