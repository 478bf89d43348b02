"""Command-line front end: validation, determinism, round-trip, exit codes."""

import configparser
import math
from pathlib import Path

import numpy as np
import pytest

from _abyss_oracle import check_against_oracle, lossmap_tables

from polariton_lab import __version__, cli
from polariton_lab.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from polariton_lab.config import SCHEMA, load_config
from polariton_lab.csvio import read_csv, round_trip_ok, write_csv
from polariton_lab.dispersion import Polarization, sp_wavevector
from polariton_lab.eit import alpha_closed, alpha_quadrature
from polariton_lab.errors import ConfigError
from polariton_lab.materials import OMEGA_E_SILVER, DrudeParams, dielectric, nimm

ROOT = Path(__file__).resolve().parents[1]

SMALL = """
[band]
n_points = 16

[eit]
n_nu = 11
omega = 0.5e9, 1e9

[lossmap]
n_gamma = 3

[pulse]
n_nu = 1024
x = 1e-3
omega = 1e9
"""


@pytest.fixture
def small_config(tmp_path):
    cfg = tmp_path / "small.ini"
    cfg.write_text(SMALL)
    return cfg


def test_defaults_config_loads():
    cfg = load_config(None)
    assert cfg.medium2.label == "nimm"
    assert cfg.omega_e == OMEGA_E_SILVER
    assert len(cfg.config_hash) == 16


def test_unknown_key_rejected(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[band]\nnpoints = 3\n")
    with pytest.raises(ConfigError, match="band.npoints"):
        load_config(bad)


def test_unknown_section_rejected(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[bands]\nn_points = 3\n")
    with pytest.raises(ConfigError, match="bands"):
        load_config(bad)


def test_invalid_value_reported_with_path(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[pulse]\ndelta_t = ten\n")
    with pytest.raises(ConfigError, match="pulse.delta_t"):
        load_config(bad)


def test_empty_band_grid_rejected(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[band]\nn_points = 0\n")
    with pytest.raises(ConfigError, match="n_points"):
        load_config(bad)


def test_cli_exit_codes(tmp_path, small_config):
    assert main(["dispersion", "--config", str(small_config),
                 "--out", str(tmp_path / "o1"), "--jobs", "1"]) == EXIT_OK
    bad = tmp_path / "bad.ini"
    bad.write_text("[band]\nn_points = 0\n")
    assert main(["dispersion", "--config", str(bad),
                 "--out", str(tmp_path / "o2")]) == EXIT_CONFIG
    assert main(["dispersion", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path / "o3")]) == EXIT_CONFIG


def test_numeric_failure_exit_code(tmp_path):
    # a carrier where the interface binds no TM mode passes config validation,
    # but the derived v0 then has no mode to come from
    bad = tmp_path / "n.ini"
    bad.write_text("[pulse]\nn_nu = 1024\nx = 1e-3\nomega = 1e9\nomega31_over_we = 0.2\n")
    assert main(["propagate", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == EXIT_NUMERIC


@pytest.mark.parametrize(
    "text, path",
    [
        ("[pulse]\nn_nu = 1000\n", "pulse.n_nu"),
        ("[pulse]\nn_nu = 512\n", "pulse.n_nu"),
        ("[pulse]\nnu_span_factor = 5\n", "pulse.nu_span_factor"),
        ("[eit]\nalpha0_from_mode = true\n[band]\npolarization = TE\n", "eit.alpha0_from_mode"),
    ],
)
def test_run_time_failures_rejected_at_load(tmp_path, text, path, capsys):
    # each of these used to load and then fail inside the subcommand (exit 3)
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    with pytest.raises(ConfigError, match=path):
        load_config(bad)
    for cmd in ("eit-spectrum", "propagate"):
        assert main([cmd, "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"kind=config detail={path}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cmd, text, path",
    [
        ("eit-spectrum", "[eit]\nomega = nan\n", "eit.omega"),
        ("eit-spectrum", "[eit]\nomega = 1e9, inf\n", "eit.omega"),
        ("propagate", "[eit]\ngamma21 = nan\n", "eit.gamma21"),
        ("eit-spectrum", "[eit]\nz0 = nan\n", "eit.z0"),
        ("eit-spectrum", "[eit]\nz0 = -inf\n", "eit.z0"),
        ("dispersion", "[band]\nkappa0 = inf\n", "band.kappa0"),
        ("dispersion", "[materials]\nepsilon1 = nan\n", "materials.epsilon1"),
        ("propagate", "[pulse]\nx = 1e-3, nan\n", "pulse.x"),
        ("propagate", "[pulse]\nkappa31 = 1e400\n", "pulse.kappa31"),
    ],
    ids=lambda v: v.split("\n")[1].replace(" ", "") if "\n" in v else None,
)
def test_non_finite_value_rejected_with_path(tmp_path, cmd, text, path, capsys):
    # "x < 0" style checks pass NaN: these used to run and write silent nonsense
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    out = tmp_path / "o"
    assert main([cmd, "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
    assert f"kind=config detail={path}: not a finite number" in capsys.readouterr().err
    assert not out.exists()


# One value per ruled SCHEMA key that breaks that key's rule.
_VIOLATIONS = {
    "materials.epsilon1": "0",
    "materials.mu1": "-1",
    "materials.preset2": "nimm",
    "materials.omega_e": "0",
    "materials.gamma_e": "-1",
    "materials.magnetic": "lorentz",
    "materials.omega_m": "0",
    "materials.gamma_m": "-1",
    "materials.mu2": "-1",
    "band.omega_min_over_we": "0",
    "band.omega_max_over_we": "-0.5",
    "band.n_points": "1",
    "band.polarization": "TEM",
    "band.kappa0": "0",
    "lossmap.gamma_ratio_min": "0",
    "lossmap.gamma_ratio_max": "-1",
    "lossmap.n_gamma": "0",
    "eit.n": "-1",
    "eit.z0": "0",
    "eit.gamma21": "-1e-3",
    "eit.gamma31_linewidth": "0",
    "eit.k1s": "0",
    "eit.k1c": "-1e6",
    "eit.ly": "0",
    "eit.alpha0": "-1",
    "eit.omega": "1e9, -1",
    "eit.x": "0",
    "eit.nu_span_over_gamma31": "0",
    "eit.n_nu": "1",
    "pulse.delta_t": "0",
    "pulse.x": "1e-3, 0",
    "pulse.omega": "0",
    "pulse.kappa31": "-1",
    "pulse.v0": "-1",
    "pulse.omega31_over_we": "0",
    "pulse.n_nu": "1536",
    "pulse.nu_span_factor": "9.99",
}


def test_every_ruled_key_has_a_violation():
    ruled = {f"{s}.{k}" for s, keys in SCHEMA.items() for k, (_, _, rule) in keys.items() if rule}
    assert set(_VIOLATIONS) == ruled


@pytest.mark.parametrize("path, raw", sorted(_VIOLATIONS.items()))
def test_rule_violation_is_a_config_error_naming_its_key(tmp_path, capsys, path, raw):
    section, key = path.split(".")
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[{section}]\n{key} = {raw}\n")
    out = tmp_path / "o"
    assert main(["dispersion", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
    text, _ = SCHEMA[section][key][2]
    assert f"kind=config detail={path}: must be {text}" in capsys.readouterr().err
    assert not out.exists()


def test_every_default_satisfies_its_rule():
    for section, keys in SCHEMA.items():
        for key, (_, default, rule) in keys.items():
            if rule is not None:
                _, ok = rule
                assert all(map(ok, default if isinstance(default, tuple) else (default,))), key


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "ini", [None, *sorted((ROOT / "scenarios").glob("*.ini"))], ids=lambda p: getattr(p, "name", p)
)
def test_loading_a_shipped_config_warns_about_nothing(ini):
    load_config(ini)


@pytest.mark.filterwarnings("error")
def test_band_subcommands_do_not_build_the_eit_layer(tmp_path):
    # gamma21 near Gamma31 makes the layer warn; only its subcommands build it
    cfg = tmp_path / "c.ini"
    cfg.write_text("[eit]\ngamma21 = 5e8\n[band]\nn_points = 16\n[lossmap]\nn_gamma = 2\n")
    for cmd in ("dispersion", "lossmap"):
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd)]) == EXIT_OK


def test_reference_ini_lists_every_key_at_its_default():
    ini = ROOT / "scenarios" / "reference.ini"
    parser = configparser.RawConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(ini, encoding="utf-8")
    assert {s: set(parser[s]) for s in parser.sections()} == {s: set(k) for s, k in SCHEMA.items()}
    ref, defaults = load_config(ini), load_config(None)
    assert ref.values == defaults.values
    assert ref.config_hash == defaults.config_hash


def test_semi_infinite_layer_is_the_one_non_finite_value(tmp_path):
    cfg_file = tmp_path / "thick.ini"
    cfg_file.write_text("[eit]\nz0 = inf\nn_nu = 11\n")
    cfg = load_config(cfg_file)
    out = tmp_path / "o"
    assert main(["eit-spectrum", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
    table = np.array(read_csv(out / "eit_spectrum.csv")[1])
    nus = np.linspace(-5e9, 5e9, 11)
    want = alpha_closed(cfg.lambda_params(1e9), cfg["eit"]["alpha0"], nus).alpha * cfg["eit"]["x"]
    assert np.all(np.isfinite(table)) and np.all(table[:, 2] > 0)
    assert np.array_equal(table[:, 2], want.real)


def test_io_failure_exit_code(tmp_path, small_config):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    assert main(["dispersion", "--config", str(small_config),
                 "--out", str(blocker)]) == EXIT_IO


def test_shipped_scenarios_parse_and_run(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    silver_ini = root / "scenarios" / "silver.ini"
    cfg = load_config(silver_ini)
    assert cfg.medium2.label == "silver"
    out = tmp_path / "ag"
    assert main(["dispersion", "--config", str(silver_ini), "--out", str(out),
                 "--jobs", "1"]) == EXIT_OK
    _, rows, _ = read_csv(out / "dispersion.csv")
    kappas = [r[2] for r in rows]
    # metal baseline: loss grows monotonically across the band, no abyss
    assert all(b > a > 0 for a, b in zip(kappas, kappas[1:]))
    for ini in ("reference.ini", "control_sweep.ini"):
        load_config(root / "scenarios" / ini)


def test_abyss_track_hits_reference_point(tmp_path):
    cfg = tmp_path / "a.ini"
    ratio = 1e11 / 2.73e13
    cfg.write_text(
        f"[lossmap]\ngamma_ratio_min = {ratio}\ngamma_ratio_max = {ratio}\n"
        "n_gamma = 1\n\n[band]\nn_points = 64\n"
    )
    out = tmp_path / "out"
    assert main(["lossmap", "--config", str(cfg), "--out", str(out),
                 "--jobs", "1"]) == EXIT_OK
    _, rows, _ = read_csv(out / "abyss_track.csv")
    assert rows[0][1] == pytest.approx(0.40916, abs=5e-4)


def test_dispersion_csv_contents(tmp_path, small_config):
    out = tmp_path / "disp"
    assert main(["dispersion", "--config", str(small_config), "--out", str(out),
                 "--jobs", "1", "--validate"]) == EXIT_OK
    header, rows, footer = read_csv(out / "dispersion.csv")
    assert header[0] == "omega_over_we[1]"
    assert len(rows) == 16
    assert "config_hash" in footer and "tool_version" in footer
    # spot-check one row against the library
    x, k_par, kappa, kk0, v0, b_tm, b_te = rows[7]
    dp = sp_wavevector(dielectric(), nimm(), x * OMEGA_E_SILVER)
    assert k_par == pytest.approx(dp.k_par, rel=1e-12)
    assert kappa == pytest.approx(dp.kappa, rel=1e-12)
    assert b_tm == (1.0 if dp.bound else 0.0)


def test_jobs_determinism(tmp_path, small_config):
    """Identical configs produce byte-identical CSVs at any worker count."""
    outs = []
    for jobs, name in ((1, "j1"), (3, "j3")):
        out = tmp_path / name
        assert main(["dispersion", "--config", str(small_config),
                     "--out", str(out), "--jobs", str(jobs)]) == EXIT_OK
        assert main(["propagate", "--config", str(small_config),
                     "--out", str(out), "--jobs", str(jobs)]) == EXIT_OK
        outs.append(out)
    for name in ("dispersion.csv", "metrics.csv", "pulse_x0_om0.csv"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, name


def test_lossmap_outputs(tmp_path, small_config):
    out = tmp_path / "lm"
    assert main(["lossmap", "--config", str(small_config), "--out", str(out),
                 "--jobs", "1"]) == EXIT_OK
    header, rows, _ = read_csv(out / "lossmap.csv")
    assert len(rows) == 3 * 16
    # corner spot-check against a direct evaluation
    ratio, x, kk0 = rows[0]
    m2 = nimm(gamma_m=ratio * 2.73e13)
    dp = sp_wavevector(dielectric(), m2, x * OMEGA_E_SILVER, Polarization.TM)
    assert kk0 == pytest.approx(dp.kappa / 1e4, rel=1e-12)

    header_t, rows_t, _ = read_csv(out / "abyss_track.csv")
    assert len(rows_t) == 3
    for ratio, x0, kmin in rows_t:
        if not math.isnan(x0):
            assert 0.3 < x0 < 0.5


@pytest.mark.parametrize(
    "n_gamma, plotted", [(1, [1e-5]), (2, [1e-5, 1.0]), (3, [1e-5, 10**-2.5, 1.0])]
)
def test_lossmap_plot_draws_each_ratio_once(tmp_path, n_gamma, plotted):
    cfg = tmp_path / "lm.ini"
    cfg.write_text(f"[band]\nn_points = 16\n[lossmap]\nn_gamma = {n_gamma}\n")
    out = tmp_path / "lm"
    assert main(["lossmap", "--config", str(cfg), "--out", str(out), "--plot"]) == EXIT_OK
    svg = (out / "fig_lossmap.svg").read_text()
    assert svg.count("<polyline") == len(plotted)
    for ratio in plotted:
        assert svg.count(f">gamma_m/gamma_e={ratio:.2g}<") == 1


def test_eit_spectrum_matches_quadrature(tmp_path, small_config):
    out = tmp_path / "eit"
    assert main(["eit-spectrum", "--config", str(small_config), "--out", str(out),
                 "--validate"]) == EXIT_OK
    header, rows, _ = read_csv(out / "eit_spectrum.csv")
    assert len(rows) == 2 * 11
    cfg = load_config(small_config)
    alpha0 = cfg["eit"]["alpha0"]
    x = cfg["eit"]["x"]
    gamma31 = cfg["eit"]["gamma31_linewidth"]
    for row in rows[::5]:
        nu_over, om_over, re_ax, im_ax, re_g, im_g = row
        p = cfg.lambda_params(om_over * gamma31)
        gsq_v0 = alpha0 * p.k1s * p.Gamma31 / (math.pi * p.n * p.Ly)
        ref = alpha_quadrature(p, gsq_v0, nu_over * gamma31) * x
        assert complex(re_ax, im_ax) == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize(
    "ini", sorted((ROOT / "scenarios").glob("*.ini")), ids=lambda path: path.name
)
def test_eit_spectrum_bytes_equal_per_omega_calls(tmp_path, ini):
    # The grid call must write what one alpha_closed call per control
    # amplitude writes, byte for byte.
    out = tmp_path / "grid"
    assert main(["eit-spectrum", "--config", str(ini), "--out", str(out)]) == EXIT_OK
    cfg = load_config(ini)
    eit = cfg["eit"]
    alpha0 = cli._resolve_alpha0(cfg)
    gamma31 = eit["gamma31_linewidth"]
    span = eit["nu_span_over_gamma31"] * gamma31
    nus = np.linspace(-span, span, eit["n_nu"])
    rows = []
    for om in eit["omega"]:
        resp = alpha_closed(cfg.lambda_params(om), alpha0, nus)
        columns = [
            nus / gamma31,
            np.full(nus.shape, om / gamma31),
            resp.alpha.real * eit["x"],
            resp.alpha.imag * eit["x"],
            resp.G.real,
            resp.G.imag,
        ]
        rows += np.column_stack(columns).tolist()
    header, _, _ = read_csv(out / "eit_spectrum.csv")
    footer = {"config_hash": cfg.config_hash, "tool_version": __version__}
    per_omega = write_csv(tmp_path / "per_omega.csv", header, rows, footer)
    assert (out / "eit_spectrum.csv").read_bytes() == per_omega.read_bytes()


def test_eit_spectrum_zero_density(tmp_path):
    cfg = tmp_path / "z.ini"
    cfg.write_text("[eit]\nn = 0\nn_nu = 5\n")
    out = tmp_path / "out"
    assert main(["eit-spectrum", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    _, rows, _ = read_csv(out / "eit_spectrum.csv")
    for row in rows:
        assert row[2] == 0.0 and row[3] == 0.0


def test_propagate_outputs_and_slope(tmp_path):
    cfg = tmp_path / "p.ini"
    cfg.write_text("[pulse]\nn_nu = 1024\nx = 1e-3\nomega = 0.5e9, 1e9, 2e9, 4e9\n")
    out = tmp_path / "out"
    assert main(["propagate", "--config", str(cfg), "--out", str(out),
                 "--jobs", "2", "--validate"]) == EXIT_OK
    _, rows, _ = read_csv(out / "metrics.csv")
    assert len(rows) == 4
    _, slope_rows, _ = read_csv(out / "slope.csv")
    assert slope_rows[0][1] == pytest.approx(-2.0, abs=0.2)


def test_failed_plot_writes_no_file(tmp_path, capsys):
    # no loss at any ratio: every |kappa| is zero, so the log-y lossmap
    # figure has nothing to draw, and its tables must not be left behind
    cfg = tmp_path / "lossless.ini"
    cfg.write_text("[materials]\npreset2 = custom\ngamma_e = 0\ngamma_m = 0\n"
                   "[band]\nn_points = 64\n[lossmap]\nn_gamma = 3\n")
    out = tmp_path / "out"
    assert main(["lossmap", "--config", str(cfg), "--out", str(out), "--plot"]) == EXIT_NUMERIC
    assert "nothing to plot" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("cmd", sorted(cli._COMMANDS))
@pytest.mark.parametrize(
    "ini", sorted((ROOT / "scenarios").glob("*.ini")), ids=lambda path: path.name
)
def test_main_writes_what_the_command_returns(tmp_path, ini, cmd):
    # each cmd_* only computes; main writes its tables with the run's footer
    # and draws its figures, and writes nothing else
    out = tmp_path / "out"
    code = main([cmd, "--config", str(ini), "--out", str(out), "--plot"])
    cfg = load_config(ini)
    if code == EXIT_CONFIG:  # silver: no magnetic pole for lossmap to sweep
        with pytest.raises(ConfigError):
            cli._COMMANDS[cmd](cfg, True)
        assert list(out.iterdir()) == []
        return
    assert code == EXIT_OK
    tables, figures = cli._COMMANDS[cmd](cfg, True)
    footer = {"config_hash": cfg.config_hash, "tool_version": __version__}
    want = tmp_path / "want"
    for name, (header, rows) in tables.items():
        write_csv(want / name, header, rows, footer)
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(tables)
    for name in tables:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name
    assert sorted(p.name for p in out.glob("*.svg")) == sorted(figures)
    assert len(list(out.iterdir())) == len(tables) + len(figures)


def test_propagate_aliasing_writes_no_pulse_file(tmp_path, capsys):
    # the second distance parks the pulse on the time-grid edge: the whole
    # grid fails before any file is written
    cfg = tmp_path / "alias.ini"
    cfg.write_text("[pulse]\nn_nu = 1024\nx = 1e-4, 1e-3\nv0 = 125\n")
    out = tmp_path / "out"
    assert main(["propagate", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
    assert list(out.iterdir()) == []
    assert "(x = 0.001 m, Omega = 1e+09 rad/s)" in capsys.readouterr().err


def test_te_propagate_follows_the_energy_flow(tmp_path):
    # the TE mode is a backward wave (group velocity < 0); the pulse travels
    # along its energy flow at |vg|
    cfg = tmp_path / "te.ini"
    cfg.write_text("[band]\npolarization = TE\n\n[pulse]\nn_nu = 1024\n")
    out = tmp_path / "out"
    assert main(["propagate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    _, rows, _ = read_csv(out / "metrics.csv")
    assert len(rows) == 2
    assert all(row[4] > 0 for row in rows)
    assert rows[0][2] == pytest.approx(2.0, rel=0.01)  # delay/dt at 1 mm


@pytest.mark.filterwarnings("error")
def test_te_dispersion_on_a_non_magnetic_metal_has_no_mode(tmp_path):
    # mu1 = mu2 = 1: the TE relation is degenerate at every frequency, so
    # the TE run writes NaN mode columns and binds nowhere instead of failing
    tables = {}
    for pol in ("TE", "TM"):
        cfg = tmp_path / f"{pol}.ini"
        cfg.write_text(
            f"[materials]\npreset2 = silver\n\n[band]\npolarization = {pol}\nn_points = 64\n"
        )
        out = tmp_path / pol
        assert main(["dispersion", "--config", str(cfg), "--out", str(out), "--plot"]) == EXIT_OK
        tables[pol] = np.array(read_csv(out / "dispersion.csv")[1])
    te, tm = tables["TE"], tables["TM"]
    assert te.shape == (64, 7)
    assert np.isnan(te[:, 1:5]).all()  # k_par, kappa, kappa_over_kappa0, v0
    assert (te[:, 6] == 0).all()
    assert te[:, 5].tolist() == tm[:, 5].tolist() and tm[:, 5].any()


def test_eit_spectrum_needs_no_bound_mode_at_the_carrier(tmp_path):
    # no TM mode binds at omega31 = 0.2 omega_e; eit-spectrum has no use for
    # the carrier's group velocity, so it runs and writes the default rows
    outs = []
    for name, text in (("default", ""), ("unbound", "[pulse]\nomega31_over_we = 0.2\n")):
        (tmp_path / f"{name}.ini").write_text("[eit]\nn_nu = 11\n\n" + text)
        out = tmp_path / name
        assert main(["eit-spectrum", "--config", str(tmp_path / f"{name}.ini"),
                     "--out", str(out)]) == EXIT_OK
        outs.append(read_csv(out / "eit_spectrum.csv")[:2])
    assert outs[0] == outs[1]


def test_propagate_zero_density_row(tmp_path):
    cfg = tmp_path / "p0.ini"
    cfg.write_text("[eit]\nn = 0\n\n[pulse]\nn_nu = 1024\nx = 1e-3\nomega = 1e9\n")
    out = tmp_path / "out"
    assert main(["propagate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    _, rows, _ = read_csv(out / "metrics.csv")
    x, _, delay_over_dt, amp, vg, _ = rows[0]
    cfgv = load_config(cfg)
    assert amp == pytest.approx(math.exp(-100.0 * 1e-3), abs=1e-6)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[1.0, math.pi, 1e-300], [float("nan"), float("inf"), -0.0]]
    write_csv(path, ["a[1]", "b[1]", "c[1]"], rows, {"k": "v"})
    assert round_trip_ok(path)
    header, parsed, footer = read_csv(path)
    assert parsed[0][1] == math.pi
    assert math.isnan(parsed[1][0])
    assert footer == {"k": "v"}


def test_plot_files_written(tmp_path, small_config):
    out = tmp_path / "plots"
    assert main(["dispersion", "--config", str(small_config), "--out", str(out),
                 "--plot", "--jobs", "1"]) == EXIT_OK
    svg = (out / "fig_losses.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


_ONE_RATIO = "[lossmap]\nn_gamma = 1\ngamma_ratio_min = 3e-3\n\n[band]\nn_points = 200\n"
_TE_LOSSMAP = "[band]\npolarization = TE\nn_points = 64\n\n[lossmap]\nn_gamma = 5\n"
_CUSTOM = ("[materials]\npreset2 = custom\ngamma_e = 5e13\nomega_m = 6.6e15\n\n"
           "[band]\nn_points = 64\n\n[lossmap]\nn_gamma = 5\n")
_NO_MAGNETIC_POLE = "[materials]\npreset2 = custom\nmagnetic = constant\n"


@pytest.mark.parametrize(
    "ini",
    [ROOT / "scenarios" / name for name in ("reference.ini", "silver.ini", "control_sweep.ini")]
    + [_ONE_RATIO, _TE_LOSSMAP, _CUSTOM, _NO_MAGNETIC_POLE],
)
def test_lossmap_bytes_equal_per_ratio_oracle(tmp_path, ini, capsys):
    if isinstance(ini, str):
        (tmp_path / "lossmap.ini").write_text(ini)
        ini = tmp_path / "lossmap.ini"
    out = tmp_path / "out"
    cfg = load_config(ini)
    if not isinstance(cfg.medium2.mu_model, DrudeParams):  # silver: no magnetic pole to sweep
        assert main(["lossmap", "--config", str(ini), "--out", str(out)]) == EXIT_CONFIG
        assert "kind=config detail=lossmap: medium 2" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        return
    assert main(["lossmap", "--config", str(ini), "--out", str(out)]) == EXIT_OK
    map_rows, track = lossmap_tables(cfg)
    footer = {"config_hash": cfg.config_hash, "tool_version": __version__}
    want = tmp_path / "want"
    want.mkdir()
    write_csv(want / "lossmap.csv", ["gamma_m_over_gamma_e[1]", "omega_over_we[1]",
                                     "kappa_over_kappa0[1]"], map_rows, footer)
    assert (out / "lossmap.csv").read_bytes() == (want / "lossmap.csv").read_bytes()
    # the search and the oracle are different algorithms: the track agrees to tolerance
    header, rows, got_footer = read_csv(out / "abyss_track.csv")
    assert header == ["gamma_m_over_gamma_e[1]", "omega0_over_we[1]", "kappa0_min_over_kappa0[1]"]
    assert got_footer == footer and len(rows) == len(track)
    for (ratio, omega0, kappa0), (want_ratio, m2, (abyss, crossing)) in zip(rows, track):
        assert ratio == want_ratio
        check_against_oracle(omega0 * cfg.omega_e, kappa0 * cfg["band"]["kappa0"], abyss,
                             crossing, cfg.medium1, m2, cfg.polarization)


def test_lossmap_honours_te_polarization(tmp_path):
    (tmp_path / "te.ini").write_text(_TE_LOSSMAP)
    out = tmp_path / "out"
    assert main(["lossmap", "--config", str(tmp_path / "te.ini"), "--out", str(out)]) == EXIT_OK
    _, rows, _ = read_csv(out / "lossmap.csv")
    blocks = np.array(rows).reshape(5, 64, 3)
    omegas = cli._band(load_config(tmp_path / "te.ini"))
    for block in blocks:
        m2 = nimm(gamma_m=block[0, 0] * 2.73e13)
        te = sp_wavevector(dielectric(), m2, omegas, Polarization.TE).kappa
        tm = sp_wavevector(dielectric(), m2, omegas, Polarization.TM).kappa
        assert block[:, 2].tobytes() == (te / 1e4).tobytes()
        assert not np.any(te == tm)  # not the TM map
