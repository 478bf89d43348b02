"""Command-line front end: validation, determinism, round-trip, exit codes."""

import math
from pathlib import Path

import numpy as np
import pytest

from _abyss_oracle import lossmap_tables

from polariton_lab import __version__, cli
from polariton_lab.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from polariton_lab.config import load_config
from polariton_lab.csvio import read_csv, round_trip_ok, write_csv
from polariton_lab.dispersion import Polarization, sp_wavevector
from polariton_lab.eit import alpha_closed, alpha_quadrature
from polariton_lab.errors import ConfigError
from polariton_lab.materials import OMEGA_E_SILVER, dielectric, nimm

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
    alpha0, _ = cli._resolve_alpha0_v0(cfg)
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
    per_omega = write_csv(tmp_path / "per_omega.csv", header, rows, cli._footer(cfg))
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


@pytest.mark.parametrize(
    "ini",
    [ROOT / "scenarios" / name for name in ("reference.ini", "silver.ini", "control_sweep.ini")]
    + [_ONE_RATIO, _TE_LOSSMAP],
)
def test_lossmap_bytes_equal_per_ratio_oracle(tmp_path, ini):
    if isinstance(ini, str):
        (tmp_path / "lossmap.ini").write_text(ini)
        ini = tmp_path / "lossmap.ini"
    out = tmp_path / "out"
    assert main(["lossmap", "--config", str(ini), "--out", str(out)]) == EXIT_OK
    cfg = load_config(ini)
    map_rows, track_rows = lossmap_tables(cfg)
    footer = {"config_hash": cfg.config_hash, "tool_version": __version__}
    want = tmp_path / "want"
    want.mkdir()
    write_csv(want / "lossmap.csv", ["gamma_m_over_gamma_e[1]", "omega_over_we[1]",
                                     "kappa_over_kappa0[1]"], map_rows, footer)
    write_csv(want / "abyss_track.csv", ["gamma_m_over_gamma_e[1]", "omega0_over_we[1]",
                                         "kappa0_min_over_kappa0[1]"], track_rows, footer)
    for name in ("lossmap.csv", "abyss_track.csv"):
        assert (out / name).read_bytes() == (want / name).read_bytes(), name


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
