"""Scenario-driven command line: dispersion, lossmap, eit-spectrum, propagate.

Each subcommand loads one INI scenario, runs the corresponding sweep and
writes deterministic CSV files.  Every sweep is a serial run of array passes
in one process: one per frequency band in ``dispersion``, one over the
whole (magnetic-decoherence ratio, frequency) grid in ``lossmap`` plus one
batched abyss search over all its ratios, one over the whole (control
amplitude, detuning) grid in ``eit-spectrum``, and in ``propagate`` one
layer response per control amplitude, shared by the pulses at every
distance.  Each table goes to :func:`~polariton_lab.csvio.write_csv` as the
2-D array the sweep built, and the plots take their curves from its columns.
``--jobs`` is accepted and ignored, so the output is byte-identical for any
``--jobs`` value.  ``--plot`` adds minimal SVG renderings drawn from the rows
already computed.  Exit codes: 0 success, 2 configuration error, 3 numeric
failure, 4 I/O error.  Log lines go to stderr as ``LEVEL key=value ...``
(never colored, so NO_COLOR is honored trivially).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .config import ScenarioConfig, load_config
from .csvio import round_trip_ok, write_csv
from .dispersion import (
    Polarization,
    find_abyss,
    group_velocity,
    sp_wavevector,
)
from .eit import alpha_closed, alpha_resonant
from .errors import ConfigError, NumericError
from .materials import nimm, silver
from .propagation import (
    PropagationScenario,
    delay_slope,
    frequency_grid,
    layer_alpha,
    propagate_pulse,
)
from .quantization import DIPOLE_EA0, coupling_constant, mode_normalization
from .svgplot import line_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def log(level: str, **kv: Any) -> None:
    parts = [level] + [f"{k}={v}" for k, v in kv.items()]
    print(" ".join(parts), file=sys.stderr)


def _footer(cfg: ScenarioConfig) -> dict[str, str]:
    return {"config_hash": cfg.config_hash, "tool_version": __version__}


# ----------------------------------------------------------------- dispersion

def _band(cfg: ScenarioConfig) -> np.ndarray:
    band = cfg["band"]
    return np.linspace(
        band["omega_min_over_we"] * cfg.omega_e,
        band["omega_max_over_we"] * cfg.omega_e,
        band["n_points"],
    )


def _bound(cfg: ScenarioConfig, omegas: np.ndarray, pol: Polarization) -> np.ndarray:
    """Bound flags of ``pol`` across the band; a degenerate interface binds nowhere."""
    try:
        return sp_wavevector(cfg.medium1, cfg.medium2, omegas, pol).bound
    except NumericError:
        return np.zeros(omegas.shape, dtype=bool)


def cmd_dispersion(cfg: ScenarioConfig, out: Path, plot: bool) -> list[Path]:
    kappa0 = cfg["band"]["kappa0"]
    omegas = _band(cfg)
    pol = cfg.polarization
    point = sp_wavevector(cfg.medium1, cfg.medium2, omegas, pol)
    v0 = np.full(omegas.shape, math.nan)
    v0[point.bound] = group_velocity(cfg.medium1, cfg.medium2, omegas[point.bound], pol)
    bound_tm = point.bound if pol is Polarization.TM else _bound(cfg, omegas, Polarization.TM)
    bound_te = point.bound if pol is Polarization.TE else _bound(cfg, omegas, Polarization.TE)
    columns = [omegas / cfg.omega_e, point.k_par, point.kappa, point.kappa / kappa0, v0]
    table = np.column_stack(columns + [bound_tm, bound_te])
    header = [
        "omega_over_we[1]",
        "k_par[1/m]",
        "kappa[1/m]",
        "kappa_over_kappa0[1]",
        "v0[m/s]",
        "bound_TM[1]",
        "bound_TE[1]",
    ]
    files = [write_csv(out / "dispersion.csv", header, table, _footer(cfg))]
    log("INFO", cmd="dispersion", points=len(table), out=str(files[0]))

    if plot:
        xs = table[:, 0]
        ours = np.abs(table[:, 3])
        ref = np.abs(sp_wavevector(cfg.medium1, silver(), omegas, Polarization.TM).kappa) / kappa0
        files.append(
            line_plot(
                out / "fig_losses.svg",
                [(xs, ours, cfg.medium2.label or "medium2"), (xs, ref, "silver reference")],
                xlabel="omega/omega_e",
                ylabel="|kappa|/kappa0",
                title="surface-mode loss across the band",
                logy=True,
            )
        )
    return files


# -------------------------------------------------------------------- lossmap

def cmd_lossmap(cfg: ScenarioConfig, out: Path, plot: bool) -> list[Path]:
    kappa0 = cfg["band"]["kappa0"]
    lm = cfg["lossmap"]
    omegas = _band(cfg)
    if lm["n_gamma"] == 1:
        ratios = np.array([lm["gamma_ratio_min"]])
    else:
        ratios = np.geomspace(lm["gamma_ratio_min"], lm["gamma_ratio_max"], lm["n_gamma"])
    # One medium per ratio, as the rows of one batch.
    m2 = nimm(gamma_m=ratios[:, None] * cfg["materials"]["gamma_e"],
              omega_m=cfg["materials"]["omega_m"])
    pol = cfg.polarization
    kappa = sp_wavevector(cfg.medium1, m2, omegas, pol).kappa
    abyss = find_abyss(cfg.medium1, m2, (float(omegas[0]), float(omegas[-1])), pol)

    map_table = np.column_stack([
        np.repeat(ratios, omegas.size),
        np.tile(omegas / cfg.omega_e, ratios.size),
        (kappa / kappa0).ravel(),
    ])
    track = np.column_stack([ratios, abyss.omega0 / cfg.omega_e, abyss.kappa_at_omega0 / kappa0])
    header_map = ["gamma_m_over_gamma_e[1]", "omega_over_we[1]", "kappa_over_kappa0[1]"]
    header_track = ["gamma_m_over_gamma_e[1]", "omega0_over_we[1]", "kappa0_min_over_kappa0[1]"]
    files = [
        write_csv(out / "lossmap.csv", header_map, map_table, _footer(cfg)),
        write_csv(out / "abyss_track.csv", header_track, track, _footer(cfg)),
    ]
    log("INFO", cmd="lossmap", gammas=len(ratios), points=len(map_table))

    if plot:
        blocks = map_table.reshape(ratios.size, omegas.size, len(header_map))
        curves = [
            (blocks[i][:, 1], np.abs(blocks[i][:, 2]), f"gamma_m/gamma_e={ratios[i]:.2g}")
            for i in (0, len(ratios) // 2, len(ratios) - 1)
        ]
        files.append(
            line_plot(
                out / "fig_lossmap.svg",
                curves,
                xlabel="omega/omega_e",
                ylabel="|kappa|/kappa0",
                title="loss abyss vs magnetic decoherence",
                logy=True,
            )
        )
    return files


# --------------------------------------------------------------- eit-spectrum

def _resolve_alpha0_v0(cfg: ScenarioConfig) -> tuple[float, float]:
    """alpha0 and v0: configured values, or derived from the interface mode."""
    eit = cfg["eit"]
    pulse = cfg["pulse"]
    omega31 = pulse["omega31_over_we"] * cfg.omega_e
    v0 = pulse["v0"]
    if v0 == 0.0:
        v0 = group_velocity(cfg.medium1, cfg.medium2, omega31, cfg.polarization)
    alpha0 = eit["alpha0"]
    if eit["n"] == 0.0:
        return 0.0, v0
    if eit["alpha0_from_mode"]:
        point = sp_wavevector(cfg.medium1, cfg.medium2, omega31, cfg.polarization)
        norm = mode_normalization(cfg.medium1, cfg.medium2, point, eit["ly"])
        g = coupling_constant(norm, point, DIPOLE_EA0)
        params = cfg.lambda_params(eit["omega"][0])
        params = replace(params, k1s=abs(point.k1), k1c=abs(point.k1))
        alpha0 = alpha_resonant(params, abs(g.g) ** 2, v0)
    return alpha0, v0


def cmd_eit_spectrum(cfg: ScenarioConfig, out: Path, plot: bool) -> list[Path]:
    eit = cfg["eit"]
    alpha0, _ = _resolve_alpha0_v0(cfg)
    gamma31 = eit["gamma31_linewidth"]
    span = eit["nu_span_over_gamma31"] * gamma31
    nus = np.linspace(-span, span, eit["n_nu"])
    x = eit["x"]

    omegas = np.array(eit["omega"], dtype=float)
    grid = np.broadcast_to(nus, (omegas.size, nus.size))  # row i is control amplitude i
    resp = alpha_closed(cfg.lambda_params(omegas[:, None]), alpha0, grid)
    columns = [
        grid / gamma31,
        np.repeat(omegas / gamma31, nus.size),
        resp.alpha.real * x,
        resp.alpha.imag * x,
        resp.G.real,
        resp.G.imag,
    ]
    table = np.column_stack([c.ravel() for c in columns])
    header = [
        "nu_over_Gamma31[1]",
        "Omega_over_Gamma31[1]",
        "Re_alpha_x[1]",
        "Im_alpha_x[1]",
        "Re_G[1]",
        "Im_G[1]",
    ]
    files = [write_csv(out / "eit_spectrum.csv", header, table, _footer(cfg))]
    log("INFO", cmd="eit-spectrum", omegas=len(eit["omega"]), points=len(table))

    if plot:
        per_omega = table.reshape(omegas.size, nus.size, len(header))
        curves = [
            (per_omega[i, :, 0], per_omega[i, :, 2], f"Omega/Gamma31={om / gamma31:.2g}")
            for i, om in enumerate(eit["omega"])
        ]
        files.append(
            line_plot(
                out / "fig_eit_spectrum.svg",
                curves,
                xlabel="nu/Gamma31",
                ylabel="Re(alpha) x",
                title="transparency window of the layered probe",
            )
        )
    return files


# ------------------------------------------------------------------ propagate

def cmd_propagate(cfg: ScenarioConfig, out: Path, plot: bool) -> list[Path]:
    pulse = cfg["pulse"]
    alpha0, v0 = _resolve_alpha0_v0(cfg)
    gamma31 = cfg["eit"]["gamma31_linewidth"]
    delta_t = pulse["delta_t"]

    files: list[Path] = []
    header_profile = ["t_Gamma31[1]", "abs_envelope[1]"]
    metrics_rows = []
    slope_rows = []
    curves = []  # the first control amplitude's envelope at each distance
    # alpha does not depend on the distance: one kernel pass per control
    # amplitude serves every distance.  (One pass over the whole grid, as in
    # eit-spectrum, gives the same bits but holds every amplitude's kernel
    # arrays at once, for no measured gain in speed.)
    alphas = []
    for i_x, xi in enumerate(pulse["x"]):
        delays = []
        for i_om, om in enumerate(pulse["omega"]):
            scenario = PropagationScenario(
                delta_t=delta_t,
                x=xi,
                v0=v0,
                kappa31=pulse["kappa31"],
                alpha0=alpha0,
                eit=cfg.lambda_params(om),
                n_nu=pulse["n_nu"],
                nu_span=pulse["nu_span_factor"] / delta_t,
            )
            if i_x == 0:
                alphas.append(layer_alpha(scenario.eit, alpha0, frequency_grid(scenario)[0]))
            t, env, m = propagate_pulse(scenario, alphas[i_om])
            profile = np.column_stack([t * gamma31, np.abs(env)])
            path = out / f"pulse_x{i_x}_om{i_om}.csv"
            files.append(write_csv(path, header_profile, profile, _footer(cfg)))
            metrics_rows.append([xi, om / gamma31, m.delay / delta_t, m.amp_ratio, m.vg, m.l_sp])
            delays.append(m.delay)
            if i_om == 0:
                curves.append((profile[:, 0], profile[:, 1], f"x={xi:g} m"))
        slope = delay_slope(pulse["omega"], delays, xi, v0)
        slope_rows.append([xi, math.nan if slope is None else slope])

    header_metrics = [
        "x[m]",
        "Omega_over_Gamma31[1]",
        "delay_over_dt[1]",
        "amp_ratio[1]",
        "vg[m/s]",
        "l_sp[m]",
    ]
    files.append(write_csv(out / "metrics.csv", header_metrics, metrics_rows, _footer(cfg)))
    if len(pulse["omega"]) >= 2:
        files.append(
            write_csv(out / "slope.csv", ["x[m]", "delay_slope[1]"], slope_rows, _footer(cfg))
        )
    log("INFO", cmd="propagate", runs=len(metrics_rows), out=str(out))

    if plot:
        t_axis = curves[0][0]
        input_env = np.exp(-0.5 * np.float_power(t_axis / (delta_t * gamma31), 2))
        files.append(
            line_plot(
                out / "fig_pulses.svg",
                [(t_axis, input_env, "input")] + curves,
                xlabel="t Gamma31",
                ylabel="|envelope|",
                title="slow-light propagation of the surface probe",
            )
        )
    return files


# ----------------------------------------------------------------------- main

_COMMANDS = {
    "dispersion": cmd_dispersion,
    "lossmap": cmd_lossmap,
    "eit-spectrum": cmd_eit_spectrum,
    "propagate": cmd_propagate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polariton-lab",
        description="surface-polariton dispersion, loss control and slow-light sweeps",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", type=Path, default=None, help="scenario INI file")
    parser.add_argument("--plot", action="store_true", help="also write SVG plots")
    parser.add_argument(
        "--jobs", type=int, default=1, help="accepted and ignored; every sweep runs serially"
    )
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument(
        "--validate", action="store_true", help="re-read outputs and check byte round-trip"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = args.out if args.out is not None else Path(cfg["output"]["directory"])
        out.mkdir(parents=True, exist_ok=True)
        log("INFO", cmd=args.command, config=str(args.config), hash=cfg.config_hash, out=str(out))
        files = _COMMANDS[args.command](cfg, out, args.plot)
        if args.validate:
            for f in files:
                if f.suffix == ".csv" and not round_trip_ok(f):
                    log("ERROR", validate=str(f), status="round-trip-mismatch")
                    return EXIT_IO
            log("INFO", validate="ok", files=len(files))
    except ConfigError as exc:
        log("ERROR", kind="config", detail=str(exc))
        return EXIT_CONFIG
    except (NumericError, ValueError) as exc:
        log("ERROR", kind="numeric", detail=str(exc))
        return EXIT_NUMERIC
    except OSError as exc:
        log("ERROR", kind="io", detail=str(exc))
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
