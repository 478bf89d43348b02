"""Scenario-driven command line: dispersion, lossmap, eit-spectrum, propagate.

Each subcommand loads one INI scenario, computes, then writes.  A ``cmd_*``
function only computes: it returns ``(tables, figures)``, mapping each CSV
file name to ``(header, rows)`` and, with ``--plot``, each SVG file name to
the keyword arguments of :func:`~polariton_lab.svgplot.line_plot`.
:func:`main` alone writes: every figure first, then every table through
:func:`~polariton_lab.csvio.write_csv` with the provenance footer, so a
failure in computing or drawing exits before any file is written.

Every sweep is a serial run of array passes in one process: one per
frequency band in ``dispersion``, one over the whole (magnetic-decoherence
ratio, frequency) grid in ``lossmap`` plus one batched abyss search over all
its ratios, one over the whole (control amplitude, detuning) grid in
``eit-spectrum``, and one :func:`~polariton_lab.propagation.propagate_pulse`
pass over the whole (distance, control amplitude) grid in ``propagate``.
Each table is the 2-D array the sweep built, and the plots take their
curves from its columns.  ``--jobs`` is accepted and ignored, so the output
is byte-identical for any ``--jobs`` value.  Exit codes: 0 success, 2
configuration error, 3 numeric failure, 4 I/O error.  Log lines go to
stderr as ``LEVEL key=value ...`` (never colored, so NO_COLOR is honored
trivially).
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
from .materials import DrudeParams, silver
from .propagation import PropagationScenario, delay_slope, propagate_pulse
from .quantization import DIPOLE_EA0, coupling_constant, mode_normalization
from .svgplot import line_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

Tables = dict[str, tuple[list[str], Any]]  # CSV file name -> (header, rows)
Figures = dict[str, dict[str, Any]]  # SVG file name -> line_plot keyword arguments


def log(level: str, **kv: Any) -> None:
    parts = [level] + [f"{k}={v}" for k, v in kv.items()]
    print(" ".join(parts), file=sys.stderr)


# ----------------------------------------------------------------- dispersion

def _band(cfg: ScenarioConfig) -> np.ndarray:
    band = cfg["band"]
    return np.linspace(
        band["omega_min_over_we"] * cfg.omega_e,
        band["omega_max_over_we"] * cfg.omega_e,
        band["n_points"],
    )


def cmd_dispersion(cfg: ScenarioConfig, plot: bool) -> tuple[Tables, Figures]:
    kappa0 = cfg["band"]["kappa0"]
    omegas = _band(cfg)
    pol = cfg.polarization
    point = sp_wavevector(cfg.medium1, cfg.medium2, omegas, pol)
    v0 = np.full(omegas.shape, math.nan)
    v0[point.bound] = group_velocity(cfg.medium1, cfg.medium2, omegas[point.bound], pol)
    bound = [  # bound_TM, bound_TE; a polarization with no mode is bound nowhere
        point.bound if p is pol else sp_wavevector(cfg.medium1, cfg.medium2, omegas, p).bound
        for p in Polarization
    ]
    columns = [omegas / cfg.omega_e, point.k_par, point.kappa, point.kappa / kappa0, v0]
    table = np.column_stack(columns + bound)
    header = [
        "omega_over_we[1]",
        "k_par[1/m]",
        "kappa[1/m]",
        "kappa_over_kappa0[1]",
        "v0[m/s]",
        "bound_TM[1]",
        "bound_TE[1]",
    ]
    figures = {}
    if plot:
        xs = table[:, 0]
        ours = np.abs(table[:, 3])
        ref = np.abs(sp_wavevector(cfg.medium1, silver(), omegas, Polarization.TM).kappa) / kappa0
        figures["fig_losses.svg"] = dict(
            curves=[(xs, ours, cfg.medium2.label or "medium2"), (xs, ref, "silver reference")],
            xlabel="omega/omega_e",
            ylabel="|kappa|/kappa0",
            title="surface-mode loss across the band",
            logy=True,
        )
    return {"dispersion.csv": (header, table)}, figures


# -------------------------------------------------------------------- lossmap

def cmd_lossmap(cfg: ScenarioConfig, plot: bool) -> tuple[Tables, Figures]:
    kappa0 = cfg["band"]["kappa0"]
    lm = cfg["lossmap"]
    omegas = _band(cfg)
    ratios = np.geomspace(lm["gamma_ratio_min"], lm["gamma_ratio_max"], lm["n_gamma"])
    # One medium 2 per ratio, as the rows of one batch: its magnetic loss
    # rate is the ratio times its own electric loss rate.
    m2 = cfg.medium2
    if not isinstance(m2.mu_model, DrudeParams):
        raise ConfigError(f"lossmap: medium 2 ({m2.label}) has no magnetic Drude pole to sweep")
    rates = ratios[:, None] * m2.epsilon_model.loss_rate
    m2 = replace(m2, mu_model=replace(m2.mu_model, loss_rate=rates))
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
    figures = {}
    if plot:
        blocks = map_table.reshape(ratios.size, omegas.size, len(header_map))
        curves = [
            (blocks[i][:, 1], np.abs(blocks[i][:, 2]), f"gamma_m/gamma_e={ratios[i]:.2g}")
            for i in sorted({0, ratios.size // 2, ratios.size - 1})
        ]
        # A lossless medium 2 has |kappa| = 0 throughout: a log axis would
        # have nothing to draw, so that map is drawn on a linear one.
        lossy = any(np.any(np.isfinite(y) & (y > 0)) for _, y, _ in curves)
        figures["fig_lossmap.svg"] = dict(
            curves=curves,
            xlabel="omega/omega_e",
            ylabel="|kappa|/kappa0",
            title="loss abyss vs magnetic decoherence",
            logy=lossy,
        )
    tables = {"lossmap.csv": (header_map, map_table), "abyss_track.csv": (header_track, track)}
    return tables, figures


# --------------------------------------------------------------- eit-spectrum

def _carrier_v0(cfg: ScenarioConfig) -> float:
    """The configured v0, or |group velocity| at the carrier: the speed along the
    energy flow, which a backward-wave (TE) mode carries against its phase."""
    v0 = cfg["pulse"]["v0"]
    if v0 == 0.0:
        omega31 = cfg["pulse"]["omega31_over_we"] * cfg.omega_e
        v0 = abs(group_velocity(cfg.medium1, cfg.medium2, omega31, cfg.polarization))
    return v0


def _resolve_alpha0(cfg: ScenarioConfig, v0: float | None = None) -> float:
    """alpha0: configured, or derived from the interface mode and ``v0``
    (:func:`_carrier_v0` when not given)."""
    eit = cfg["eit"]
    if eit["n"] == 0.0:
        return 0.0
    if not eit["alpha0_from_mode"]:
        return eit["alpha0"]
    v0 = _carrier_v0(cfg) if v0 is None else v0
    omega31 = cfg["pulse"]["omega31_over_we"] * cfg.omega_e
    point = sp_wavevector(cfg.medium1, cfg.medium2, omega31, cfg.polarization)
    norm = mode_normalization(cfg.medium1, cfg.medium2, point, eit["ly"])
    g = coupling_constant(norm, point, DIPOLE_EA0)
    params = cfg.lambda_params(eit["omega"][0])
    params = replace(params, k1s=abs(point.k1), k1c=abs(point.k1))
    return alpha_resonant(params, abs(g.g) ** 2, v0)


def cmd_eit_spectrum(cfg: ScenarioConfig, plot: bool) -> tuple[Tables, Figures]:
    eit = cfg["eit"]
    alpha0 = _resolve_alpha0(cfg)
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
    figures = {}
    if plot:
        per_omega = table.reshape(omegas.size, nus.size, len(header))
        figures["fig_eit_spectrum.svg"] = dict(
            curves=[
                (per_omega[i, :, 0], per_omega[i, :, 2], f"Omega/Gamma31={om / gamma31:.2g}")
                for i, om in enumerate(eit["omega"])
            ],
            xlabel="nu/Gamma31",
            ylabel="Re(alpha) x",
            title="transparency window of the layered probe",
        )
    return {"eit_spectrum.csv": (header, table)}, figures


# ------------------------------------------------------------------ propagate

def cmd_propagate(cfg: ScenarioConfig, plot: bool) -> tuple[Tables, Figures]:
    pulse = cfg["pulse"]
    v0 = _carrier_v0(cfg)
    gamma31 = cfg["eit"]["gamma31_linewidth"]
    delta_t = pulse["delta_t"]
    xs, omegas = np.array(pulse["x"]), np.array(pulse["omega"])
    scenario = PropagationScenario(  # grid row i is distance i, column j amplitude j
        delta_t=delta_t, x=xs[:, None], v0=v0, kappa31=pulse["kappa31"],
        alpha0=_resolve_alpha0(cfg, v0), eit=cfg.lambda_params(omegas),
        n_nu=pulse["n_nu"], nu_span=pulse["nu_span_factor"] / delta_t,
    )
    t, env, m = propagate_pulse(scenario)

    t_axis = t * gamma31
    mags = np.abs(env)
    header_profile = ["t_Gamma31[1]", "abs_envelope[1]"]
    tables = {
        f"pulse_x{i}_om{j}.csv": (header_profile, np.column_stack([t_axis, mags[i, j]]))
        for i, j in np.ndindex(mags.shape[:2])
    }
    grid = np.broadcast_arrays(xs[:, None], omegas / gamma31)
    columns = [*grid, m.delay / delta_t, m.amp_ratio, m.vg, m.l_sp]
    header_metrics = [
        "x[m]",
        "Omega_over_Gamma31[1]",
        "delay_over_dt[1]",
        "amp_ratio[1]",
        "vg[m/s]",
        "l_sp[m]",
    ]
    tables["metrics.csv"] = (header_metrics, np.column_stack([c.ravel() for c in columns]))
    if omegas.size >= 2:
        slopes = [delay_slope(omegas, delays, xi, v0) for xi, delays in zip(pulse["x"], m.delay)]
        slope_rows = [[xi, math.nan if k is None else k] for xi, k in zip(pulse["x"], slopes)]
        tables["slope.csv"] = (["x[m]", "delay_slope[1]"], slope_rows)

    figures = {}
    if plot:
        input_env = np.exp(-0.5 * np.float_power(t_axis / (delta_t * gamma31), 2))
        curves = [(t_axis, mags[i, 0], f"x={xi:g} m") for i, xi in enumerate(pulse["x"])]
        figures["fig_pulses.svg"] = dict(
            curves=[(t_axis, input_env, "input")] + curves,
            xlabel="t Gamma31",
            ylabel="|envelope|",
            title="slow-light propagation of the surface probe",
        )
    return tables, figures


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
        tables, figures = _COMMANDS[args.command](cfg, args.plot)
        footer = {"config_hash": cfg.config_hash, "tool_version": __version__}
        for name, kwargs in figures.items():
            line_plot(out / name, **kwargs)
        csvs = [write_csv(out / name, *table, footer) for name, table in tables.items()]
        log("INFO", cmd=args.command, tables=len(csvs), figures=len(figures), out=str(out))
        if args.validate:
            for f in csvs:
                if not round_trip_ok(f):
                    log("ERROR", validate=str(f), status="round-trip-mismatch")
                    return EXIT_IO
            log("INFO", validate="ok", files=len(csvs))
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
