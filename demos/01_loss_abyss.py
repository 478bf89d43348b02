#!/usr/bin/env python3
"""Loss cancellation at a dielectric/negative-index interface.

Sweeps the TM surface-mode dispersion across the band, compares the loss
against the dielectric/silver interface, locates the cancellation frequency
and prints the operating-point numbers (group velocity, transverse
constants).  Writes dispersion.csv and an SVG overlay next to this script.
"""

from pathlib import Path

import numpy as np

from polariton_lab import (
    dielectric,
    find_abyss,
    group_velocity,
    loss_cancellation_residual,
    nimm,
    silver,
    sp_wavevector,
)
from polariton_lab.csvio import write_csv
from polariton_lab.materials import OMEGA_E_SILVER as WE
from polariton_lab.svgplot import line_plot

OUT = Path(__file__).resolve().parent / "out"
KAPPA0 = 1e4

m1 = dielectric()
m2 = nimm()

print("== loss across the band (TM) ==")
xs = np.linspace(0.3, 0.5, 801)
nim = sp_wavevector(m1, m2, xs * WE)
loss_nim = np.abs(nim.kappa) / KAPPA0
loss_met = np.abs(sp_wavevector(m1, silver(), xs * WE).kappa) / KAPPA0
write_csv(
    OUT / "dispersion.csv",
    ["omega_over_we[1]", "k_par[1/m]", "kappa[1/m]", "abs_kappa_nimm_over_kappa0[1]",
     "abs_kappa_silver_over_kappa0[1]"],
    np.column_stack([xs, nim.k_par, nim.kappa, loss_nim, loss_met]),
)
line_plot(
    OUT / "loss_comparison.svg",
    [(xs, loss_nim, "dielectric/NIMM"), (xs, loss_met, "dielectric/silver")],
    xlabel="omega/omega_e",
    ylabel="|kappa|/kappa0",
    title="surface-mode loss: the abyss vs the metal baseline",
    logy=True,
)

print("== cancellation point ==")
abyss = find_abyss(m1, m2, (0.3 * WE, 0.5 * WE))
print(f"omega0/omega_e      = {abyss.omega0 / WE:.6f}")
print(f"kappa(omega0)       = {abyss.kappa_at_omega0:.3e} 1/m")
print(f"interference residual = {abyss.residual:.4f}  (cancellation: {abyss.is_cancellation})")
print(f"residual at 0.42 we  = {loss_cancellation_residual(m1, m2, 0.42 * WE):.3f} (off-point)")

print("== operating point, just above omega0 ==")
omega31 = 0.4092 * WE
dp = sp_wavevector(m1, m2, omega31)
v0 = group_velocity(m1, m2, omega31)
print(f"k_par = {dp.k_par:.4e} 1/m, kappa = {dp.kappa:.3e} 1/m (|kappa|/kappa0 = {abs(dp.kappa)/KAPPA0:.2e})")
print(f"k1 = {dp.k1:.4e} 1/m (|k1| = {abs(dp.k1):.3e}), k2 = {dp.k2:.4e} 1/m")
print(f"group velocity v0 = {v0:.4e} m/s = {v0 / 299792458.0:.4f} c")
print(f"files written under {OUT}")
