#!/usr/bin/env python3
"""How the loss abyss moves with the magnetic decoherence rate.

Scans gamma_m over five decades, tracks the cancellation frequency and the
residual loss floor, and emits the landscape as CSV plus an SVG of selected
cuts.  The valley drifts to lower frequency and eventually leaves the band as
magnetic loss approaches the electric loss rate.
"""

from pathlib import Path

import numpy as np

from polariton_lab import AbyssNotFoundError, dielectric, find_abyss, nimm, sp_wavevector
from polariton_lab.csvio import write_csv
from polariton_lab.materials import GAMMA_E_SILVER, OMEGA_E_SILVER as WE
from polariton_lab.svgplot import line_plot

OUT = Path(__file__).resolve().parent / "out"
KAPPA0 = 1e4

m1 = dielectric()
xs = np.linspace(0.3, 0.5, 501)
ratios = np.geomspace(1e-5, 1.0, 11)

track_rows = []
curves = []
for ratio in ratios:
    m2 = nimm(gamma_m=float(ratio) * GAMMA_E_SILVER)
    try:
        abyss = find_abyss(m1, m2, (0.3 * WE, 0.5 * WE))
        track_rows.append([ratio, abyss.omega0 / WE, abs(abyss.kappa_at_omega0) / KAPPA0])
        print(f"gamma_m/gamma_e = {ratio:8.1e}: omega0/we = {abyss.omega0 / WE:.5f}, "
              f"|kappa|min/kappa0 = {abs(abyss.kappa_at_omega0) / KAPPA0:.2e}")
    except AbyssNotFoundError:
        track_rows.append([ratio, float("nan"), float("nan")])
        print(f"gamma_m/gamma_e = {ratio:8.1e}: no interior cancellation in the band")

write_csv(
    OUT / "abyss_track.csv",
    ["gamma_m_over_gamma_e[1]", "omega0_over_we[1]", "abs_kappa_min_over_kappa0[1]"],
    track_rows,
)

for ratio in (1e-4, 3.66e-3, 0.1):
    m2 = nimm(gamma_m=ratio * GAMMA_E_SILVER)
    ys = np.abs(sp_wavevector(m1, m2, xs * WE).kappa) / KAPPA0
    curves.append((xs, ys, f"gamma_m/gamma_e = {ratio:.2g}"))
line_plot(
    OUT / "loss_landscape_cuts.svg",
    curves,
    xlabel="omega/omega_e",
    ylabel="|kappa|/kappa0",
    title="abyss valley drifting with magnetic decoherence",
    logy=True,
)
print(f"files written under {OUT}")
