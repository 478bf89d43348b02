#!/usr/bin/env python3
"""Spectral response of the surface probe inside the control layer.

Evaluates the complex absorption alpha(nu) = alpha0 * G(nu) of the reference
layer for several control amplitudes, cross-checks the closed form against
direct quadrature of the layer integral, and shows how the coupling chain
(per-photon amplitude -> coupling constant -> resonant absorption) produces
alpha0 from the interface mode itself.
"""

import math
import warnings
from pathlib import Path

import numpy as np

from polariton_lab import (
    DIPOLE_EA0,
    LambdaMediumParams,
    alpha_closed,
    alpha_quadrature,
    alpha_resonant,
    coupling_constant,
    dielectric,
    group_velocity,
    mode_normalization,
    nimm,
    sp_wavevector,
)
from polariton_lab.csvio import write_csv
from polariton_lab.materials import OMEGA_E_SILVER as WE
from polariton_lab.svgplot import line_plot

OUT = Path(__file__).resolve().parent / "out"
GAMMA31 = 1e9
ALPHA0 = 1e7
X = 1e-3

print("== alpha0 derived from the interface mode ==")
m1, m2 = dielectric(), nimm()
omega31 = 0.4092 * WE
dp = sp_wavevector(m1, m2, omega31)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # Re(Lz) < 0 near the cancellation point
    mn = mode_normalization(m1, m2, dp, 2.5e-6)
cc = coupling_constant(mn, dp, DIPOLE_EA0)
v0 = group_velocity(m1, m2, omega31)
p_mode = LambdaMediumParams(k1s=abs(dp.k1), k1c=abs(dp.k1))
alpha0_mode = alpha_resonant(p_mode, abs(cc.g) ** 2, v0)
print(f"E0 = {mn.E0:.1f} V/m per photon (|Lz| = {abs(mn.Lz) * 1e6:.2f} um)")
print(f"|g| = {abs(cc.g):.3e} rad/s for |d| = e*a0")
print(f"alpha0 from the mode = {alpha0_mode * 1e-6:.1f} 1/um "
      f"(reference scenarios use the supplied {ALPHA0 * 1e-6:.0f} 1/um)")

print("== transparency window vs control amplitude ==")
nus = np.linspace(-5 * GAMMA31, 5 * GAMMA31, 401)
scales = np.array([0.5, 1.0, 2.0])
# one call over the (control amplitude, detuning) grid: row i is scales[i]
window = alpha_closed(LambdaMediumParams(Omega=scales[:, None] * GAMMA31), ALPHA0, nus)
re_ax = window.alpha.real * X
rows = np.column_stack([
    np.tile(nus / GAMMA31, scales.size),
    np.repeat(scales, nus.size),
    re_ax.ravel(),
    (window.alpha.imag * X).ravel(),
])
curves = [(nus / GAMMA31, re_ax[i], f"Omega = {scale:g} Gamma31")
          for i, scale in enumerate(scales)]
floor = alpha_closed(LambdaMediumParams(Omega=scales * GAMMA31), ALPHA0, 0.0).alpha.real
for scale, f in zip(scales, floor):
    print(f"Omega = {scale:3g} Gamma31: residual Re alpha(0) * x = {f * X:.2e}")

write_csv(
    OUT / "eit_spectrum.csv",
    ["nu_over_Gamma31[1]", "Omega_over_Gamma31[1]", "Re_alpha_x[1]", "Im_alpha_x[1]"],
    rows,
)
line_plot(
    OUT / "transparency_window.svg",
    curves,
    xlabel="nu/Gamma31",
    ylabel="Re(alpha) x",
    title="control field opening the transparency window",
)

print("== closed form vs direct layer quadrature ==")
p = LambdaMediumParams()
gsq_v0 = ALPHA0 * p.k1s * p.Gamma31 / (math.pi * p.n * p.Ly)
detunings = np.linspace(-3 * GAMMA31, 3 * GAMMA31, 31)
closed = alpha_closed(p, ALPHA0, detunings).alpha
worst = 0.0
for nu, val in zip(detunings, closed):
    ref = alpha_quadrature(p, gsq_v0, float(nu))
    worst = max(worst, abs(val - ref) / max(abs(ref), 1e-300))
print(f"worst relative deviation over 31 detunings: {worst:.2e}")
print(f"files written under {OUT}")
