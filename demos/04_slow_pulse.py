#!/usr/bin/env python3
"""Slow-light propagation of a Gaussian surface probe through the layer.

Reproduces the reference pulse scenarios: a 100 ns pulse crossing 1 mm and
3 mm of interface with the control at Omega = Gamma31 arrives delayed by
2 and 6 pulse widths with peak amplitudes ~0.89 and ~0.70, i.e. a group
velocity near 5 km/s, and the delay scales as 1/Omega^2.
"""

from pathlib import Path

import numpy as np

from polariton_lab import (
    LambdaMediumParams,
    PropagationScenario,
    delay_vs_control,
    propagate_pulse,
)
from polariton_lab.csvio import write_csv
from polariton_lab.svgplot import line_plot

OUT = Path(__file__).resolve().parent / "out"
GAMMA31 = 1e9
DT = 100e-9
V0 = 0.627 * 299792458.0


def scenario(x, omega_rabi=GAMMA31):
    return PropagationScenario(
        delta_t=DT, x=x, v0=V0, kappa31=100.0, alpha0=1e7,
        eit=LambdaMediumParams(Omega=omega_rabi),
    )


print("== reference distances at Omega = Gamma31 ==")
curves = []
profiles = []
for x in (1e-3, 3e-3):
    t, env, m = propagate_pulse(scenario(x))
    keep = slice(None, None, 4)
    t_gamma, amp = t[keep] * GAMMA31, np.abs(env)[keep]
    curves.append((t_gamma, amp, f"x = {x * 1e3:g} mm"))
    profiles.append(np.column_stack([np.full(amp.size, x), t_gamma, amp]))
    print(f"x = {x * 1e3:g} mm: delay = {m.delay / DT:.2f} dt, amplitude = {m.amp_ratio:.3f}, "
          f"vg = {m.vg:.0f} m/s, l_sp = {m.l_sp * 1e3:.2f} mm, width ratio = {m.width_ratio:.3f}")

t_in = np.linspace(-4 * DT, 10 * DT, 600)
curves.insert(0, (t_in * GAMMA31, np.exp(-0.5 * (t_in / DT) ** 2), "input"))
line_plot(
    OUT / "slow_pulse.svg",
    curves,
    xlabel="t Gamma31",
    ylabel="|envelope|",
    title="probe pulse crawling through the control layer",
)
write_csv(
    OUT / "pulse_profiles.csv",
    ["x[m]", "t_Gamma31[1]", "abs_envelope[1]"],
    np.concatenate(profiles),
)

print("== delay scaling with the control amplitude ==")
sweep = delay_vs_control(scenario(1e-3), [0.5e9, 1e9, 2e9, 4e9])
for row in sweep.rows:
    print(f"Omega/Gamma31 = {row.Omega / GAMMA31:3g}: delay = {row.delay / DT:6.2f} dt, "
          f"amplitude = {row.amp_ratio:.3f}")
print(f"fitted log-log slope: {sweep.slope:.3f}  (inverse-square control scaling)")
write_csv(
    OUT / "delay_vs_control.csv",
    ["Omega_over_Gamma31[1]", "delay_over_dt[1]", "amp_ratio[1]"],
    [[r.Omega / GAMMA31, r.delay / DT, r.amp_ratio] for r in sweep.rows],
    {"slope": f"{sweep.slope:.6f}"},
)
print(f"files written under {OUT}")
