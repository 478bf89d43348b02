"""Seeded scenario generator for the benchmark workloads.

Each workload is a fixed list of scenarios (one CLI invocation each).  The
seed draws the physical parameters; the mix properties (the b = 1 share, the
silver/nimm share, the ``alpha0_from_mode`` share, which subcommand runs on
which scenario) are constants of the workload, never drawn.

Parameters that set the cost of an op (control amplitudes, detuning span,
b, magnetic plasma frequency and loss) are drawn stratified: scenario j of n
takes its value from the j-th of n equal slices of the range, jittered inside
the slice by the seed.  One pass over the list therefore costs about the same
on every seed, so the spread of a timing across seeds measures the machine
and the program, not the draw.
Parameters that do not change the cost (distances) span their whole range.

Ranges are those of the shipped ``scenarios/*.ini`` files (``control_sweep``
spans Omega over 0.5e9..4e9 rad/s and x over 1e-3..3e-3 m; the lossmap spans
gamma_m/gamma_e over 1e-5..1), with the exceptions noted per workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

OMEGA_E = 1.37e16  # electric plasma frequency of the silver/nimm presets
GAMMA_E = 2.73e13  # electric loss rate of the silver/nimm presets

# Keys every scenario states explicitly, so that the output checks can read
# the physics from the scenario instead of relying on config defaults.
_EIT_BASE = {
    "n": 1e24,
    "z0": 1e-8,
    "gamma21": 1e3,
    "gamma31_linewidth": 1e9,
    "k1c": 1e6,
    "ly": 2.5e-6,
    "alpha0": 1e7,
}
_PULSE_BASE = {
    "delta_t": 1e-7,
    "kappa31": 1e2,
    "v0": 0.0,
    "omega31_over_we": 0.4092,
    "n_nu": 4096,
    "nu_span_factor": 40.0,
}
_BAND_BASE = {
    "omega_min_over_we": 0.3,
    "omega_max_over_we": 0.5,
    "n_points": 512,
    "polarization": "TM",
    "kappa0": 1e4,
}
_LOSSMAP_BASE = {"gamma_ratio_min": 1e-5, "gamma_ratio_max": 1.0, "n_gamma": 13}


@dataclass
class Scenario:
    """One op: a CLI subcommand on one generated INI."""

    sid: str
    command: str
    plot: bool
    config: dict[str, dict[str, object]]

    def ini(self) -> str:
        lines = []
        for section, keys in self.config.items():
            lines.append(f"[{section}]")
            for key, value in keys.items():
                lines.append(f"{key} = {_fmt(value)}")
            lines.append("")
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def _slice(rng: random.Random, lo: float, hi: float, j: int, k: int, log: bool) -> float:
    """A value in the j-th of k equal slices of [lo, hi] (log-spaced if ``log``)."""
    u = (j + rng.random()) / k
    if log:
        return float(lo * (hi / lo) ** u)
    return float(lo + (hi - lo) * u)


def _materials(preset2: str, gamma_m: float = 1e11, omega_m: float = 0.5 * OMEGA_E) -> dict:
    return {
        "epsilon1": 1.3,
        "mu1": 1.0,
        "preset2": preset2,
        "gamma_m": gamma_m,
        "omega_m": omega_m,
    }


def pulse_sweep(seed: int) -> list[Scenario]:
    """``propagate`` with 2 distances x 2 control amplitudes on 4096 bins.

    Scenario 0 has b = k1s/k1c = 1 and scenario 1 a non-integer b, so the
    b = 1 share is 1/2.  Omega stays above 0.8e9 rad/s (the shipped range
    starts at 0.5e9) so that every kernel argument lies in the |z| > 2
    region.  The non-integer b is drawn in 1.3..1.7, away from the integers;
    there the kernel costs about twice what it costs at b = 1.
    """
    rng = random.Random(f"pulse-sweep/{seed}")
    out = []
    for j, b in enumerate((1.0, None)):
        if b is None:
            b = _slice(rng, 1.3, 1.7, 0, 1, log=False)
        xs = sorted([_slice(rng, 1e-3, 3e-3, i, 2, log=False) for i in range(2)])
        omegas = [_slice(rng, lo, 2.0 * lo, j, 2, log=True) for lo in (0.8e9, 1.6e9)]
        eit = dict(_EIT_BASE, k1s=b * _EIT_BASE["k1c"], alpha0_from_mode=False)
        out.append(
            Scenario(
                sid=f"{j:02d}-propagate-b{b:.4f}",
                command="propagate",
                plot=False,
                config={
                    "materials": _materials("nimm-default"),
                    "eit": eit,
                    "pulse": dict(_PULSE_BASE, x=xs, omega=omegas),
                },
            )
        )
    return out


def band_lossmap(seed: int) -> list[Scenario]:
    """``lossmap --plot`` and ``dispersion --plot`` over nimm and silver.

    Two units of three scenarios: nimm lossmap, nimm dispersion, silver
    dispersion.  The silver share is 1/3 and two ops in three are
    ``dispersion``, so the median op sits inside one subcommand's spread.
    gamma_m spans the shipped lossmap range (1e-5..1 times gamma_e); omega_m
    is drawn within 0.47..0.53 of omega_e around the shipped 0.5.
    """
    rng = random.Random(f"band-lossmap/{seed}")
    n_units = 2
    out = []
    for unit in range(n_units):
        for k, (command, preset2) in enumerate(
            (("lossmap", "nimm-default"), ("dispersion", "nimm-default"), ("dispersion", "silver"))
        ):
            j = 3 * unit + k
            if preset2 == "silver":
                materials = _materials("silver")
            else:
                slot = 2 * unit + k
                gamma_m = _slice(rng, 1e-5 * GAMMA_E, GAMMA_E, slot, 2 * n_units, log=True)
                omega_m = _slice(rng, 0.47 * OMEGA_E, 0.53 * OMEGA_E, slot, 2 * n_units, log=False)
                materials = _materials("nimm-default", gamma_m, omega_m)
            out.append(
                Scenario(
                    sid=f"{j:02d}-{command}-{preset2.split('-')[0]}",
                    command=command,
                    plot=True,
                    config={
                        "materials": materials,
                        "band": dict(_BAND_BASE),
                        "lossmap": dict(_LOSSMAP_BASE),
                    },
                )
            )
    return out


def _ring_omega(rng: random.Random, span: float, n_nu: int) -> float:
    """A control amplitude (Gamma31 = 1e9) that puts one grid detuning at |z| ~ 1.

    The detuning nu nearest to x*Gamma31, x in 0.3..0.55, gets
    |z| = Omega^2/|nu (nu + i Gamma31)| = 1 +- 3 % at arg z = 61..73 degrees:
    the part of the 2F1 ring where a general-purpose 2F1 (scipy's) is off by
    up to 1e-1, and where a kernel change has to keep the scalar fallback.
    """
    step = 2.0 * span / (n_nu - 1)
    k = round((rng.uniform(0.3, 0.55) + span) / step)
    nu = -span + k * step
    return float(1e9 * math.sqrt(abs(nu * (nu + 1j))) * (1.0 + rng.uniform(-0.03, 0.03)))


def eit_window(seed: int) -> list[Scenario]:
    """``eit-spectrum`` with three control amplitudes over a wide detuning span.

    b cycles through 1, 2 and a non-integer value (share 1/3 each) and every
    other scenario sets ``alpha0_from_mode`` (share 1/2).  The detuning span
    is 20..40 Gamma31, wider than the shipped 5, so that each control
    amplitude sweeps the kernel's series disc, its ring and its large-|z|
    region; 401 detunings per amplitude make the CSV output heavy.  The
    lowest amplitude is placed by ``_ring_omega``; the other two are drawn
    in 1e9..2e9 and 2e9..4e9 rad/s.
    """
    rng = random.Random(f"eit-window/{seed}")
    n = 6
    n_nu = 401
    out = []
    for j in range(n):
        kind = j % 3
        if kind == 2:
            b = _slice(rng, 1.25, 1.75, j // 3, n // 3, log=False)
        else:
            b = float(kind + 1)
        from_mode = j % 2 == 1
        span = _slice(rng, 20.0, 40.0, j, n, log=False)
        omegas = [_ring_omega(rng, span, n_nu)] + [
            _slice(rng, lo, 2.0 * lo, j, n, log=True) for lo in (1e9, 2e9)
        ]
        eit = dict(
            _EIT_BASE,
            k1s=b * _EIT_BASE["k1c"],
            alpha0_from_mode=from_mode,
            omega=omegas,
            x=1e-3,
            nu_span_over_gamma31=span,
            n_nu=n_nu,
        )
        out.append(
            Scenario(
                sid=f"{j:02d}-eit-b{b:.4f}{'-mode' if from_mode else ''}",
                command="eit-spectrum",
                plot=False,
                config={
                    "materials": _materials("nimm-default"),
                    "eit": eit,
                    "pulse": dict(_PULSE_BASE),
                },
            )
        )
    return out


WORKLOADS = {
    "pulse-sweep": pulse_sweep,
    "band-lossmap": band_lossmap,
    "eit-window": eit_window,
}


def warmup(workload: str) -> list[Scenario]:
    """Small scenarios that import and initialise every path a workload uses.

    Each has at least four grid items, so the process pool starts once too.
    """
    if workload == "pulse-sweep":
        return [
            Scenario(
                "warmup-propagate",
                "propagate",
                False,
                {"pulse": {"n_nu": 1024, "x": [1e-3, 2e-3], "omega": [1e9, 2e9]}},
            )
        ]
    if workload == "band-lossmap":
        small = {"band": {"n_points": 16}, "lossmap": {"n_gamma": 4}}
        return [
            Scenario("warmup-lossmap", "lossmap", True, small),
            Scenario("warmup-dispersion", "dispersion", True, small),
        ]
    return [Scenario("warmup-eit", "eit-spectrum", False, {"eit": {"n_nu": 8}})]


def generate(workload: str, seed: int) -> list[Scenario]:
    if workload not in WORKLOADS:
        raise KeyError(workload)
    return WORKLOADS[workload](seed)
