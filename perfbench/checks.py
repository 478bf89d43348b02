"""Output checks for benchmark ops, run outside the timed region.

Two checks per scenario:

* Reference fingerprints recorded at the seed commit for the benchmark's own
  seeds (``refs/<workload>.json``, written by ``record_refs.py``).  Row
  counts and the NaN/inf pattern (plus the exact ``bound_*`` flags) must be
  identical; values may differ by ``RTOL`` relative to the larger of the value
  and the column's mean magnitude.  ``RTOL`` admits the ~1e-12 changes of a
  reordered sum and the 3e-9 of a closed-form group velocity, and rejects the
  7e-2 error of ``scipy.special.hyp2f1`` in the 2F1 ring.
* For any seed, spot rows recomputed by oracles that share no code with the
  layer they check: mpmath for the dispersion formula, its derivative (group
  velocity) and the 2F1 kernel; ``eit.alpha_quadrature`` for the layer
  absorption; a direct Fourier sum for the propagated envelope.  Spot rows
  are drawn from a generator seeded by the workload seed and scenario.
"""

from __future__ import annotations

import hashlib
import math
import random
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
from polariton_lab import dispersion, eit, materials, quantization

from scenarios import GAMMA_E, OMEGA_E, Scenario

RTOL = 1e-7
C = 299792458.0
_SAMPLE_ROWS = 16


# ----------------------------------------------------------------------- CSV

def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text(encoding="ascii").splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if not line.startswith("# ")]
    return lines[0].split(","), rows


def _cell_class(name: str, v: float) -> str:
    if math.isnan(v):
        return "n"
    if math.isinf(v):
        return "+" if v > 0 else "-"
    if name.startswith("bound_"):
        return "1" if v == 1.0 else "0" if v == 0.0 else "?"
    return "f"


def fingerprint(path: Path) -> dict:
    """Row count, NaN/bound pattern digest, column magnitudes, sampled rows."""
    header, rows = read_csv(path)
    pattern = "".join(_cell_class(h, v) for row in rows for h, v in zip(header, row))
    absum = [math.fsum(abs(r[c]) for r in rows if math.isfinite(r[c])) for c in range(len(header))]
    n = len(rows)
    idx = sorted({round(i * (n - 1) / (_SAMPLE_ROWS - 1)) for i in range(_SAMPLE_ROWS)}) if n else []
    return {
        "header": header,
        "rows": n,
        "pattern": hashlib.sha256(pattern.encode()).hexdigest()[:20],
        "absum": absum,
        "sample": {str(i): [v if math.isfinite(v) else None for v in rows[i]] for i in idx},
    }


# A column compared on the scale of a column of another file: the loss floor
# at the abyss is a minimum of |kappa| that is zero to rounding at a
# cancellation point, so it is compared on the scale of the kappa map it is
# the minimum of.
_SCALE_FROM = {
    ("abyss_track.csv", "kappa0_min_over_kappa0[1]"): ("lossmap.csv", "kappa_over_kappa0[1]"),
}


def _scale_floors(refs: dict) -> dict[tuple[str, str], float]:
    floors = {}
    for key, (name, column) in _SCALE_FROM.items():
        if key[0] in refs and name in refs:
            fp = refs[name]
            floors[key] = fp["absum"][fp["header"].index(column)] / max(fp["rows"], 1)
    return floors


def compare(ref: dict, new: dict, floors: dict[str, float] | None = None) -> list[str]:
    """Differences between a reference fingerprint and a new one.

    ``floors`` maps a column name to a magnitude below which its values
    count as zero.
    """
    if ref["header"] != new["header"]:
        return [f"header {new['header']} != {ref['header']}"]
    if ref["rows"] != new["rows"]:
        return [f"{new['rows']} rows, reference has {ref['rows']}"]
    if ref["pattern"] != new["pattern"]:
        return ["NaN/bound pattern differs from the reference"]
    problems = []
    floors = floors or {}
    scale = [max(a / max(ref["rows"], 1), floors.get(h, 0.0)) for a, h in zip(ref["absum"], ref["header"])]
    for c, (a, b) in enumerate(zip(new["absum"], ref["absum"])):
        if abs(a - b) > RTOL * max(abs(b), ref["rows"] * scale[c]):
            problems.append(f"column {ref['header'][c]}: sum |x| {a!r} vs {b!r}")
    for i, row in ref["sample"].items():
        for c, b in enumerate(row):
            a = new["sample"][i][c]
            if b is not None and abs(a - b) > RTOL * max(abs(b), scale[c]):
                problems.append(f"row {i} {ref['header'][c]}: {a!r} vs {b!r}")
    return problems


# -------------------------------------------------------------------- oracles

def _materials(s: Scenario):
    """(eps1, mu1, eps2(w), mu2(w)) of the scenario, as mpmath callables."""
    m = s.config["materials"]
    eps1, mu1 = mp.mpf(m["epsilon1"]), mp.mpf(m["mu1"])

    def drude(wp, g):
        return lambda w: 1 - mp.mpf(wp) ** 2 / (w * (w + 1j * mp.mpf(g)))

    eps2 = drude(OMEGA_E, GAMMA_E)
    if m["preset2"] == "silver":
        mu2 = lambda w: mp.mpf(1)  # noqa: E731
    else:
        mu2 = drude(m["omega_m"], m["gamma_m"])
    return eps1, mu1, eps2, mu2


def mp_mode(mats, w):
    """(k_parallel, k1, k2, residual) of the TM interface mode, in mpmath."""
    eps1, mu1, eps2, mu2 = mats
    w = mp.mpf(w)
    e2, u2 = eps2(w), mu2(w)
    a1, a2, b1, b2 = eps1, e2, mu1, u2
    wc = w / C
    k = wc * mp.sqrt(a1 * a2 * (a2 * b1 - a1 * b2) / (a2 * a2 - a1 * a1))
    k1 = mp.sqrt(k * k - wc * wc * eps1 * mu1)
    k2 = mp.sqrt(k * k - wc * wc * e2 * u2)
    residual = abs(k1 * a2 + k2 * a1) / max(abs(k1 * a2), abs(k2 * a1))
    return k, k1, k2, residual


def mp_group_velocity(mats, w) -> float:
    with mp.workdps(30):
        return float(1 / mp.diff(lambda x: mp.re(mp_mode(mats, x)[0]), mp.mpf(w)))


def mp_G(e: dict, omega: float, nu: float) -> complex:
    """G(nu) of the layer response, with mpmath's 2F1."""
    b = mp.mpf(e["k1s"]) / mp.mpf(e["k1c"])
    gam, Gam = mp.mpf(e["gamma21"]), mp.mpf(e["gamma31_linewidth"])
    beta = (nu + 1j * gam) * (nu + 1j * Gam) / mp.mpf(omega) ** 2
    ds = mp.exp(-2 * mp.mpf(e["k1s"]) * mp.mpf(e["z0"]))
    dc = mp.exp(-2 * mp.mpf(e["k1c"]) * mp.mpf(e["z0"]))
    F = lambda z: mp.hyp2f1(1, b, b + 1, z)  # noqa: E731
    return complex(1j * Gam / (nu + 1j * Gam) * (F(1 / beta) - ds * F(dc / beta)))


def _integer_b(e: dict) -> int | None:
    b = e["k1s"] / e["k1c"]
    return int(b) if b == int(b) else None


def _G_grid(e: dict, omega: float, nu: np.ndarray) -> np.ndarray:
    """G over many detunings.

    Integer b uses the closed form 2F1(1, b; b+1; z)
    = b z^-b (-log(1-z) - sum_{m<b} z^m/m) (A&S 15.1.3 for b = 1); other b
    uses mpmath point by point.
    """
    b = _integer_b(e)
    if b is None:
        return np.array([mp_G(e, omega, float(v)) for v in nu])

    def F(z):
        tail = -np.log1p(-z) - sum(z**m / m for m in range(1, b))
        return b * tail / z**b

    beta = (nu + 1j * e["gamma21"]) * (nu + 1j * e["gamma31_linewidth"]) / omega**2
    ds = math.exp(-2.0 * e["k1s"] * e["z0"])
    dc = math.exp(-2.0 * e["k1c"] * e["z0"])
    Gam = e["gamma31_linewidth"]
    return 1j * Gam / (nu + 1j * Gam) * (F(1.0 / beta) - ds * F(dc / beta))


def _close(a: complex, b: complex, rtol: float, atol: float) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol


# ------------------------------------------------------------- per command

def _check_dispersion(s: Scenario, out: Path, rng: random.Random) -> list[str]:
    band = s.config["band"]
    _, rows = read_csv(out / "dispersion.csv")
    if len(rows) != band["n_points"]:
        return [f"dispersion.csv has {len(rows)} rows"]
    mats = _materials(s)
    problems = []
    for i in [0, len(rows) - 1] + rng.sample(range(1, len(rows) - 1), 4):
        r = rows[i]
        w = r[0] * OMEGA_E
        k, k1, k2, residual = mp_mode(mats, w)
        kk = complex(k)
        if not _close(complex(r[1], r[2]), kk, 1e-9, 0.0):
            problems.append(f"dispersion row {i}: k = {r[1]!r}+{r[2]!r}i, oracle {kk!r}")
        if not _close(r[3], kk.imag / band["kappa0"], 0.0, 1e-9 * abs(kk) / band["kappa0"]):
            problems.append(f"dispersion row {i}: kappa_over_kappa0 {r[3]!r}")
        decided = (residual < 1e-10 or residual > 1e-6) and min(abs(mp.re(k1)), abs(mp.re(k2))) > 1e-9 * abs(k)
        bound = mp.re(k1) > 0 and mp.re(k2) > 0 and residual < 1e-8
        if decided and r[5] != float(bound):
            problems.append(f"dispersion row {i}: bound_TM {r[5]!r}, oracle {bound}")
        if math.isfinite(r[4]):
            v0 = mp_group_velocity(mats, w)
            if not _close(r[4], v0, 1e-6, 0.0):
                problems.append(f"dispersion row {i}: v0 {r[4]!r}, oracle {v0!r}")
    return problems


def _check_lossmap(s: Scenario, out: Path, rng: random.Random) -> list[str]:
    band, lm, m = s.config["band"], s.config["lossmap"], s.config["materials"]
    _, rows = read_csv(out / "lossmap.csv")
    _, track = read_csv(out / "abyss_track.csv")
    n_w, n_g = band["n_points"], lm["n_gamma"]
    if len(rows) != n_w * n_g or len(track) != n_g:
        return [f"lossmap.csv/abyss_track.csv have {len(rows)}/{len(track)} rows"]
    ratios = np.geomspace(lm["gamma_ratio_min"], lm["gamma_ratio_max"], n_g)
    kappa0 = band["kappa0"]
    problems = []

    def mats_for(ratio):
        cfg = {"materials": dict(m, preset2="nimm-default", gamma_m=ratio * GAMMA_E)}
        return _materials(Scenario("", "", False, cfg))

    for i in rng.sample(range(len(rows)), 6):
        ratio, w_we, kap = rows[i]
        if not math.isclose(ratio, ratios[i // n_w], rel_tol=1e-12):
            problems.append(f"lossmap row {i}: gamma ratio {ratio!r}")
        k = complex(mp_mode(mats_for(ratio), w_we * OMEGA_E)[0])
        if not _close(kap, k.imag / kappa0, 0.0, 1e-9 * abs(k) / kappa0):
            problems.append(f"lossmap row {i}: kappa/kappa0 {kap!r}, oracle {k.imag / kappa0!r}")
    for i, (ratio, w_we, kap) in enumerate(track):
        if math.isnan(w_we):
            continue
        mats = mats_for(ratio)
        w0 = w_we * OMEGA_E
        k = complex(mp_mode(mats, w0)[0])
        if not _close(kap, k.imag / kappa0, 0.0, 1e-9 * abs(k) / kappa0):
            problems.append(f"abyss row {i}: kappa floor {kap!r}, oracle {k.imag / kappa0!r}")
        side = min(abs(complex(mp_mode(mats, w0 * (1 + d))[0]).imag) for d in (-1e-6, 1e-6))
        if side < abs(k.imag):
            problems.append(f"abyss row {i}: omega0 {w_we!r} is not a local |kappa| minimum")
    return problems


def _alpha0(s: Scenario) -> float:
    """Configured alpha0, or the one derived from the interface mode."""
    e = s.config["eit"]
    if not e["alpha0_from_mode"]:
        return e["alpha0"]
    # The derivation reuses the program's quantization layer; only the group
    # velocity comes from the mpmath oracle.
    m = s.config["materials"]
    m1 = materials.HalfSpaceMaterial(m["epsilon1"], m["mu1"], "medium1")
    m2 = materials.nimm(gamma_m=m["gamma_m"], omega_m=m["omega_m"])
    w31 = s.config["pulse"]["omega31_over_we"] * OMEGA_E
    v0 = mp_group_velocity(_materials(s), w31)
    point = dispersion.sp_wavevector(m1, m2, w31)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Re(Lz) <= 0 near the abyss is expected
        norm = quantization.mode_normalization(m1, m2, point, e["ly"])
    g = quantization.coupling_constant(norm, point, quantization.DIPOLE_EA0)
    p = _lambda_params(e, e["omega"][0])
    p = replace(p, k1s=abs(point.k1), k1c=abs(point.k1))
    return eit.alpha_resonant(p, abs(g.g) ** 2, v0)


def _lambda_params(e: dict, omega: float) -> eit.LambdaMediumParams:
    return eit.LambdaMediumParams(
        n=e["n"], z0=e["z0"], gamma21=e["gamma21"], Gamma31=e["gamma31_linewidth"],
        Omega=omega, k1s=e["k1s"], k1c=e["k1c"], Ly=e["ly"],
    )


def _check_eit(s: Scenario, out: Path, rng: random.Random) -> list[str]:
    e = s.config["eit"]
    _, rows = read_csv(out / "eit_spectrum.csv")
    n_nu, omegas = e["n_nu"], e["omega"]
    if len(rows) != n_nu * len(omegas):
        return [f"eit_spectrum.csv has {len(rows)} rows"]
    gam31 = e["gamma31_linewidth"]
    span = e["nu_span_over_gamma31"] * gam31
    nus = np.linspace(-span, span, n_nu)
    alpha0 = _alpha0(s)
    gsq_over_v0 = alpha0 * e["k1s"] * gam31 / (math.pi * e["n"] * e["ly"])
    problems = []
    for j, om in enumerate(omegas):
        block = rows[j * n_nu:(j + 1) * n_nu]
        g_max = max(math.hypot(r[4], r[5]) for r in block)
        a_max = max(math.hypot(r[2], r[3]) for r in block)
        regions: dict[str, list[int]] = {}
        for i, nu in enumerate(nus):
            z = abs(om**2 / ((nu + 1j * e["gamma21"]) * (nu + 1j * gam31)))
            regions.setdefault("series" if z <= 0.8 else "ring" if z <= 2.0 else "large", []).append(i)
        p = _lambda_params(e, om)
        if _integer_b(e) is not None:
            G_all = _G_grid(e, om, nus)
            for i, (r, G) in enumerate(zip(block, G_all)):
                if not _close(complex(r[4], r[5]), G, 1e-6, 1e-9 * g_max):
                    problems.append(f"eit Omega {om:.4g} row {i}: G {r[4]!r}{r[5]:+}i, closed form {G!r}")
        for region, idx in sorted(regions.items()):
            i = rng.choice(idx)
            r = block[i]
            if not (math.isclose(r[0], nus[i] / gam31, rel_tol=1e-12, abs_tol=1e-12)
                    and math.isclose(r[1], om / gam31, rel_tol=1e-12)):
                problems.append(f"eit Omega {om:.4g} row {i}: grid columns {r[:2]!r}")
            G = mp_G(e, om, float(nus[i]))
            if not _close(complex(r[4], r[5]), G, 1e-6, 1e-9 * g_max):
                problems.append(f"eit Omega {om:.4g} row {i} ({region}): G {r[4]!r}{r[5]:+}i, oracle {G!r}")
            ax = eit.alpha_quadrature(p, gsq_over_v0, float(nus[i])) * e["x"]
            if not _close(complex(r[2], r[3]), ax, 1e-6, 1e-9 * a_max):
                problems.append(f"eit Omega {om:.4g} row {i} ({region}): alpha*x {r[2]!r}{r[3]:+}i, quadrature {ax!r}")
    return problems


def _envelope(s: Scenario, x: float, omega: float, v0: float, t: np.ndarray) -> np.ndarray:
    """|A(t)| by a direct Fourier sum over the bins the input spectrum reaches."""
    e, pulse = s.config["eit"], s.config["pulse"]
    n, dt = pulse["n_nu"], pulse["delta_t"]
    dnu = pulse["nu_span_factor"] / dt / n
    nu = (np.arange(n) - n // 2) * dnu
    nu = nu[np.abs(nu * dt) < 9.0]  # exp(-(nu*dt)^2/2) < 3e-18 outside
    spectrum = dt / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (nu * dt) ** 2)
    alpha = e["alpha0"] * _G_grid(e, omega, nu)
    exponent = (1j * nu / v0 - alpha - pulse["kappa31"]) * x
    exponent.real = np.maximum(exponent.real, -700.0)
    weights = spectrum * np.exp(exponent)
    return np.abs(np.exp(-1j * np.outer(t, nu)) @ weights) * dnu


def _check_propagate(s: Scenario, out: Path, rng: random.Random) -> list[str]:
    pulse, e = s.config["pulse"], s.config["eit"]
    gam31, dt = e["gamma31_linewidth"], pulse["delta_t"]
    combos = [(ix, xi, io, om) for ix, xi in enumerate(pulse["x"]) for io, om in enumerate(pulse["omega"])]
    _, metrics = read_csv(out / "metrics.csv")
    if len(metrics) != len(combos):
        return [f"metrics.csv has {len(metrics)} rows"]
    problems = []
    profiles = {}
    for (ix, xi, io, om), m in zip(combos, metrics):
        _, prof = read_csv(out / f"pulse_x{ix}_om{io}.csv")
        profiles[ix, io] = prof
        if len(prof) != pulse["n_nu"]:
            problems.append(f"pulse_x{ix}_om{io}.csv has {len(prof)} rows")
            continue
        if not (math.isclose(m[0], xi, rel_tol=1e-15) and math.isclose(m[1], om / gam31, rel_tol=1e-12)):
            problems.append(f"metrics row ({ix},{io}): x/Omega columns {m[:2]!r}")
        mag = [r[1] for r in prof]
        i_peak = int(np.argmax(mag))
        t_step = prof[1][0] - prof[0][0]
        # The parabolic peak lies between the sampled maximum and that plus
        # |y[i-1] - y[i+1]| / 8.
        lift = abs(mag[i_peak - 1] - mag[i_peak + 1]) / 8 if 0 < i_peak < len(mag) - 1 else 0.0
        if not (0.0 < m[3] <= 1.0 and mag[i_peak] * (1 - 1e-12) <= m[3] <= mag[i_peak] + lift * (1 + 1e-9)):
            problems.append(f"metrics row ({ix},{io}): amp_ratio {m[3]!r}, profile peak {mag[i_peak]!r}")
        if abs(m[2] * dt * gam31 - prof[i_peak][0]) > t_step:
            problems.append(f"metrics row ({ix},{io}): delay {m[2]!r} off the profile peak")
    if problems:
        return problems

    v0 = mp_group_velocity(_materials(s), pulse["omega31_over_we"] * OMEGA_E)
    ix, xi, io, om = rng.choice(combos)
    prof = profiles[ix, io]
    mag = np.array([r[1] for r in prof])
    peak = float(mag.max())
    live = [i for i in range(len(mag)) if mag[i] > 1e-3 * peak]
    idx = sorted({int(np.argmax(mag))} | set(rng.sample(live, min(6, len(live))))
                 | set(rng.sample(range(len(mag)), 2)))
    t = np.array([prof[i][0] / gam31 for i in idx])
    ref = _envelope(s, xi, om, v0, t)
    for i, a, b in zip(idx, mag[idx], ref):
        if abs(a - b) > 1e-7 * peak:
            problems.append(f"pulse_x{ix}_om{io} row {i}: |A| {a!r}, Fourier sum {b!r}")

    if len(pulse["omega"]) >= 2:
        _, slopes = read_csv(out / "slope.csv")
        for (xi_s, slope), xi in zip(slopes, pulse["x"]):
            pts = [(row[1], row[2] * dt - xi / v0) for row in metrics if row[0] == xi]
            pts = [p for p in pts if p[1] > 0]
            if len(pts) < 2:
                fit = math.nan
            else:
                fit = float(np.polyfit(np.log([p[0] for p in pts]), np.log([p[1] for p in pts]), 1)[0])
            if not (math.isclose(slope, fit, rel_tol=1e-6) or math.isnan(slope) and math.isnan(fit)):
                problems.append(f"slope.csv x={xi_s!r}: {slope!r}, refit {fit!r}")
    return problems


_CHECKS = {
    "dispersion": (_check_dispersion, ["dispersion.csv"], "fig_losses.svg"),
    "lossmap": (_check_lossmap, ["lossmap.csv", "abyss_track.csv"], "fig_lossmap.svg"),
    "eit-spectrum": (_check_eit, ["eit_spectrum.csv"], "fig_eit_spectrum.svg"),
    "propagate": (_check_propagate, ["metrics.csv"], "fig_pulses.svg"),
}


def check_scenario(s: Scenario, out: Path, seed: int, ref: dict | None) -> list[str]:
    """Problems found in the outputs of scenario ``s`` (empty when correct)."""
    check, csvs, svg = _CHECKS[s.command]
    needed = csvs + ([svg] if s.plot else [])
    missing = [name for name in needed if not (out / name).is_file()]
    if missing:
        return [f"missing outputs {missing}"]
    if s.plot and not (out / svg).read_text(encoding="ascii").lstrip().startswith("<"):
        return [f"{svg} is not SVG"]
    try:
        problems = check(s, out, random.Random(f"{seed}/{s.sid}"))
        floors = _scale_floors(ref or {})
        for name, fp in (ref or {}).items():
            path = out / name
            file_floors = {col: v for (f, col), v in floors.items() if f == name}
            found = compare(fp, fingerprint(path), file_floors) if path.is_file() else ["missing"]
            problems += [f"{name}: {p}" for p in found]
    except (OSError, ValueError, IndexError, ZeroDivisionError) as exc:
        problems = [f"unreadable outputs: {exc!r}"]
    return problems


def fingerprints(out: Path) -> dict:
    return {p.name: fingerprint(p) for p in sorted(out.glob("*.csv"))}
