"""The per-row abyss search and loss map that the batched code replaced.

Kept as the oracle of the batched ``find_abyss`` and of ``lossmap``: the
search is the scalar zoom loop, one medium at a time, and the map is built
one decoherence ratio at a time.  The changes from that code: the residual
takes ``omega0`` as a one-element array, because the batched search
evaluates it in numpy's array arithmetic, whose complex division does not
round as Python's does; and a NaN ``kappa`` (a degenerate point) is never
the minimum, the batched search's rule.
"""

import math

import numpy as np

from polariton_lab.dispersion import (
    AbyssNotFoundError,
    AbyssResult,
    loss_cancellation_residual,
    sp_wavevector,
)
from polariton_lab.materials import DrudeParams, HalfSpaceMaterial

_ABYSS_XTOL = 1e-9
_ZOOM_POINTS = 33


def find_abyss_per_row(m1, m2, search_band, pol, n_grid=512):
    """(AbyssResult, number of zoom steps) of one pair of scalar media."""
    lo, hi = search_band
    grid = np.linspace(lo, hi, n_grid)
    kappa = sp_wavevector(m1, m2, grid, pol).kappa
    i = int(np.argmin(np.fmin(np.abs(kappa), np.inf)))
    if i == 0 or i == n_grid - 1:
        raise AbyssNotFoundError("no interior minimum")

    steps = 0
    omega0, kappa0 = float(grid[i]), float(kappa[i])
    a, c = grid[i - 1], grid[i + 1]
    while c - a > _ABYSS_XTOL * omega0:
        steps += 1
        grid = np.linspace(a, c, _ZOOM_POINTS)
        kappa = sp_wavevector(m1, m2, grid, pol).kappa
        i = int(np.argmin(np.fmin(np.abs(kappa), np.inf)))
        omega0, kappa0 = float(grid[i]), float(kappa[i])
        a, c = grid[max(i - 1, 0)], grid[min(i + 1, _ZOOM_POINTS - 1)]
    for j in (i - 1, i + 1):  # a sign change of kappa: step to its root
        if 0 <= j < len(grid) and kappa[j] * kappa0 < 0:
            omega0 = float(grid[i] - kappa0 * (grid[j] - grid[i]) / (kappa[j] - kappa0))
            kappa0 = sp_wavevector(m1, m2, omega0, pol).kappa
            break
    residual = float(loss_cancellation_residual(m1, m2, np.array([omega0]), pol)[0])
    return AbyssResult(omega0=omega0, kappa_at_omega0=kappa0, residual=residual), steps


def lossmap_tables(cfg):
    """(lossmap rows, abyss_track rows) of ``cfg``, one ratio at a time.

    Ratio r gives medium 2 the magnetic loss rate r times its electric one,
    with its own magnetic plasma frequency.
    """
    kappa0 = cfg["band"]["kappa0"]
    lm = cfg["lossmap"]
    m2 = cfg.medium2
    band = cfg["band"]
    omegas = np.linspace(
        band["omega_min_over_we"] * cfg.omega_e,
        band["omega_max_over_we"] * cfg.omega_e,
        band["n_points"],
    )
    if lm["n_gamma"] == 1:
        ratios = np.array([lm["gamma_ratio_min"]])
    else:
        ratios = np.geomspace(lm["gamma_ratio_min"], lm["gamma_ratio_max"], lm["n_gamma"])
    band_limits = (float(omegas[0]), float(omegas[-1]))

    blocks, track_rows = [], []
    for ratio in ratios.tolist():
        rate = ratio * m2.epsilon_model.loss_rate
        m2_ratio = HalfSpaceMaterial(
            m2.epsilon_model, DrudeParams(m2.mu_model.plasma_frequency, rate), m2.label
        )
        kappa = sp_wavevector(cfg.medium1, m2_ratio, omegas, cfg.polarization).kappa
        columns = [np.full(omegas.shape, ratio), omegas / cfg.omega_e, kappa / kappa0]
        blocks.append(np.column_stack(columns))
        try:
            abyss, _ = find_abyss_per_row(cfg.medium1, m2_ratio, band_limits, cfg.polarization)
            track_rows.append([ratio, abyss.omega0 / cfg.omega_e, abyss.kappa_at_omega0 / kappa0])
        except AbyssNotFoundError:
            track_rows.append([ratio, math.nan, math.nan])
    return np.concatenate(blocks), track_rows
