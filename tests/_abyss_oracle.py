"""An independent reference for ``find_abyss`` and the per-ratio ``lossmap``.

``find_abyss`` solves kappa * dkappa/dw = 0 by Illinois steps from a coarse
bracket; this search shares only the coarse scan with it.  It zooms in on
the smallest |kappa| of one medium at a time (33 points across the bracket,
down to a relative width of 1e-9, a NaN kappa never the minimum) and, where
kappa changes sign next to the minimum, takes a linear step to the root.
Being a different algorithm, it agrees with ``find_abyss`` to the
tolerances of :func:`check_against_oracle`, not bit for bit.  The map is
built one decoherence ratio at a time.
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
_SCAN_POINTS = 512


def find_abyss_per_row(m1, m2, search_band, pol):
    """(AbyssResult, whether kappa changes sign at the minimum) of one pair of scalar media."""
    lo, hi = search_band
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    kappa = sp_wavevector(m1, m2, grid, pol).kappa
    i = int(np.argmin(np.fmin(np.abs(kappa), np.inf)))
    if i == 0 or i == _SCAN_POINTS - 1:
        raise AbyssNotFoundError("no interior minimum")

    omega0, kappa0 = float(grid[i]), float(kappa[i])
    a, c = grid[i - 1], grid[i + 1]
    while c - a > _ABYSS_XTOL * omega0:
        grid = np.linspace(a, c, _ZOOM_POINTS)
        kappa = sp_wavevector(m1, m2, grid, pol).kappa
        i = int(np.argmin(np.fmin(np.abs(kappa), np.inf)))
        omega0, kappa0 = float(grid[i]), float(kappa[i])
        a, c = grid[max(i - 1, 0)], grid[min(i + 1, _ZOOM_POINTS - 1)]
    crossing = False
    for j in (i - 1, i + 1):  # a sign change of kappa: step to its root
        if 0 <= j < len(grid) and kappa[j] * kappa0 < 0:
            omega0 = float(grid[i] - kappa0 * (grid[j] - grid[i]) / (kappa[j] - kappa0))
            kappa0 = sp_wavevector(m1, m2, omega0, pol).kappa
            crossing = True
            break
    residual = float(loss_cancellation_residual(m1, m2, np.array([omega0]), pol)[0])
    return AbyssResult(omega0=omega0, kappa_at_omega0=kappa0, residual=residual), crossing


def check_against_oracle(omega0, kappa0, want, crossing, m1, m2, pol):
    """Assert that a search's ``(omega0, kappa0)`` meets the oracle's result ``want``.

    ``want`` is None where the oracle raises, and the search must give NaN
    there.  Where kappa changes sign at the oracle's minimum (``crossing``)
    and its root step lands on zero to rounding, at most 1e-15 |k_par|, the
    search does too, within 1e-13 relative of it.  Elsewhere (a smooth
    minimum, or a branch point where kappa goes as the square root of the
    distance, which a linear step misses) |kappa0| is no larger than the
    oracle's |kappa| to 1e-12 relative, and ``omega0`` is within 1e-8
    relative of it: the oracle stops at a width of 1e-9, but near a smooth
    minimum |kappa| varies by less than its rounding over a few 1e-9, so
    its zoom can stop up to about 3e-9 from the minimum.
    """
    if want is None:
        assert math.isnan(omega0) and math.isnan(kappa0), (omega0, kappa0)
        return
    rounding = 1e-15 * abs(sp_wavevector(m1, m2, want.omega0, pol).k_par)
    if crossing and abs(want.kappa_at_omega0) <= rounding:
        assert abs(omega0 - want.omega0) <= 1e-13 * want.omega0, (omega0, want)
        assert abs(kappa0) <= 1e-15 * abs(sp_wavevector(m1, m2, omega0, pol).k_par), (kappa0, want)
    else:
        assert abs(omega0 - want.omega0) <= 1e-8 * want.omega0, (omega0, want)
        assert abs(kappa0) <= abs(want.kappa_at_omega0) * (1 + 1e-12), (kappa0, want)


def lossmap_tables(cfg):
    """(lossmap rows, abyss track) of ``cfg``, one ratio at a time.

    Ratio r gives medium 2 the magnetic loss rate r times its electric one,
    with its own magnetic plasma frequency.  The track holds, per ratio, the
    ratio, its medium 2 and the :func:`find_abyss_per_row` pair, or
    ``(None, False)`` where that raises.
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

    blocks, track = [], []
    for ratio in ratios.tolist():
        rate = ratio * m2.epsilon_model.loss_rate
        m2_ratio = HalfSpaceMaterial(
            m2.epsilon_model, DrudeParams(m2.mu_model.plasma_frequency, rate), m2.label
        )
        kappa = sp_wavevector(cfg.medium1, m2_ratio, omegas, cfg.polarization).kappa
        columns = [np.full(omegas.shape, ratio), omegas / cfg.omega_e, kappa / kappa0]
        blocks.append(np.column_stack(columns))
        try:
            found = find_abyss_per_row(cfg.medium1, m2_ratio, band_limits, cfg.polarization)
        except AbyssNotFoundError:
            found = None, False
        track.append((ratio, m2_ratio, found))
    return np.concatenate(blocks), track
