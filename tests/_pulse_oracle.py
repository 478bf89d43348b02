"""The per-pair pulse propagation that the grid pass of ``propagate_pulse`` replaced.

Kept as the oracle of ``propagate_pulse`` on a grid of distances and control
amplitudes: one scalar run per (x, Omega) pair, with its own layer response,
exponent, FFT and metrics.  The code is that of the per-pair
``propagate_pulse`` and ``transfer_function`` it replaced, with the layer's
alpha taken straight from ``alpha_closed``.
"""

import math

import numpy as np

from polariton_lab.eit import alpha_closed
from polariton_lab.errors import NumericError
from polariton_lab.propagation import frequency_grid

_EXP_FLOOR = -700.0
_EDGE_TOL = 1e-6


def _transfer(s, nu):
    if s.eit.n == 0.0 or s.alpha0 == 0.0:
        alpha = 0.0
    else:
        alpha = alpha_closed(s.eit, s.alpha0, nu).alpha
    exponent = (1j * (nu / s.v0) - alpha - s.kappa31) * s.x
    return np.where(exponent.real < _EXP_FLOOR, 0j, np.exp(exponent))


def _parabolic_peak(t, mag):
    i = int(np.argmax(mag))
    if i == 0 or i == len(mag) - 1:
        return float(t[i]), float(mag[i])
    y0, y1, y2 = mag[i - 1], mag[i], mag[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(t[i]), float(y1)
    shift = 0.5 * (y0 - y2) / denom
    dt = t[1] - t[0]
    peak = y1 - 0.25 * (y0 - y2) * shift
    return float(t[i] + shift * dt), float(peak)


def propagate_pair(s):
    """(t, env, metrics dict) of a scenario with a scalar ``x`` and ``eit.Omega``."""
    n = s.n_nu
    nu, dnu = frequency_grid(s)
    spectrum = s.delta_t / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (nu * s.delta_t) ** 2)
    env = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(spectrum * _transfer(s, nu)))) * dnu

    T = 2.0 * math.pi / dnu
    t = (np.arange(n) - n // 2) * (T / n)
    mag = np.abs(env)
    peak_mag = float(mag.max())
    if peak_mag > 0 and max(mag[0], mag[-1]) > _EDGE_TOL * peak_mag:
        raise NumericError(
            "output envelope does not decay at the time-grid edges; "
            "increase n_nu or shrink nu_span"
        )

    t_peak, amp = _parabolic_peak(t, mag)
    power = mag**2
    total = float(power.sum())
    if total > 0:
        centroid = float((t * power).sum() / total)
        width = math.sqrt(float(((t - centroid) ** 2 * power).sum() / total))
    else:
        centroid = 0.0
        width = 0.0
    width_in = s.delta_t / math.sqrt(2.0)

    vg = s.x / t_peak if (s.x > 0 and t_peak > 0) else math.nan
    metrics = dict(
        delay=t_peak,
        amp_ratio=amp,
        width_ratio=width / width_in,
        vg=vg,
        l_sp=vg * s.delta_t,
        centroid_delay=centroid,
    )
    return t, env, metrics
