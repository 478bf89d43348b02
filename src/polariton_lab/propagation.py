"""Fourier-domain propagation of a Gaussian probe envelope through the layer.

The input envelope exp[-(t/delta_t)^2/2] has the analytic spectrum
A(nu) = delta_t/sqrt(2*pi) * exp(-(nu*delta_t)^2/2); the output envelope is
the inverse transform of A(nu) * H(nu) with

    H(nu) = exp{ [i*nu/v0 - alpha(nu) - kappa31] * x }.

Only the inverse transform is numerical (a centered FFT); the forward
transform is exact, which avoids windowing artifacts.  The carrier phase is
dropped: metrics depend on the envelope only.  Peak delay (parabolic
interpolation through the discrete maximum) is the delay metric; the envelope
centroid is carried along as a diagnostic.  The reported delay is measured
from the input peak at t = 0 and therefore contains the ballistic x/v0 term;
the layer-induced delay is ``delay - x/v0``.

A run covers a grid of pulses: ``x`` and the layer's ``Omega`` broadcast to
one grid shape G, and :func:`propagate_pulse` evaluates it in one array pass
(one layer response, exponent and FFT over G + (n_nu,), metrics per row),
each pulse bit-equal to a run of its (x, Omega) pair alone.  The detuning
grid is symmetric and H(-nu) = conj H(nu) holds bit for bit, so the pass
evaluates the layer response on the nu <= 0 half of the grid only and mirrors
it onto the other half; :func:`transfer_function` itself evaluates every
detuning it is given.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .eit import LambdaMediumParams, alpha_closed
from .errors import NumericError

_EXP_FLOOR = -700.0
_EDGE_TOL = 1e-6


@dataclass(frozen=True)
class PropagationScenario:
    """Pulse, distances, background loss and layer response of one run;
    ``x`` and ``eit.Omega`` broadcast to its grid shape :attr:`shape`.
    Only a scalar run supports ``==`` and hashing."""

    delta_t: float
    x: float | np.ndarray
    v0: float
    kappa31: float
    alpha0: float
    eit: LambdaMediumParams = field(default_factory=LambdaMediumParams)
    n_nu: int = 4096
    nu_span: float | None = None

    def __post_init__(self) -> None:
        if not self.delta_t > 0:
            raise ValueError("delta_t must be positive")
        if not np.all(np.asarray(self.x) >= 0):
            raise ValueError("x must be non-negative")
        if not self.v0 > 0:
            raise ValueError("v0 must be positive")
        if not self.kappa31 >= 0:
            raise ValueError("kappa31 must be non-negative")
        n = self.n_nu
        if n < 1024 or (n & (n - 1)) != 0:
            raise ValueError("n_nu must be a power of two >= 1024")
        if self.nu_span is not None and self.nu_span < 10.0 / self.delta_t:
            raise ValueError("nu_span must cover the pulse spectrum (>= 10/delta_t)")
        x_max = float(np.max(self.x))
        if self.kappa31 > 0 and x_max > 10.0 / self.kappa31:
            warnings.warn(
                f"x = {x_max:.3e} m exceeds ten background decay lengths",
                stacklevel=3,
            )
        self.shape  # x and Omega must broadcast

    @property
    def span(self) -> float:
        return self.nu_span if self.nu_span is not None else 40.0 / self.delta_t

    @property
    def shape(self) -> tuple[int, ...]:
        """The grid shape G that ``x`` and ``eit.Omega`` broadcast to."""
        return np.broadcast_shapes(np.shape(self.x), np.shape(self.eit.Omega))


@dataclass(frozen=True)
class PulseMetrics:
    """Peak timing, amplitude and width of the propagated envelopes: Python
    floats for a scalar run, arrays of the run's grid shape otherwise."""

    delay: float | np.ndarray
    amp_ratio: float | np.ndarray
    width_ratio: float | np.ndarray
    vg: float | np.ndarray
    l_sp: float | np.ndarray
    centroid_delay: float | np.ndarray


def frequency_grid(s: PropagationScenario) -> tuple[np.ndarray, float]:
    """The centered detuning grid of a run and its spacing."""
    n = s.n_nu
    dnu = s.span / n
    return (np.arange(n) - n // 2) * dnu, dnu


def transfer_function(s: PropagationScenario, nu: float | np.ndarray) -> complex | np.ndarray:
    """Spectral factor exp{[i*nu/v0 - alpha(nu) - kappa31] * x} at a scalar or an ndarray ``nu``.

    The factor has the shape ``s.shape + nu.shape``: the layer's alpha is one
    :func:`alpha_closed` call over the (Omega, nu) grid, or 0 for an empty
    layer.  Where the exponent's real part is below -700 the factor is 0.
    """
    nu = np.asarray(nu, dtype=float)
    p, omega = s.eit, np.asarray(s.eit.Omega)
    if p.n == 0.0 or s.alpha0 == 0.0:
        alpha = np.zeros(omega.shape + nu.shape)
    else:
        if omega.ndim:
            p = replace(p, Omega=omega.reshape(omega.shape + (1,) * nu.ndim))
        alpha = alpha_closed(p, s.alpha0, np.broadcast_to(nu, omega.shape + nu.shape)).alpha
    x = np.reshape(s.x, np.shape(s.x) + (1,) * nu.ndim)
    exponent = (1j * (nu / s.v0) - alpha - s.kappa31) * x
    h = np.where(exponent.real < _EXP_FLOOR, 0j, np.exp(exponent))
    return complex(h) if h.ndim == 0 else h


def _parabolic_peak(t: np.ndarray, mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Time and height of each row's peak: the vertex of the parabola through
    the discrete maximum and its two neighbours, or the maximum itself at a
    grid edge or on a flat top."""
    n = mag.shape[-1]
    i = np.argmax(mag, axis=-1)[..., None]
    y0, y1, y2 = (
        np.take_along_axis(mag, np.clip(i + k, 0, n - 1), axis=-1)[..., 0] for k in (-1, 0, 1)
    )
    i = i[..., 0]
    denom = y0 - 2.0 * y1 + y2
    flat = (i == 0) | (i == n - 1) | (denom == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = 0.5 * (y0 - y2) / denom
    dt = t[1] - t[0]
    return (
        np.where(flat, t[i], t[i] + shift * dt),
        np.where(flat, y1, y1 - 0.25 * (y0 - y2) * shift),
    )


def propagate_pulse(s: PropagationScenario) -> tuple[np.ndarray, np.ndarray, PulseMetrics]:
    """Propagate the Gaussian probe over every (x, Omega) pair of the run's grid.

    Returns the time grid, the complex output envelopes (shape
    ``s.shape + (n_nu,)``), and their :class:`PulseMetrics`.  Raises
    :class:`NumericError` naming the first pair, in row-major grid order,
    whose envelope has not decayed at the time-grid edges (aliased output).
    """
    n = s.n_nu
    nu, dnu = frequency_grid(s)
    spectrum = s.delta_t / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (nu * s.delta_t) ** 2)
    # Bins -k and +k of the grid are exact negations, and every step from nu
    # to H (complex arithmetic, exp, log, expm1, abs, angle, the ring's fixed
    # quadrature sum, the real-b sine) commutes with conjugation, so
    # H(-nu) = conj H(nu) bit for bit: the layer is evaluated on bins
    # -n/2 .. 0 only, and bins 1 .. n/2-1 are their mirror.
    h = np.empty(s.shape + (n,), dtype=complex)  # named operand: see eit.hyp2f1_special
    h[..., : n // 2 + 1] = transfer_function(s, nu[: n // 2 + 1])
    h[..., n // 2 + 1 :] = np.conj(h[..., n // 2 - 1 : 0 : -1])
    spectra = np.fft.ifftshift(spectrum * h, axes=-1)
    env = np.fft.fftshift(np.fft.fft(spectra, axis=-1), axes=-1) * dnu

    T = 2.0 * math.pi / dnu
    t = (np.arange(n) - n // 2) * (T / n)
    mag = np.abs(env)
    peak_mag = mag.max(axis=-1)
    aliased = (peak_mag > 0) & (np.maximum(mag[..., 0], mag[..., -1]) > _EDGE_TOL * peak_mag)
    if aliased.any():
        first = np.unravel_index(np.argmax(aliased), aliased.shape)
        x, omega = (np.broadcast_to(v, aliased.shape)[first] for v in (s.x, s.eit.Omega))
        raise NumericError(
            "output envelope does not decay at the time-grid edges; "
            f"increase n_nu or shrink nu_span (x = {x:.6g} m, Omega = {omega:.6g} rad/s)"
        )

    t_peak, amp = _parabolic_peak(t, mag)
    power = mag**2
    total = power.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        centroid = np.where(total > 0, (t * power).sum(axis=-1) / total, 0.0)
        spread = ((t - centroid[..., None]) ** 2 * power).sum(axis=-1) / total
        width = np.where(total > 0, np.sqrt(spread), 0.0)
        vg = np.where((np.asarray(s.x) > 0) & (t_peak > 0), s.x / t_peak, math.nan)
    width_in = s.delta_t / math.sqrt(2.0)  # RMS width of the input |envelope|^2

    fields = dict(
        delay=t_peak,
        amp_ratio=amp,
        width_ratio=width / width_in,
        vg=vg,
        l_sp=vg * s.delta_t,
        centroid_delay=centroid,
    )
    if not s.shape:
        fields = {k: float(v) for k, v in fields.items()}
    return t, env, PulseMetrics(**fields)


def delay_vs_control(
    s: PropagationScenario, omega_grid: Sequence[float]
) -> tuple[PulseMetrics, float | None]:
    """Pulse metrics over a line of control amplitudes, and the fitted delay scaling.

    One :func:`propagate_pulse` pass over ``omega_grid`` at the scenario's
    distance; the slope is :func:`delay_slope`, ``None`` with fewer than two
    usable points.
    """
    omegas = np.asarray(omega_grid, dtype=float)
    if not np.all(omegas > 0):
        raise ValueError("control amplitudes must be positive")
    _, _, metrics = propagate_pulse(replace(s, eit=replace(s.eit, Omega=omegas)))
    return metrics, delay_slope(omegas, metrics.delay, s.x, s.v0)


def delay_slope(
    omegas: Sequence[float], delays: Sequence[float], x: float, v0: float
) -> float | None:
    """Slope of log(delay - x/v0) against log(Omega).

    Only points with a positive layer-induced delay enter the fit; with fewer
    than two of them no slope is reported.
    """
    excess = np.asarray(delays, dtype=float) - x / v0
    keep = excess > 0
    if np.count_nonzero(keep) < 2:
        return None
    log_omega = np.log(np.asarray(omegas, dtype=float)[keep])
    return float(np.polyfit(log_omega, np.log(excess[keep]), 1)[0])
