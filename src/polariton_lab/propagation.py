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
    """One propagation run: pulse, distance, background loss, layer response."""

    delta_t: float
    x: float
    v0: float
    kappa31: float
    alpha0: float
    eit: LambdaMediumParams = field(default_factory=LambdaMediumParams)
    n_nu: int = 4096
    nu_span: float | None = None

    def __post_init__(self) -> None:
        if not self.delta_t > 0:
            raise ValueError("delta_t must be positive")
        if self.x < 0:
            raise ValueError("x must be non-negative")
        if not self.v0 > 0:
            raise ValueError("v0 must be positive")
        if self.kappa31 < 0:
            raise ValueError("kappa31 must be non-negative")
        n = self.n_nu
        if n < 1024 or (n & (n - 1)) != 0:
            raise ValueError("n_nu must be a power of two >= 1024")
        if self.nu_span is not None and self.nu_span < 10.0 / self.delta_t:
            raise ValueError("nu_span must cover the pulse spectrum (>= 10/delta_t)")
        if self.kappa31 > 0 and self.x > 10.0 / self.kappa31:
            warnings.warn(
                f"x = {self.x:.3e} m exceeds ten background decay lengths",
                stacklevel=2,
            )

    @property
    def span(self) -> float:
        return self.nu_span if self.nu_span is not None else 40.0 / self.delta_t


@dataclass(frozen=True)
class PulseMetrics:
    """Peak timing, amplitude and width of a propagated envelope."""

    t_peak: float
    delay: float
    amp_ratio: float
    width_ratio: float
    vg: float
    l_sp: float
    centroid_delay: float


def frequency_grid(s: PropagationScenario) -> tuple[np.ndarray, float]:
    """The centered detuning grid of a run and its spacing."""
    n = s.n_nu
    dnu = s.span / n
    return (np.arange(n) - n // 2) * dnu, dnu


def layer_alpha(
    p: LambdaMediumParams, alpha0: float, nu: float | np.ndarray
) -> complex | np.ndarray:
    """The layer's alpha(nu) from :func:`alpha_closed`, or 0.0 for an empty layer."""
    if p.n == 0.0 or alpha0 == 0.0:
        return 0.0
    return alpha_closed(p, alpha0, nu).alpha


def transfer_function(
    s: PropagationScenario, nu: float | np.ndarray, alpha: complex | np.ndarray | None = None
) -> complex | np.ndarray:
    """Spectral factor exp{[i*nu/v0 - alpha(nu) - kappa31] * x} at a scalar or an ndarray ``nu``.

    ``alpha`` is the layer's alpha at ``nu`` when the caller has it already
    (see :func:`layer_alpha`).  Where the exponent's real part is below -700
    the factor is 0.
    """
    nu = np.asarray(nu, dtype=float)
    if alpha is None:
        alpha = layer_alpha(s.eit, s.alpha0, nu)
    exponent = (1j * (nu / s.v0) - alpha - s.kappa31) * s.x
    h = np.where(exponent.real < _EXP_FLOOR, 0j, np.exp(exponent))
    return complex(h) if h.ndim == 0 else h


def _centered_inverse_transform(spectrum: np.ndarray, dnu: float) -> np.ndarray:
    # A(t_l) = dnu * sum_m X_m exp(-i*nu_m*t_l) on centered nu/t grids.
    return np.fft.fftshift(np.fft.fft(np.fft.ifftshift(spectrum))) * dnu


def _parabolic_peak(t: np.ndarray, mag: np.ndarray) -> tuple[float, float]:
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


def propagate_pulse(
    s: PropagationScenario, alpha: complex | np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, PulseMetrics]:
    """Propagate the Gaussian probe a distance ``s.x``.

    ``alpha`` is the layer's alpha on :func:`frequency_grid` when the caller
    has it already; alpha does not depend on the distance.  Returns the time
    grid, the complex output envelope, and the extracted
    :class:`PulseMetrics`.  Raises :class:`NumericError` when the envelope
    has not decayed at the time-grid edges (aliased output).
    """
    n = s.n_nu
    nu, dnu = frequency_grid(s)
    spectrum = s.delta_t / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (nu * s.delta_t) ** 2)

    env = _centered_inverse_transform(spectrum * transfer_function(s, nu, alpha), dnu)

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
    width_in = s.delta_t / math.sqrt(2.0)  # RMS width of the input |envelope|^2

    vg = s.x / t_peak if (s.x > 0 and t_peak > 0) else math.nan
    metrics = PulseMetrics(
        t_peak=t_peak,
        delay=t_peak,
        amp_ratio=amp,
        width_ratio=width / width_in,
        vg=vg,
        l_sp=vg * s.delta_t,
        centroid_delay=centroid,
    )
    return t, env, metrics


@dataclass(frozen=True)
class ControlSweepRow:
    Omega: float
    delay: float
    amp_ratio: float


@dataclass(frozen=True)
class ControlSweepResult:
    rows: tuple[ControlSweepRow, ...]
    slope: float | None


def delay_vs_control(
    s: PropagationScenario, omega_grid: Sequence[float]
) -> ControlSweepResult:
    """Propagate once per control amplitude and fit the delay scaling.

    The fit is :func:`delay_slope`; with fewer than two usable points no
    fit is reported.
    """
    rows = []
    for om in omega_grid:
        if not om > 0:
            raise ValueError("control amplitudes must be positive")
        run = replace(s, eit=replace(s.eit, Omega=float(om)))
        _, _, metrics = propagate_pulse(run)
        rows.append(ControlSweepRow(Omega=float(om), delay=metrics.delay, amp_ratio=metrics.amp_ratio))

    slope = delay_slope([r.Omega for r in rows], [r.delay for r in rows], s.x, s.v0)
    return ControlSweepResult(rows=tuple(rows), slope=slope)


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
