"""Per-photon normalization of one TM surface mode and its emitter coupling.

The transverse quantization length combines the dispersive weights of both
half-spaces,

    D  = d(w*eps1)/dw * (k1**2 + k**2)/k1**3 + d(w*eps2)/dw * (k2**2 + k**2)/k2**3
    S  = d(w*mu1)/dw * eps1**2/k1**3 + d(w*mu2)/dw * eps2**2/k2**3
    Lz = D + (w/c)**2 * S,

and the per-photon field amplitude is E0 = sqrt(hbar*w / (2*pi*eps0*Ly*Lz)).
With losses, D, S and Lz are complex while E0 must be a real amplitude; the
magnitude |Lz| enters E0 and the phase of Lz is reported separately.  Near the
loss-cancellation frequency the mode is only marginally confined on the
dielectric side and Re(Lz) can be small and negative even though |Lz| is
perfectly regular, so a non-positive Re(Lz) is reported as a warning rather
than rejected.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Sequence, Union

from .dispersion import C, DispersionPoint, Polarization
from .errors import NumericError
from .materials import HalfSpaceMaterial, d_omega_material, eval_material

# CODATA 2022 values.
HBAR = 1.0545718176461565e-34  # reduced Planck constant, J*s
EPS0 = 8.8541878188e-12  # vacuum permittivity, F/m

# |d| ~ e * a0 (elementary charge times Bohr radius) is the order-of-magnitude
# optical dipole moment used in the resonant-absorption estimates.
DIPOLE_EA0 = 1.602176634e-19 * 5.29177210544e-11


@dataclass(frozen=True)
class ModeNormalization:
    """Transverse normalization of one bound TM mode."""

    D: complex
    S: complex
    Lz: complex
    E0: float
    Ly: float
    omega: float

    @property
    def lz_phase(self) -> float:
        """Phase of the complex quantization length (excluded from E0)."""
        return cmath.phase(self.Lz)


@dataclass(frozen=True)
class CouplingConstant:
    """Surface-mode/emitter coupling g and its ingredients."""

    g: complex
    dipole_moment: float
    polarization_overlap: complex


def mode_normalization(
    m1: HalfSpaceMaterial,
    m2: HalfSpaceMaterial,
    dp: DispersionPoint,
    Ly: float,
) -> ModeNormalization:
    """Evaluate D, S, Lz and the per-photon amplitude E0 for a bound TM mode."""
    if dp.polarization is not Polarization.TM:
        raise ValueError(f"mode normalization is TM-only, got a {dp.polarization.value} point")
    if not dp.bound:
        raise ValueError("mode normalization requires a bound dispersion point")
    if not Ly > 0:
        raise ValueError("Ly must be positive")

    omega = dp.omega
    de1, dm1 = d_omega_material(m1, omega)
    de2, dm2 = d_omega_material(m2, omega)
    e1 = eval_material(m1, omega).epsilon
    e2 = eval_material(m2, omega).epsilon

    k = dp.k_parallel
    k1, k2 = dp.k1, dp.k2
    D = de1 * (k1 * k1 + k * k) / k1**3 + de2 * (k2 * k2 + k * k) / k2**3
    S = dm1 * e1 * e1 / k1**3 + dm2 * e2 * e2 / k2**3
    Lz = D + (omega / C) ** 2 * S

    if not (math.isfinite(Lz.real) and math.isfinite(Lz.imag)) or abs(Lz) == 0.0:
        raise NumericError(f"degenerate quantization length Lz = {Lz!r}")
    if Lz.real <= 0:
        warnings.warn(
            f"Re(Lz) = {Lz.real:.3e} <= 0 at omega = {omega:.6e}; "
            "using |Lz| for the field amplitude",
            stacklevel=2,
        )

    E0 = math.sqrt(HBAR * omega / (2.0 * math.pi * EPS0 * Ly * abs(Lz)))
    return ModeNormalization(D=D, S=S, Lz=Lz, E0=E0, Ly=Ly, omega=omega)


def coupling_constant(
    mn: ModeNormalization,
    dp: DispersionPoint,
    d: Union[float, Sequence[float]],
) -> CouplingConstant:
    """Coupling g = d . (e_x + i e_z k/k1) * E0 / hbar for a dipole ``d``.

    ``d`` is either a scalar magnitude (taken along x, unit overlap in the
    k/k1 -> 0 limit) or an (x, y, z) component triple in C*m.  The y component
    does not couple to the TM mode.
    """
    if isinstance(d, (int, float)):
        dx, dz = float(d), 0.0
        magnitude = abs(float(d))
    else:
        vec = [float(v) for v in d]
        if len(vec) != 3:
            raise ValueError("dipole vector must have 3 components")
        dx, dz = vec[0], vec[2]
        magnitude = math.sqrt(sum(v * v for v in vec))

    projection = dx + 1j * dz * dp.k_parallel / dp.k1
    g = projection * mn.E0 / HBAR
    overlap = projection / magnitude if magnitude > 0 else 0j
    return CouplingConstant(g=g, dipole_moment=magnitude, polarization_overlap=overlap)
