"""Complex permittivity and permeability of the two half-spaces.

Each half-space carries an electric and a magnetic response that is either a
real frequency-independent constant or a Drude pole

    s(w) = 1 - wf**2 / (w * (w + i*gf)),

with plasma frequency ``wf`` and loss rate ``gf`` in rad/s.  All frequencies
are angular.  The derivative d(w*s)/dw needed by the mode normalization and
the group velocity is available in closed form.  Every evaluation accepts a
scalar or an ndarray of frequencies and returns values of the same shape, or
of the shape the frequencies broadcast to with an ndarray loss rate (a batch
of materials, one per row).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

# Drude parameters for Ag and the dielectric constant used throughout the
# numerical studies in this package.
OMEGA_E_SILVER = 1.37e16  # rad/s
GAMMA_E_SILVER = 2.73e13  # rad/s
EPSILON_DIELECTRIC = 1.3


@dataclass(frozen=True)
class DrudeParams:
    """Plasma frequency and loss rate of one Drude pole (rad/s).

    ``loss_rate`` may be an ndarray that broadcasts against the frequencies,
    with a leading row axis: shape ``(n, 1)`` makes the pole a batch of ``n``
    poles, and an evaluation at ``m`` frequencies gives ``(n, m)`` values, row
    ``i`` bit-equal to the pole with the scalar rate ``loss_rate[i, 0]``.
    Every element must be non-negative.  Only a scalar pole supports ``==``
    and hashing.
    """

    plasma_frequency: float
    loss_rate: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        if not self.plasma_frequency > 0:
            raise ValueError("plasma_frequency must be positive")
        if np.any(np.asarray(self.loss_rate) < 0):
            raise ValueError("loss_rate must be non-negative")


Response = Union[float, DrudeParams]


@dataclass(frozen=True)
class HalfSpaceMaterial:
    """Electric and magnetic response models of one half-space.

    A ``float`` model is a real dispersionless constant, which must be
    positive; a :class:`DrudeParams` model is the lossy Drude form above.
    """

    epsilon_model: Response
    mu_model: Response = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.epsilon_model, (int, float)) and not self.epsilon_model > 0:
            raise ValueError("constant permittivity must be positive")
        if isinstance(self.mu_model, (int, float)) and not self.mu_model > 0:
            raise ValueError("constant permeability must be positive")


@dataclass(frozen=True)
class MaterialResponse:
    """epsilon(w) and mu(w) of one half-space at a frequency or a frequency array."""

    epsilon: complex | np.ndarray
    mu: complex | np.ndarray
    omega: float | np.ndarray


def _check_omega(omega) -> None:
    if not np.all(np.asarray(omega) > 0):
        raise ValueError(f"omega must be positive, got {omega!r}")


def _eval_one(model: Response, omega):
    if isinstance(model, DrudeParams):
        return 1.0 - model.plasma_frequency**2 / (omega * (omega + 1j * model.loss_rate))
    return complex(model) + 0.0 * omega


def _deriv_one(model: Response, omega):
    # d(w*s)/dw; the Drude form gives 1 + wf**2 / (w + i*gf)**2.
    if isinstance(model, DrudeParams):
        return 1.0 + model.plasma_frequency**2 / (omega + 1j * model.loss_rate) ** 2
    return complex(model) + 0.0 * omega


def eval_material(m: HalfSpaceMaterial, omega) -> MaterialResponse:
    """Evaluate epsilon and mu of ``m`` at angular frequency ``omega`` (scalar or array)."""
    _check_omega(omega)
    return MaterialResponse(
        epsilon=_eval_one(m.epsilon_model, omega),
        mu=_eval_one(m.mu_model, omega),
        omega=omega,
    )


def d_omega_material(m: HalfSpaceMaterial, omega):
    """Analytic d(w*eps)/dw and d(w*mu)/dw at ``omega`` (scalar or array)."""
    _check_omega(omega)
    return _deriv_one(m.epsilon_model, omega), _deriv_one(m.mu_model, omega)


def silver() -> HalfSpaceMaterial:
    """Ag half-space: Drude permittivity, unit permeability."""
    return HalfSpaceMaterial(
        epsilon_model=DrudeParams(OMEGA_E_SILVER, GAMMA_E_SILVER),
        mu_model=1.0,
        label="silver",
    )


def nimm(
    gamma_m: float | np.ndarray = 1e11, omega_m: float = 0.5 * OMEGA_E_SILVER
) -> HalfSpaceMaterial:
    """Negative-index half-space: silver-like electric pole plus a magnetic pole.

    The magnetic plasma frequency defaults to half the electric one and the
    magnetic loss rate is a free knob; an ``(n, 1)`` array of rates gives a
    batch of ``n`` media (see :class:`DrudeParams`).
    """
    return HalfSpaceMaterial(
        epsilon_model=DrudeParams(OMEGA_E_SILVER, GAMMA_E_SILVER),
        mu_model=DrudeParams(omega_m, gamma_m),
        label="nimm",
    )


def dielectric(epsilon: float = EPSILON_DIELECTRIC) -> HalfSpaceMaterial:
    """Dispersionless dielectric half-space with mu = 1."""
    return HalfSpaceMaterial(epsilon_model=epsilon, mu_model=1.0, label="dielectric")


_PRESETS = {
    "silver": silver,
    "nimm-default": nimm,
    "dielectric-1.3": dielectric,
}


def preset(name: str) -> HalfSpaceMaterial:
    """Return a named material preset (silver, nimm-default, dielectric-1.3)."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown material preset {name!r}; options: {sorted(_PRESETS)}") from None
    return factory()
