"""Surface polaritons at lossy interfaces: dispersion, loss cancellation,
EIT-controlled spectral absorption and slow-light pulse propagation."""

__version__ = "0.1.0"

from .dispersion import (
    AbyssResult,
    DispersionPoint,
    Polarization,
    find_abyss,
    group_velocity,
    loss_cancellation_residual,
    polarization_support,
    sp_wavevector,
    swap_eps_mu,
)
from .eit import (
    EitResponse,
    LambdaMediumParams,
    alpha_closed,
    alpha_quadrature,
    alpha_resonant,
    hyp2f1_special,
)
from .errors import (
    AbyssNotFoundError,
    BranchCutError,
    ConfigError,
    NumericError,
    PolaritonError,
)
from .materials import (
    DrudeParams,
    HalfSpaceMaterial,
    MaterialResponse,
    d_omega_material,
    dielectric,
    eval_material,
    nimm,
    preset,
    silver,
)
from .propagation import (
    PropagationScenario,
    PulseMetrics,
    delay_vs_control,
    propagate_pulse,
    transfer_function,
)
from .quantization import (
    DIPOLE_EA0,
    CouplingConstant,
    ModeNormalization,
    coupling_constant,
    mode_normalization,
)

__all__ = [
    "AbyssNotFoundError",
    "AbyssResult",
    "BranchCutError",
    "ConfigError",
    "CouplingConstant",
    "DIPOLE_EA0",
    "DispersionPoint",
    "DrudeParams",
    "EitResponse",
    "HalfSpaceMaterial",
    "LambdaMediumParams",
    "MaterialResponse",
    "ModeNormalization",
    "NumericError",
    "Polarization",
    "PolaritonError",
    "PropagationScenario",
    "PulseMetrics",
    "alpha_closed",
    "alpha_quadrature",
    "alpha_resonant",
    "coupling_constant",
    "d_omega_material",
    "delay_vs_control",
    "dielectric",
    "eval_material",
    "find_abyss",
    "group_velocity",
    "hyp2f1_special",
    "loss_cancellation_residual",
    "mode_normalization",
    "nimm",
    "polarization_support",
    "preset",
    "propagate_pulse",
    "silver",
    "sp_wavevector",
    "swap_eps_mu",
    "transfer_function",
]
