"""Flat INI scenario configuration with strict validation.

Every key has a default reproducing the reference low-loss scenario, so an
empty file (or no file) is a valid configuration.  Unknown sections or keys
are rejected; value errors (a non-finite float among them) are reported with
their ``section.key`` path; the physical invariants of the objects a
configuration builds are re-validated at load time.  A canonical hash of the
fully resolved configuration is embedded in output footers for provenance.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .csvio import format_float
from .dispersion import Polarization
from .eit import LambdaMediumParams
from .errors import ConfigError
from .materials import (
    GAMMA_E_SILVER,
    OMEGA_E_SILVER,
    DrudeParams,
    HalfSpaceMaterial,
    nimm,
    silver,
)

_FLOAT, _INT, _STR, _BOOL, _FLOATLIST = "float", "int", "str", "bool", "floatlist"

SCHEMA: dict[str, dict[str, tuple[str, Any]]] = {
    "materials": {
        "epsilon1": (_FLOAT, 1.3),
        "mu1": (_FLOAT, 1.0),
        "preset2": (_STR, "nimm-default"),  # silver | nimm-default | custom
        "omega_e": (_FLOAT, OMEGA_E_SILVER),
        "gamma_e": (_FLOAT, GAMMA_E_SILVER),
        "magnetic": (_STR, "drude"),  # drude | constant (custom preset only)
        "omega_m": (_FLOAT, 0.5 * OMEGA_E_SILVER),
        "gamma_m": (_FLOAT, 1e11),
        "mu2": (_FLOAT, 1.0),
    },
    "band": {
        "omega_min_over_we": (_FLOAT, 0.3),
        "omega_max_over_we": (_FLOAT, 0.5),
        "n_points": (_INT, 512),
        "polarization": (_STR, "TM"),
        "kappa0": (_FLOAT, 1e4),
    },
    "lossmap": {
        "gamma_ratio_min": (_FLOAT, 1e-5),
        "gamma_ratio_max": (_FLOAT, 1.0),
        "n_gamma": (_INT, 13),
    },
    "eit": {
        "n": (_FLOAT, 1e24),
        "z0": (_FLOAT, 1e-8),
        "gamma21": (_FLOAT, 1e3),
        "gamma31_linewidth": (_FLOAT, 1e9),
        "k1s": (_FLOAT, 1e6),
        "k1c": (_FLOAT, 1e6),
        "ly": (_FLOAT, 2.5e-6),
        "alpha0": (_FLOAT, 1e7),
        "alpha0_from_mode": (_BOOL, False),
        "omega": (_FLOATLIST, (1e9,)),
        "x": (_FLOAT, 1e-3),
        "nu_span_over_gamma31": (_FLOAT, 5.0),
        "n_nu": (_INT, 201),
    },
    "pulse": {
        "delta_t": (_FLOAT, 1e-7),
        "x": (_FLOATLIST, (1e-3, 3e-3)),
        "omega": (_FLOATLIST, (1e9,)),
        "kappa31": (_FLOAT, 1e2),
        "v0": (_FLOAT, 0.0),  # 0 = derive from the interface dispersion
        "omega31_over_we": (_FLOAT, 0.4092),
        "n_nu": (_INT, 4096),
        "nu_span_factor": (_FLOAT, 40.0),
    },
    "output": {
        "directory": (_STR, "out"),
    },
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved configuration: raw values plus built material objects."""

    values: dict[str, dict[str, Any]]
    medium1: HalfSpaceMaterial
    medium2: HalfSpaceMaterial
    omega_e: float
    config_hash: str

    def __getitem__(self, section: str) -> dict[str, Any]:
        return self.values[section]

    def lambda_params(self, omega_rabi: float | np.ndarray) -> LambdaMediumParams:
        e = self.values["eit"]
        return LambdaMediumParams(
            n=e["n"],
            z0=e["z0"],
            gamma21=e["gamma21"],
            Gamma31=e["gamma31_linewidth"],
            Omega=omega_rabi,
            k1s=e["k1s"],
            k1c=e["k1c"],
            Ly=e["ly"],
        )

    @property
    def polarization(self) -> Polarization:
        return Polarization(self.values["band"]["polarization"])


def _finite(raw: str, path: str) -> float:
    """``raw`` as a finite float; only ``eit.z0`` may be inf (a semi-infinite layer)."""
    value = float(raw)
    if not math.isfinite(value) and not (path == "eit.z0" and value == math.inf):
        raise ValueError(f"not a finite number: {raw.strip()!r}")
    return value


def _parse_value(kind: str, raw: str, path: str) -> Any:
    try:
        if kind == _FLOAT:
            return _finite(raw, path)
        if kind == _INT:
            return int(raw)
        if kind == _BOOL:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == _FLOATLIST:
            items = [s for s in (part.strip() for part in raw.split(",")) if s]
            if not items:
                raise ValueError("empty list")
            return tuple(_finite(s, path) for s in items)
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _canonical(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(format_float(v) for v in value)
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _hash(values: dict[str, dict[str, Any]]) -> str:
    lines = []
    for section in sorted(values):
        for key in sorted(values[section]):
            lines.append(f"{section}.{key}={_canonical(values[section][key])}")
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()[:16]


def _build_medium2(m: dict[str, Any]) -> HalfSpaceMaterial:
    preset2 = m["preset2"]
    if preset2 == "silver":
        return silver()
    if preset2 == "nimm-default":
        return nimm(gamma_m=m["gamma_m"], omega_m=m["omega_m"])
    if preset2 == "custom":
        eps = DrudeParams(m["omega_e"], m["gamma_e"])
        if m["magnetic"] == "drude":
            return HalfSpaceMaterial(eps, DrudeParams(m["omega_m"], m["gamma_m"]), "custom")
        if m["magnetic"] == "constant":
            return HalfSpaceMaterial(eps, m["mu2"], "custom")
        raise ConfigError(f"materials.magnetic: must be drude or constant, got {m['magnetic']!r}")
    raise ConfigError(
        f"materials.preset2: must be silver, nimm-default or custom, got {preset2!r}"
    )


def _validate(values: dict[str, dict[str, Any]]) -> None:
    band = values["band"]
    if not (0 < band["omega_min_over_we"] < band["omega_max_over_we"]):
        raise ConfigError("band: need 0 < omega_min_over_we < omega_max_over_we")
    if band["n_points"] < 2:
        raise ConfigError("band.n_points: grid needs at least 2 points")
    if band["polarization"] not in ("TM", "TE"):
        raise ConfigError(f"band.polarization: must be TM or TE, got {band['polarization']!r}")
    if not band["kappa0"] > 0:
        raise ConfigError("band.kappa0: must be positive")

    lm = values["lossmap"]
    if not (0 < lm["gamma_ratio_min"] <= lm["gamma_ratio_max"]):
        raise ConfigError("lossmap: need 0 < gamma_ratio_min <= gamma_ratio_max")
    if lm["n_gamma"] < 1:
        raise ConfigError("lossmap.n_gamma: must be at least 1")

    eit = values["eit"]
    if eit["n_nu"] < 2:
        raise ConfigError("eit.n_nu: grid needs at least 2 points")
    if not eit["nu_span_over_gamma31"] > 0:
        raise ConfigError("eit.nu_span_over_gamma31: must be positive")
    if eit["alpha0"] < 0:
        raise ConfigError("eit.alpha0: must be non-negative")
    if not eit["x"] > 0:
        raise ConfigError("eit.x: must be positive")
    for om in eit["omega"]:
        if om < 0:
            raise ConfigError("eit.omega: control amplitudes must be non-negative")
    if eit["alpha0_from_mode"] and band["polarization"] == "TE":
        raise ConfigError("eit.alpha0_from_mode: the mode normalization is TM-only")

    pulse = values["pulse"]
    if not pulse["delta_t"] > 0:
        raise ConfigError("pulse.delta_t: must be positive")
    if not pulse["omega31_over_we"] > 0:
        raise ConfigError("pulse.omega31_over_we: must be positive")
    if pulse["kappa31"] < 0:
        raise ConfigError("pulse.kappa31: must be non-negative")
    if pulse["v0"] < 0:
        raise ConfigError("pulse.v0: must be non-negative (0 derives it)")
    n_nu = pulse["n_nu"]
    if n_nu < 1024 or n_nu & (n_nu - 1):
        raise ConfigError("pulse.n_nu: must be a power of two >= 1024")
    if not pulse["nu_span_factor"] >= 10.0:
        raise ConfigError("pulse.nu_span_factor: must be >= 10 to cover the pulse spectrum")
    for x in pulse["x"]:
        if not x > 0:
            raise ConfigError("pulse.x: distances must be positive")
    for om in pulse["omega"]:
        if not om > 0:
            raise ConfigError("pulse.omega: control amplitudes must be positive")


def load_config(path: str | Path | None) -> ScenarioConfig:
    """Load and validate a scenario file; ``None`` yields the full defaults."""
    parser = configparser.RawConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str.lower  # keys are case-insensitive
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            with path.open("r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from None

    values: dict[str, dict[str, Any]] = {}
    for section, keys in SCHEMA.items():
        values[section] = {key: default for key, (_, default) in keys.items()}

    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"{section}: unknown section")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
            kind, _ = SCHEMA[section][key]
            values[section][key] = _parse_value(kind, raw, f"{section}.{key}")

    _validate(values)

    m = values["materials"]
    try:
        medium1 = HalfSpaceMaterial(m["epsilon1"], m["mu1"], "medium1")
        medium2 = _build_medium2(m)
        if isinstance(medium2.epsilon_model, DrudeParams):
            omega_e = medium2.epsilon_model.plasma_frequency
        else:
            omega_e = m["omega_e"]
        cfg = ScenarioConfig(values, medium1, medium2, omega_e, _hash(values))
        # Re-validate the EIT invariants by building the parameter object once.
        cfg.lambda_params(np.array(values["eit"]["omega"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg
