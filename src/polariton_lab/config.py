"""Flat INI scenario configuration with strict validation.

Every key has a default reproducing the reference low-loss scenario, so an
empty file (or no file) is a valid configuration.  Unknown sections or keys
are rejected.  Each key's kind, default and admissible values live in one
place, :data:`SCHEMA`; a value that is not of its kind, not finite (only
``eit.z0`` may be inf) or breaks its key's rule is rejected as
``section.key: <reason>`` (the CLI exits 2), and :func:`_validate` holds the
few rules that tie two keys together.  A canonical hash of the fully resolved
configuration is embedded in output footers for provenance.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

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

# A rule is what a value must be, as text for the error, and its predicate;
# a list value must satisfy it element by element.
Rule = tuple[str, Callable[[Any], bool]]
_POSITIVE: Rule = ("positive", lambda v: v > 0)
_NON_NEGATIVE: Rule = ("non-negative", lambda v: v >= 0)


def _at_least(n: int) -> Rule:
    return (f"at least {n}", lambda v: v >= n)


def _one_of(*names: str) -> Rule:
    return (f"one of {', '.join(names)}", lambda v: v in names)


# section -> key -> (kind, default, rule or None)
SCHEMA: dict[str, dict[str, tuple[str, Any, Rule | None]]] = {
    "materials": {
        "epsilon1": (_FLOAT, 1.3, _POSITIVE),
        "mu1": (_FLOAT, 1.0, _POSITIVE),
        "preset2": (_STR, "nimm-default", _one_of("silver", "nimm-default", "custom")),
        "omega_e": (_FLOAT, OMEGA_E_SILVER, _POSITIVE),
        "gamma_e": (_FLOAT, GAMMA_E_SILVER, _NON_NEGATIVE),
        "magnetic": (_STR, "drude", _one_of("drude", "constant")),  # custom preset only
        "omega_m": (_FLOAT, 0.5 * OMEGA_E_SILVER, _POSITIVE),
        "gamma_m": (_FLOAT, 1e11, _NON_NEGATIVE),
        "mu2": (_FLOAT, 1.0, _POSITIVE),
    },
    "band": {
        "omega_min_over_we": (_FLOAT, 0.3, _POSITIVE),
        "omega_max_over_we": (_FLOAT, 0.5, _POSITIVE),
        "n_points": (_INT, 512, _at_least(2)),
        "polarization": (_STR, "TM", _one_of("TM", "TE")),
        "kappa0": (_FLOAT, 1e4, _POSITIVE),
    },
    "lossmap": {
        "gamma_ratio_min": (_FLOAT, 1e-5, _POSITIVE),
        "gamma_ratio_max": (_FLOAT, 1.0, _POSITIVE),
        "n_gamma": (_INT, 13, _at_least(1)),
    },
    "eit": {
        "n": (_FLOAT, 1e24, _NON_NEGATIVE),
        "z0": (_FLOAT, 1e-8, _POSITIVE),
        "gamma21": (_FLOAT, 1e3, _NON_NEGATIVE),
        "gamma31_linewidth": (_FLOAT, 1e9, _POSITIVE),
        "k1s": (_FLOAT, 1e6, _POSITIVE),
        "k1c": (_FLOAT, 1e6, _POSITIVE),
        "ly": (_FLOAT, 2.5e-6, _POSITIVE),
        "alpha0": (_FLOAT, 1e7, _NON_NEGATIVE),
        "alpha0_from_mode": (_BOOL, False, None),
        "omega": (_FLOATLIST, (1e9,), _NON_NEGATIVE),
        "x": (_FLOAT, 1e-3, _POSITIVE),
        "nu_span_over_gamma31": (_FLOAT, 5.0, _POSITIVE),
        "n_nu": (_INT, 201, _at_least(2)),
    },
    "pulse": {
        "delta_t": (_FLOAT, 1e-7, _POSITIVE),
        "x": (_FLOATLIST, (1e-3, 3e-3), _POSITIVE),
        "omega": (_FLOATLIST, (1e9,), _POSITIVE),
        "kappa31": (_FLOAT, 1e2, _NON_NEGATIVE),
        "v0": (_FLOAT, 0.0, _NON_NEGATIVE),  # 0 = derive from the interface dispersion
        "omega31_over_we": (_FLOAT, 0.4092, _POSITIVE),
        "n_nu": (_INT, 4096, ("a power of two >= 1024", lambda v: v >= 1024 and not v & (v - 1))),
        "nu_span_factor": (_FLOAT, 40.0, _at_least(10)),
    },
    "output": {
        "directory": (_STR, "out", None),
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


def _parse_value(kind: str, raw: str, path: str, rule: Rule | None) -> Any:
    """``raw`` as a value of ``kind`` that satisfies ``rule`` (a list: every element)."""
    try:
        if kind == _FLOAT:
            value = _finite(raw, path)
        elif kind == _INT:
            value = int(raw)
        elif kind == _BOOL:
            lowered = raw.strip().lower()
            if lowered not in ("true", "yes", "on", "1", "false", "no", "off", "0"):
                raise ValueError(f"not a boolean: {raw!r}")
            value = lowered in ("true", "yes", "on", "1")
        elif kind == _FLOATLIST:
            items = [s for s in (part.strip() for part in raw.split(",")) if s]
            if not items:
                raise ValueError("empty list")
            value = tuple(_finite(s, path) for s in items)
        else:
            value = raw.strip()
        if rule is not None and not all(map(rule[1], value if kind == _FLOATLIST else (value,))):
            raise ValueError(f"must be {rule[0]}")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return value


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
    if m["preset2"] == "silver":
        return silver()
    if m["preset2"] == "nimm-default":
        return nimm(gamma_m=m["gamma_m"], omega_m=m["omega_m"])
    eps = DrudeParams(m["omega_e"], m["gamma_e"])
    if m["magnetic"] == "drude":
        return HalfSpaceMaterial(eps, DrudeParams(m["omega_m"], m["gamma_m"]), "custom")
    return HalfSpaceMaterial(eps, m["mu2"], "custom")


def _validate(values: dict[str, dict[str, Any]]) -> None:
    """The rules that tie two keys together; each key's own rule is in SCHEMA."""
    band = values["band"]
    if not band["omega_min_over_we"] < band["omega_max_over_we"]:
        raise ConfigError("band: need omega_min_over_we < omega_max_over_we")
    lm = values["lossmap"]
    if not lm["gamma_ratio_min"] <= lm["gamma_ratio_max"]:
        raise ConfigError("lossmap: need gamma_ratio_min <= gamma_ratio_max")
    if values["eit"]["alpha0_from_mode"] and band["polarization"] == "TE":
        raise ConfigError("eit.alpha0_from_mode: the mode normalization is TM-only")


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

    values = {
        section: {key: default for key, (_, default, _) in keys.items()}
        for section, keys in SCHEMA.items()
    }
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"{section}: unknown section")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
            kind, _, rule = SCHEMA[section][key]
            values[section][key] = _parse_value(kind, raw, f"{section}.{key}", rule)
    _validate(values)

    m = values["materials"]
    medium2 = _build_medium2(m)
    return ScenarioConfig(
        values,
        HalfSpaceMaterial(m["epsilon1"], m["mu1"], "medium1"),
        medium2,
        medium2.epsilon_model.plasma_frequency,
        _hash(values),
    )
