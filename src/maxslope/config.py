"""Experiment configuration: one JSON document describing one command.

The document carries the space, the energy, exactly one command payload
(``run`` | ``sweep`` | ``check``), an output directory and a seed.  All
parsing errors are raised as :class:`ConfigError` naming the offending
field, so the CLI can map them to exit code 1 with a usable message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .energy import EnergySpec
from .errors import ConfigError
from .metric import Point, SpaceDescriptor
from .prox import ProxSettings
from .regimes import CouplingLaw
from .scheme import SchemeParams

COMMANDS = ("run", "sweep", "check")
CHECK_TYPES = ("dissipation", "apriori", "slope_cone", "condition_h",
               "maximal_slope")


@dataclass(frozen=True)
class ExperimentConfig:
    space: SpaceDescriptor
    energy: EnergySpec
    command: str
    payload: dict
    output_dir: Path
    seed: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        for name in ("space", "energy", "command"):
            if name not in d:
                raise ConfigError(f"config missing field {name!r}")
        space = SpaceDescriptor.from_dict(_expect_mapping(d["space"], "space"))
        energy = EnergySpec.from_dict(_expect_mapping(d["energy"], "energy"), space)
        command_block = _expect_mapping(d["command"], "command")
        present = [c for c in COMMANDS if c in command_block]
        if len(present) != 1:
            raise ConfigError(
                f"command block must contain exactly one of {COMMANDS}, "
                f"found {present or 'none'}"
            )
        command = present[0]
        payload = _expect_mapping(command_block[command], f"command.{command}")
        return cls(
            space=space,
            energy=energy,
            command=command,
            payload=payload,
            output_dir=Path(d.get("output_dir", "out")),
            seed=int(d.get("seed", 0)),
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(raw)


def _expect_mapping(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"field {name!r} must be a JSON object")
    return value


def _require(payload: dict, name: str, context: str):
    if name not in payload:
        raise ConfigError(f"{context} config missing field {name!r}")
    return payload[name]


def parse_scheme_params(payload: dict, space: SpaceDescriptor,
                        context: str = "run") -> SchemeParams:
    """Scheme parameters from a payload dict, checked against ``space``."""
    eps = float(_require(payload, "eps", context))
    tau = float(_require(payload, "tau", context))
    init = _require(payload, "initial_point", context)
    tau_star = float(payload.get("tau_star", 1.0))
    try:
        params = SchemeParams(
            eps=eps,
            tau=tau,
            horizon_T=float(_require(payload, "horizon_T", context)),
            initial_point=Point(tuple(init)),
            initial_energy_bound_S=float(payload.get("initial_energy_bound_S", 10.0)),
            initial_distance_bound_Sprime=float(
                payload.get("initial_distance_bound_Sprime", 10.0)),
            prox_settings=ProxSettings.from_dict(payload.get("prox_settings", {})),
            quadrature_nodes_per_step=int(payload.get("quadrature_nodes_per_step", 8)),
            tau_star=tau_star,
        )
    except ValueError as exc:
        raise ConfigError(f"{context} config invalid: {exc}") from exc
    if params.initial_point.dim != space.dimension:
        raise ConfigError(
            f"{context} config field 'initial_point' has dimension "
            f"{params.initial_point.dim}, the space has {space.dimension}"
        )
    return params


def parse_coupling(payload: dict, context: str) -> CouplingLaw:
    try:
        return CouplingLaw.from_dict(_expect_mapping(
            _require(payload, "coupling", context), f"{context}.coupling"))
    except ValueError as exc:
        raise ConfigError(f"{context} coupling invalid: {exc}") from exc


def parse_levels(payload: dict, context: str) -> list[float]:
    levels = _require(payload, "levels", context)
    if not isinstance(levels, list) or not levels:
        raise ConfigError(f"{context} config field 'levels' must be a nonempty list")
    return [float(v) for v in levels]
