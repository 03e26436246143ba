"""Experiment configuration: one JSON document describing one command.

The document carries the space, the energy, exactly one command payload
(``run`` | ``sweep`` | ``check``), an output directory and a seed.  All
parsing errors are raised as :class:`ConfigError` naming the offending
field, so the CLI can map them to exit code 1 with a usable message.  Every
JSON object has a fixed set of fields, listed below; any other field, such
as a misspelled one, is such an error, not a field ignored in favour of
its default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .energy import CONVEX_PERTURBED, CUSTOM_SMOOTH, QUADRATIC, WIGGLY, EnergySpec
from .errors import ConfigError
from .metric import Point, SpaceDescriptor
from .prox import ProxSettings
from .regimes import CouplingLaw
from .scheme import SchemeParams

COMMANDS = ("run", "sweep", "check")
# The fields of each JSON object.
CONFIG_FIELDS = ("space", "energy", "command", "output_dir", "seed")
SPACE_FIELDS = ("dimension", "metric_kind", "weights", "base_point")
ENERGY_FIELDS = {QUADRATIC: ("kind", "weights", "center"),
                 WIGGLY: ("kind", "base", "amplitude_scale"),
                 CONVEX_PERTURBED: ("kind", "base"),
                 CUSTOM_SMOOTH: ("kind", "expression")}
# a sweep level's eps and tau come from the coupling, so its params omit them
PARAMS_FIELDS = ("horizon_T", "initial_point", "initial_energy_bound_S",
                 "initial_distance_bound_Sprime", "prox_settings",
                 "quadrature_nodes_per_step", "tau_star")
RUN_FIELDS = ("eps", "tau") + PARAMS_FIELDS
PROX_FIELDS = ("mode", "local_tol", "max_iters")
COUPLING_FIELDS = ("form", "lam", "alpha")
SWEEP_FIELDS = ("coupling", "levels", "params", "sweep_tol")
PROBES_FIELDS = ("count", "radius")
CHECK_FIELDS = {
    "dissipation": ("type", "run", "residual_tol"),
    "apriori": ("type", "run", "quad_tol"),
    "slope_cone": ("type", "eps", "x", "probes", "cone_tol"),
    "condition_h": ("type", "sequence", "limit_v", "h_tol", "seq_tol"),
    "maximal_slope": ("type", "coupling", "levels", "params", "check_tol",
                      "waive_condition_h", "monotone_tol"),
}
CHECK_TYPES = tuple(CHECK_FIELDS)


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
        expect_fields(d, CONFIG_FIELDS, "config")
        for name in ("space", "energy", "command"):
            if name not in d:
                raise ConfigError(f"config missing field {name!r}")
        raw_space = expect_fields(expect_mapping(d["space"], "space"), SPACE_FIELDS,
                                  "space")
        space_fields = {k: v for k, v in raw_space.items() if k != "base_point"}
        space_fields["dimension"] = parse_int(
            require(raw_space, "dimension", "space"), "dimension")
        space = parse_field(SpaceDescriptor.from_dict, space_fields, "space")
        if "base_point" in raw_space:
            space = replace(space, base_point=parse_point(
                raw_space["base_point"], space, "base_point"))
        energy = parse_field(lambda e: EnergySpec.from_dict(e, space),
                             expect_energy_fields(d["energy"], "energy"), "energy")
        command_block = expect_fields(expect_mapping(d["command"], "command"),
                                      COMMANDS, "command")
        present = [c for c in COMMANDS if c in command_block]
        if len(present) != 1:
            raise ConfigError(
                f"command block must contain exactly one of {COMMANDS}, "
                f"found {present or 'none'}"
            )
        command = present[0]
        payload = expect_mapping(command_block[command], f"command.{command}")
        output_dir = d.get("output_dir", "out")
        if not isinstance(output_dir, str):
            raise ConfigError(f"field 'output_dir' must be a string, got {output_dir!r}")
        return cls(
            space=space,
            energy=energy,
            command=command,
            payload=payload,
            output_dir=Path(output_dir),
            seed=parse_int(d.get("seed", 0), "seed"),
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


def expect_mapping(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"field {name!r} must be a JSON object")
    return value


def expect_fields(value: dict, known, context: str) -> dict:
    """``value``, whose every field is one of ``known``; any other field,
    such as a misspelled one, is a ConfigError that names it."""
    for name in value:
        if name not in known:
            raise ConfigError(f"unknown field {name!r} in {context} "
                              f"(known: {', '.join(known)})")
    return value


def expect_energy_fields(value, context: str) -> dict:
    """The energy object ``value`` with its kind's fields only, and so its
    base's; an unknown or missing kind is left to ``EnergySpec.from_dict``."""
    value = expect_mapping(value, context)
    kind = value.get("kind")
    if isinstance(kind, str) and kind in ENERGY_FIELDS:
        expect_fields(value, ENERGY_FIELDS[kind], context)
        if "base" in value:
            expect_energy_fields(value["base"], f"{context}.base")
    return value


def require(payload: dict, name: str, context: str):
    if name not in payload:
        raise ConfigError(f"{context} config missing field {name!r}")
    return payload[name]


def parse_field(kind, value, name: str):
    """``kind(value)`` for the config field ``name``; a value of the wrong
    JSON type or range (null, a list or a bool for a float, or a float
    that is NaN or infinite) is a ConfigError."""
    if kind is float and isinstance(value, bool):
        raise ConfigError(f"field {name!r} must be a number, got {value!r}")
    try:
        parsed = kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {name!r} invalid: {exc}") from exc
    if kind is float and not math.isfinite(parsed):
        raise ConfigError(f"field {name!r} must be finite, got {value!r}")
    return parsed


def parse_int(value, name: str) -> int:
    """The config field ``name`` as an int.  A bool, a non-number or a
    number with a fractional part is a ConfigError; 1e6 is 1000000."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"field {name!r} must be an integer, got {value!r}")
    return int(value)


def parse_point(value, space: SpaceDescriptor, name: str) -> Point:
    """The config field ``name`` as a Point of ``space``'s dimension."""
    if not isinstance(value, list):
        raise ConfigError(f"field {name!r} must be a list of numbers, got {value!r}")
    point = parse_field(Point, tuple(value), name)
    if point.dim != space.dimension:
        raise ConfigError(f"field {name!r} has dimension {point.dim}, "
                          f"the space has {space.dimension}")
    return point


def parse_scheme_params(payload: dict, space: SpaceDescriptor,
                        context: str = "run") -> SchemeParams:
    """Scheme parameters from a payload dict, checked against ``space``."""
    def number(name, default=None):
        value = require(payload, name, context) if default is None \
            else payload.get(name, default)
        return parse_field(float, value, name)

    payload = expect_fields(expect_mapping(payload, context), RUN_FIELDS, context)
    prox_fields = expect_fields(expect_mapping(payload.get("prox_settings", {}),
                                               "prox_settings"),
                                PROX_FIELDS, "prox_settings")
    if "max_iters" in prox_fields:
        parse_int(prox_fields["max_iters"], "max_iters")
    if "local_tol" in prox_fields:
        parse_field(float, prox_fields["local_tol"], "local_tol")
    try:
        return SchemeParams(
            eps=number("eps"),
            tau=number("tau"),
            horizon_T=number("horizon_T"),
            initial_point=parse_point(require(payload, "initial_point", context),
                                      space, "initial_point"),
            initial_energy_bound_S=number("initial_energy_bound_S", 10.0),
            initial_distance_bound_Sprime=number("initial_distance_bound_Sprime", 10.0),
            prox_settings=parse_field(ProxSettings.from_dict, prox_fields,
                                      "prox_settings"),
            quadrature_nodes_per_step=parse_int(
                payload.get("quadrature_nodes_per_step", 8), "quadrature_nodes_per_step"),
            tau_star=number("tau_star", 1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"{context} config invalid: {exc}") from exc


def parse_sweep(payload: dict, space: SpaceDescriptor, context: str):
    """Coupling law, levels and the first level's scheme parameters."""
    coupling = parse_field(CouplingLaw.from_dict, expect_fields(expect_mapping(
        require(payload, "coupling", context), "coupling"), COUPLING_FIELDS,
        "coupling"), "coupling")
    levels = require(payload, "levels", context)
    if not isinstance(levels, list) or not levels:
        raise ConfigError(f"{context} config field 'levels' must be a nonempty list")
    levels = [parse_field(float, v, "levels") for v in levels]
    eps0, tau0 = coupling.resolve(levels[0])
    params = expect_fields(expect_mapping(payload.get("params", {}), "params"),
                           PARAMS_FIELDS, f"{context}.params")
    base = parse_scheme_params({**params, "eps": eps0, "tau": tau0}, space,
                               f"{context}.params")
    return coupling, levels, base
