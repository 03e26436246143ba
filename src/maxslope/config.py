"""Experiment configuration: the one module that reads config JSON.

The document carries the space, the energy, exactly one command payload
(``run`` | ``sweep`` | ``check``), an output directory and a seed.  Each
JSON object has a table below of its fields, their JSON types and which
are required, and each field is parsed once: a number is a finite JSON
number within float64, not a bool or a string, a tolerance or a check's
eps a ``positive`` number, a list of numbers an array of them, and an
integer goes through ``parse_int``.  Any other field, such as a
misspelled one, is an error.  A field left out is not passed on, so the
Python API's default applies.  The objects are built from the
parsed values by their constructors and factories.  Every error is a
:class:`ConfigError` that names the field.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

from .energy import (CONVEX_PERTURBED, CUSTOM_SMOOTH, QUADRATIC, WIGGLY, EnergySpec,
                     convex_perturbed, custom_smooth, quadratic, wiggly)
from .errors import ConfigError
from .metric import Point, SpaceDescriptor
from .prox import ProxSettings
from .scheme import MAX_RUN_FLOATS, SchemeParams


_NUMBER = {int, float}    # the types of a JSON number; a bool is neither


def _finite(values, value, name: str) -> None:
    try:
        finite = all(map(math.isfinite, values))
    except OverflowError:
        raise ConfigError(f"field {name!r} must be finite, got an integer "
                          f"too large for float64") from None
    if not finite:
        raise ConfigError(f"field {name!r} must be finite, got {value!r}")


def number(value, name: str) -> float:
    if type(value) not in _NUMBER:
        raise ConfigError(f"field {name!r} must be a number, got {value!r}")
    if type(value) is not float or not math.isfinite(value):   # or an int
        _finite((value,), value, name)                          # beyond float64
    return float(value)


def positive(value, name: str) -> float:
    """A finite JSON number above 0: a tolerance or an eps."""
    parsed = number(value, name)
    if not parsed > 0:
        raise ConfigError(f"field {name!r} must be positive, got {value!r}")
    return parsed


def numbers(value, name: str) -> tuple:
    """Finite JSON numbers, as given: whatever takes them makes them floats."""
    if type(value) is not list or not _NUMBER.issuperset(map(type, value)):
        raise ConfigError(f"field {name!r} must be a list of numbers, got {value!r}")
    _finite(value, value, name)
    return tuple(value)


def pairs(value, name: str) -> list:
    if not (isinstance(value, list) and value
            and all(isinstance(pair, list) and len(pair) == 2 for pair in value)):
        raise ConfigError(f"check config field {name!r} must be a nonempty "
                          f"list of [eps, point] pairs")
    return [(positive(e, name), numbers(v, name)) for e, v in value]


def parse_int(value, name: str) -> int:
    """The config field ``name`` as an int.  A bool, a non-number or a
    number with a fractional part is a ConfigError; 1e6 is 1000000."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"field {name!r} must be an integer, got {value!r}")
    return int(value)


def _json_type(kind, what: str):
    def parse(value, name: str):
        if not isinstance(value, kind):
            raise ConfigError(f"field {name!r} must be {what}, got {value!r}")
        return value
    return parse


string, boolean = _json_type(str, "a string"), _json_type(bool, "true or false")
expect_mapping = _json_type(dict, "a JSON object")


# Each table maps a field to its type and to REQUIRED, to API (left out,
# the Python API's default applies) or to the default that only the
# config has.
REQUIRED, API = "required", None
CONFIG_FIELDS = {"space": (expect_mapping, REQUIRED),
                 "energy": (expect_mapping, REQUIRED),
                 "command": (expect_mapping, REQUIRED),
                 "output_dir": (string, "out"), "seed": (parse_int, API)}
SPACE_FIELDS = {"dimension": (parse_int, REQUIRED), "metric_kind": (string, API),
                "weights": (numbers, API), "base_point": (numbers, API)}
KIND = {"kind": (string, REQUIRED)}
BASE = {**KIND, "base": (expect_mapping, REQUIRED)}
ENERGY_FIELDS = {
    QUADRATIC: {**KIND, "weights": (numbers, REQUIRED), "center": (numbers, REQUIRED)},
    WIGGLY: {**BASE, "amplitude_scale": (number, API)},
    CONVEX_PERTURBED: BASE,
    CUSTOM_SMOOTH: {**KIND, "expression": (string, REQUIRED)},
}
ENERGY_FACTORIES = {QUADRATIC: quadratic, WIGGLY: wiggly,
                    CONVEX_PERTURBED: convex_perturbed, CUSTOM_SMOOTH: custom_smooth}
# a sweep level's eps and tau come from the coupling, so its params omit them
PARAMS_FIELDS = {"horizon_T": (number, REQUIRED), "initial_point": (numbers, REQUIRED),
                 "initial_energy_bound_S": (number, API),
                 "initial_distance_bound_Sprime": (number, API),
                 "prox_settings": (expect_mapping, API),
                 "quadrature_nodes_per_step": (parse_int, API),
                 "tau_star": (number, API)}
RUN_FIELDS = {"eps": (number, REQUIRED), "tau": (number, REQUIRED), **PARAMS_FIELDS}
PROX_FIELDS = {"mode": (string, API), "local_tol": (number, API),
               "max_iters": (parse_int, API)}
COUPLING_FIELDS = {"form": (string, REQUIRED), "lam": (number, API),
                   "alpha": (number, API)}
SWEEP_FIELDS = {"coupling": (expect_mapping, REQUIRED), "levels": (numbers, REQUIRED),
                "params": (expect_mapping, REQUIRED)}
PROBES_FIELDS = {"count": (parse_int, 1000), "radius": (number, 2.0)}
TYPE = {"type": (string, REQUIRED)}
CHECK_FIELDS = {
    "dissipation": {**TYPE, "run": (expect_mapping, REQUIRED),
                    "residual_tol": (positive, 1e-8)},
    "apriori": {**TYPE, "run": (expect_mapping, REQUIRED), "quad_tol": (positive, API)},
    "slope_cone": {**TYPE, "eps": (positive, 1.0), "x": (numbers, REQUIRED),
                   "probes": (expect_mapping, {}), "cone_tol": (positive, 1e-9)},
    "condition_h": {**TYPE, "sequence": (pairs, REQUIRED),
                    "limit_v": (numbers, REQUIRED), "h_tol": (positive, API),
                    "seq_tol": (positive, API)},
    "maximal_slope": {**TYPE, **SWEEP_FIELDS, "check_tol": (positive, 5e-3),
                      "waive_condition_h": (boolean, API),
                      "monotone_tol": (positive, API)},
}
COMMAND_FIELDS = {"sweep": {**SWEEP_FIELDS, "sweep_tol": (positive, API)},
                  **{f"check {ctype}": table for ctype, table in CHECK_FIELDS.items()}}
COMMANDS = ("run", "sweep", "check")
COMMAND_BLOCK = {command: (expect_mapping, API) for command in COMMANDS}
CHECK_TYPES = tuple(CHECK_FIELDS)


class ExperimentConfig(NamedTuple):
    """A parsed config.  ``args`` holds the fields of the command's JSON
    object parsed, ``run`` and ``params`` as SchemeParams, ``coupling`` as a
    CouplingLaw and points as arrays."""

    space: SpaceDescriptor
    energy: EnergySpec
    command: str
    args: dict
    output_dir: Path
    seed: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        fields = parse_object(d, CONFIG_FIELDS, "config", "config")
        if "seed" in fields and fields["seed"] < 0:
            raise ConfigError(f"field 'seed' must be a non-negative integer, "
                              f"got {fields['seed']}")
        space_fields = parse_object(fields["space"], SPACE_FIELDS, "space")
        energy_fields = parse_energy(fields["energy"], "energy")
        dimension = space_fields["dimension"]
        if dimension != _dimension(energy_fields):
            raise ConfigError(f"field 'dimension' is {dimension}, the energy has "
                              f"dimension {_dimension(energy_fields)}")
        if "base_point" in space_fields:
            space_fields["base_point"] = as_point(space_fields["base_point"], dimension,
                                                  "base_point")
        space = build(SpaceDescriptor, "field 'space' invalid", **space_fields)
        energy = build(_energy, "field 'energy' invalid", energy_fields, space)
        block = parse_object(fields["command"], COMMAND_BLOCK, "command", prefix="command.")
        if len(block) != 1:
            raise ConfigError(f"command block must contain exactly one of {COMMANDS}, "
                              f"found {[c for c in COMMANDS if c in block] or 'none'}")
        (command, payload), = block.items()
        seed = {"seed": fields["seed"]} if "seed" in fields else {}
        return cls(space=space, energy=energy, command=command,
                   args=parse_command(command, payload, space),
                   output_dir=Path(fields["output_dir"]), **seed)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "rb") as fh:      # no text layer: one decode
                raw = json.loads(fh.read().decode("utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except OSError as exc:      # a directory, no permission, an I/O error
            raise ConfigError(f"cannot read config file {path}: "
                              f"{exc.strerror or exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        except ValueError as exc:     # int's limit on the digits it converts
            raise ConfigError(f"config file {path} has a number literal too long "
                              f"to read: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError(f"config file {path} nests too deeply to read") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(raw)


def expect_fields(value: dict, known, context: str) -> dict:
    """``value``, whose every field is one of ``known``; any other field,
    such as a misspelled one, is a ConfigError that names it."""
    for name in value:
        if name not in known:
            raise ConfigError(f"unknown field {name!r} in {context} "
                              f"(known: {', '.join(known)})")
    return value


def parse_object(value, table: dict, context: str, owner: str | None = None,
                 prefix: str = "") -> dict:
    """The JSON object ``value``'s fields, each parsed by its type in
    ``table``; a field left out takes the table's default, or is absent
    where the Python API has it.  Errors name the object as ``context``,
    a missing field's as ``owner``, and a field as ``prefix`` + its name."""
    if not value.keys() <= table.keys():
        expect_fields(value, table, context)
    parsed = {}
    for name, raw in value.items():
        parsed[name] = table[name][0](raw, prefix + name)
    for name, (_, default) in table.items():
        if name not in parsed and default is not API:
            if default is REQUIRED:
                raise ConfigError(f"{owner or context + ' config'} missing field {name!r}")
            parsed[name] = default
    return parsed


def parse_energy(value, context: str) -> dict:
    """The energy object's fields, and so its base's.  They are named by
    their path, such as 'energy.base.weights': the space has weights too."""
    if "kind" not in value:
        raise ConfigError("energy config missing field 'kind'")
    kind = value["kind"]
    if not isinstance(kind, str) or kind not in ENERGY_FIELDS:
        raise ConfigError(f"unknown energy kind {kind!r}")
    fields = parse_object(value, ENERGY_FIELDS[kind], context, f"{kind} energy config",
                          f"{context}.")
    if "base" in fields:
        fields["base"] = parse_energy(fields["base"], f"{context}.base")
    return fields


def _dimension(fields: dict) -> int:
    """The energy's dimension: its weights' length, 1 for custom_smooth."""
    while "base" in fields:
        fields = fields["base"]
    return 1 if fields["kind"] == CUSTOM_SMOOTH else len(fields["weights"])


def _energy(fields: dict, space: SpaceDescriptor) -> EnergySpec:
    """The energy of the parsed ``fields``, which it consumes."""
    factory = ENERGY_FACTORIES[fields.pop("kind")]
    if "base" in fields:
        fields["base"] = _energy(fields["base"], space)
        return factory(**fields)
    return factory(space, **fields)


def build(factory, invalid: str, *args, **kwargs):
    """``factory(*args, **kwargs)``; a ValueError becomes ``invalid: ...``."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{invalid}: {exc}") from exc


def as_point(coords, dimension: int, name: str) -> Point:
    """The parsed field ``name`` as a Point of the space's ``dimension``."""
    if len(coords) != dimension:
        raise ConfigError(f"field {name!r} has dimension {len(coords)}, "
                          f"the space has {dimension}")
    return Point(coords)


def parse_scheme_params(payload: dict, space: SpaceDescriptor, context: str = "run",
                        table=RUN_FIELDS, **given) -> SchemeParams:
    """SchemeParams from a run's JSON object and the fields ``given``."""
    fields = {**parse_object(payload, table, context), **given}
    fields["initial_point"] = as_point(fields["initial_point"], space.dimension,
                                       "initial_point")
    if "prox_settings" in fields:
        fields["prox_settings"] = build(
            ProxSettings, "field 'prox_settings' invalid",
            **parse_object(fields["prox_settings"], PROX_FIELDS, "prox_settings"))
    return build(SchemeParams, f"{context} config invalid", **fields)


def parse_command(command: str, payload: dict, space: SpaceDescriptor) -> dict:
    """The payload's fields, parsed against ``space``; those with a Python
    API default, where given, are the keywords in ``options``."""
    if command == "check":
        ctype = payload.get("type")
        if ctype not in CHECK_TYPES:
            raise ConfigError(f"check config field 'type' must be one of "
                              f"{CHECK_TYPES}, got {ctype!r}")
        command = f"check {ctype}"
    if command == "run":
        return {"run": parse_scheme_params(payload, space)}
    base = command.split()[0]
    table = COMMAND_FIELDS[command]
    args = parse_object(payload, table, command, f"{base} config")
    args["options"] = {name: args.pop(name) for name, (_, default) in table.items()
                       if default is API and name in args}
    n = space.dimension
    if "run" in args:
        args["run"] = parse_scheme_params(args["run"], space, f"{base}.run")
    if "coupling" in args:
        from .regimes import CouplingLaw     # loaded only for a coupling

        args["coupling"] = build(CouplingLaw, "field 'coupling' invalid", **parse_object(
            args["coupling"], COUPLING_FIELDS, "coupling"))
        if not args["levels"]:
            raise ConfigError("field 'levels' must be a nonempty list of numbers")
        eps, tau = args["coupling"].resolve(args["levels"][0])
        args["params"] = parse_scheme_params(args["params"], space, f"{base}.params",
                                             PARAMS_FIELDS, eps=eps, tau=tau)
    for name in ("x", "limit_v"):
        if name in args:
            args[name] = as_point(args[name], n, name).array
    if "sequence" in args:
        args["sequence"] = [(e, as_point(v, n, "sequence").array)
                            for e, v in args["sequence"]]
    if "probes" in args:
        args["probes"] = parse_object(args["probes"], PROBES_FIELDS, "probes")
        count, radius = args["probes"]["count"], args["probes"]["radius"]
        if not 1 <= count <= MAX_RUN_FLOATS // n:
            raise ConfigError(f"field 'count' must be at least 1 and count * n at "
                              f"most {MAX_RUN_FLOATS:.0e}, got {count}")
        if not (radius > 0 and math.isfinite(2.0 * radius)):   # probes span 2 radius
            raise ConfigError(f"field 'probes.radius' must be positive with 2 radius "
                              f"finite, got {radius!r}")
    return args
