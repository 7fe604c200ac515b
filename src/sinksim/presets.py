"""Scenario presets and JSON config serialization.

Presets ship as JSON files under ``sinksim/presets/``; each one is a complete
scenario config, so copying a file and editing a value (for example a sensing
range) is all it takes to define a variant. ``config_from_dict`` and
``config_to_dict`` round-trip exactly, which is what lets an emitted summary's
embedded config reproduce its run bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, fields, is_dataclass
from importlib import resources
from typing import get_type_hints

from .errors import ConfigurationError
from .geometry import (CircleField, CirclePath, Point, SquareField, SquarePath,
                       StaticPath, Trajectory)
from .simulation import ScenarioConfig

PRESET_NAMES = ("sep", "cl-sep", "ss-srp", "sc10-srp", "sc20-srp", "sc40-srp", "cc-srp")


def _object(where: str, v) -> dict:
    if not isinstance(v, dict):
        raise ConfigurationError(f"{where} must be an object, got {v!r}")
    return v


def _value(where: str, v, default):
    """``v`` checked and coerced by the type of the default it replaces.

    A dataclass default (``net``, ``radio``) takes an object with no unknown
    keys. Numbers must be finite and not booleans; an int default also
    requires an integral value. A None default means an optional float.
    """
    if is_dataclass(default):
        cls = type(default)
        return cls(**_defaulted(cls, _strict_keys(where, cls, v), where + "."))
    if isinstance(default, str):
        return str(v)
    if default is None and v is None:
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigurationError(f"{where} must be a number, got {v!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigurationError(f"{where} must be finite, got {v!r}")
    if isinstance(default, int):
        if v != int(v):
            raise ConfigurationError(f"{where} must be an integer, got {v!r}")
        return int(v)
    try:
        return float(v)
    except OverflowError:
        raise ConfigurationError(f"{where} must be finite, got {v!r}") from None


def _defaulted(cls, d: dict, prefix: str = "") -> dict:
    """Arguments for the defaulted fields of ``cls`` that ``d`` sets.

    Absent keys are left out, so their defaults live only in ``cls``.
    """
    return {f.name: _value(prefix + f.name, d[f.name], f.default)
            for f in fields(cls) if f.default is not MISSING and f.name in d}


def _strict_keys(where: str, cls, d, extra: tuple[str, ...] = ()) -> dict:
    """``d`` if it is an object whose keys are fields of ``cls`` or ``extra``."""
    unknown = sorted(set(_object(where, d)) - {f.name for f in fields(cls)} - set(extra))
    if unknown:
        raise ConfigurationError(f"unknown {where} key(s): {', '.join(unknown)}")
    return d


# Each field shape and trajectory path kind, by the name its tag key gives.
_SHAPES = {"square": SquareField, "circle": CircleField}
_PATHS = {"square_perimeter": SquarePath, "circle": CirclePath, "static": StaticPath}


def _kind_from_dict(where: str, tag: str, table: dict, d, extra: tuple[str, ...] = ()):
    """The ``table`` class that ``d[tag]`` names, built from one key per field.

    ``d`` may hold only ``tag``, the class's fields and ``extra``. A field
    declared as Point reads an ``[x, y]`` list; every other one is a float.
    """
    kind = _object(where, d).get(tag)
    cls = table.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigurationError(f"unknown {where} {tag} {kind!r}")
    _strict_keys(where, cls, d, (tag, *extra))
    hints = get_type_hints(cls)
    args = {}
    for f in fields(cls):
        key, v = f"{where}.{f.name}", d[f.name]
        if hints[f.name] is not Point:
            args[f.name] = _value(key, v, 0.0)
        elif isinstance(v, (list, tuple)) and len(v) == 2:
            args[f.name] = Point(_value(key, v[0], 0.0), _value(key, v[1], 0.0))
        else:
            raise ConfigurationError(f"expected [x, y] point for {key}, got {v!r}")
    return cls(**args)


def _kind_to_dict(tag: str, table: dict, obj) -> dict:
    """``obj`` as its ``table`` name under ``tag`` plus each of its fields, a Point as ``[x, y]``."""
    d = {tag: next(name for name, cls in table.items() if type(obj) is cls)}
    for f in fields(obj):
        v = getattr(obj, f.name)
        d[f.name] = [v.x, v.y] if isinstance(v, Point) else v
    return d


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Full resolved config as a JSON-ready dict."""
    t = cfg.trajectory
    return {
        "field": _kind_to_dict("shape", _SHAPES, cfg.field),
        # The path's tag and fields replace asdict's nested path object.
        "trajectory": {**asdict(t), **_kind_to_dict("path", _PATHS, t.path)},
        "protocol": cfg.protocol,
        "net": asdict(cfg.net),
        "radio": asdict(cfg.radio),
        "seed": cfg.seed,
        "max_rounds": cfg.max_rounds,
        "stop_rule": cfg.stop_rule,
    }


def config_from_dict(d: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from its dict form.

    Keys other than ``field``, ``trajectory`` and ``protocol`` are optional;
    absent ones take the dataclass defaults.
    """
    _strict_keys("top-level", ScenarioConfig, d)
    try:
        t = d["trajectory"]
        return ScenarioConfig(
            field=_kind_from_dict("field", "shape", _SHAPES, d["field"]),
            trajectory=Trajectory(
                path=_kind_from_dict("trajectory", "path", _PATHS, t,
                                     tuple(f.name for f in fields(Trajectory))),
                **_defaulted(Trajectory, t, "trajectory.")),
            protocol=str(d["protocol"]),
            **_defaulted(ScenarioConfig, d),
        )
    except KeyError as e:
        raise ConfigurationError(f"config is missing required key {e.args[0]!r}") from e


def preset_dict(name: str) -> dict:
    """Raw preset config dict by scenario name."""
    if name not in PRESET_NAMES:
        raise ConfigurationError(
            f"unknown scenario {name!r}; expected one of {', '.join(PRESET_NAMES)}"
        )
    data = resources.files("sinksim").joinpath(f"presets/{name}.json").read_text("utf-8")
    return json.loads(data)


def load_preset(name: str, seed: int | None = None,
                max_rounds: int | None = None) -> ScenarioConfig:
    """Preset scenario by name, optionally overriding seed and horizon."""
    return config_from_dict(layer(preset_dict(name), seed, max_rounds))


def layer(d: dict, seed: int | None = None, max_rounds: int | None = None,
          overrides: list[str] | None = None, flag_keys: tuple[str, ...] = ()) -> dict:
    """``d`` with ``seed`` and ``max_rounds`` set unless None, then each override applied.

    ``d`` changes in place. Overriding a key set that way, or one of
    ``flag_keys`` that a flag sets later or an object holding one, raises, so
    neither wins silently.
    """
    given = {k: v for k, v in (("seed", seed), ("max_rounds", max_rounds)) if v is not None}
    d.update(given)
    for assignment in overrides or ():
        apply_override(d, assignment)
        key = assignment.split("=", 1)[0].strip()
        if key in given or any(f"{k}.".startswith(f"{key}.") for k in flag_keys):
            raise ConfigurationError(f"{key} is given both as a flag and as --override {assignment!r}")
    return d


def apply_override(d: dict, assignment: str) -> None:
    """Apply one ``dotted.key=value`` override to a config dict in place.

    Values parse as JSON when possible (numbers, null, booleans), otherwise
    as plain strings.
    """
    if "=" not in assignment:
        raise ConfigurationError(f"override must look like key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except (ValueError, RecursionError) as e:     # nested too deep, or an int too long
        raise ConfigurationError(f"override {key!r} is not readable JSON: {e}") from e
    parts = key.strip().split(".")
    target = d
    for part in parts[:-1]:
        nxt = target.get(part)
        if not isinstance(nxt, dict):
            raise ConfigurationError(f"override path {key!r} does not exist in the config")
        target = nxt
    if parts[-1] not in target:
        raise ConfigurationError(f"override path {key!r} does not exist in the config")
    target[parts[-1]] = value
