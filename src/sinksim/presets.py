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

from .errors import ConfigurationError
from .geometry import (CircleField, CirclePath, Field, Path, Point,
                       SquareField, SquarePath, StaticPath, Trajectory)
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


def _point_to_list(p: Point) -> list[float]:
    return [p.x, p.y]


def _point_from_list(where: str, v) -> Point:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ConfigurationError(f"expected [x, y] point for {where}, got {v!r}")
    return Point(_value(where, v[0], 0.0), _value(where, v[1], 0.0))


def _field_to_dict(f: Field) -> dict:
    if isinstance(f, SquareField):
        return {"shape": "square", "side": f.side}
    return {"shape": "circle", "center": _point_to_list(f.center), "radius": f.radius}


def _field_from_dict(d) -> Field:
    shape = _object("field", d).get("shape")
    if shape == "square":
        return SquareField(side=_value("field.side", d["side"], 0.0))
    if shape == "circle":
        return CircleField(center=_point_from_list("field.center", d["center"]),
                           radius=_value("field.radius", d["radius"], 0.0))
    raise ConfigurationError(f"unknown field shape {shape!r}")


def _path_to_dict(p: Path) -> dict:
    if isinstance(p, SquarePath):
        return {"path": "square_perimeter", "center": _point_to_list(p.center), "side": p.side}
    if isinstance(p, CirclePath):
        return {"path": "circle", "center": _point_to_list(p.center), "radius": p.radius}
    return {"path": "static", "point": _point_to_list(p.point)}


# Keys each trajectory path kind takes besides the Trajectory fields.
_PATH_KEYS = {"square_perimeter": ("center", "side"), "circle": ("center", "radius"),
              "static": ("point",)}


def _path_from_dict(d: dict) -> Path:
    kind = d.get("path")
    if kind == "square_perimeter":
        return SquarePath(center=_point_from_list("trajectory.center", d["center"]),
                          side=_value("trajectory.side", d["side"], 0.0))
    if kind == "circle":
        return CirclePath(center=_point_from_list("trajectory.center", d["center"]),
                          radius=_value("trajectory.radius", d["radius"], 0.0))
    if kind == "static":
        return StaticPath(point=_point_from_list("trajectory.point", d["point"]))
    raise ConfigurationError(f"unknown trajectory path {kind!r}")


def _trajectory_to_dict(t: Trajectory) -> dict:
    d = _path_to_dict(t.path)
    d["sojourn_count"] = t.sojourn_count
    d["sensing_range"] = t.sensing_range
    d["r_max"] = t.r_max
    return d


def _trajectory_from_dict(d) -> Trajectory:
    path = _path_from_dict(_object("trajectory", d))
    _strict_keys("trajectory", Trajectory, d, _PATH_KEYS[d["path"]])
    return Trajectory(path=path, **_defaulted(Trajectory, d, "trajectory."))


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Full resolved config as a JSON-ready dict."""
    return {
        "field": _field_to_dict(cfg.field),
        "trajectory": _trajectory_to_dict(cfg.trajectory),
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
        return ScenarioConfig(
            field=_field_from_dict(d["field"]),
            trajectory=_trajectory_from_dict(d["trajectory"]),
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
    d = preset_dict(name)
    if seed is not None:
        d["seed"] = seed
    if max_rounds is not None:
        d["max_rounds"] = max_rounds
    return config_from_dict(d)


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
