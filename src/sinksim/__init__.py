"""Round-based lifetime simulator for WSNs with mobile-sink trajectories."""

from .energy import RadioParams
from .errors import ConfigurationError
from .geometry import (CircleField, CirclePath, Point, SquareField, SquarePath,
                       StaticPath, Trajectory, coverage_radius)
from .presets import PRESET_NAMES, config_from_dict, config_to_dict, load_preset
from .protocols import CL_SEP, SEP, SRP, NetworkParams
from .simulation import RunMetrics, ScenarioConfig, Simulation, run

__all__ = [
    "CL_SEP", "CircleField", "CirclePath", "ConfigurationError", "NetworkParams",
    "PRESET_NAMES", "Point", "RadioParams", "RunMetrics", "SEP", "SRP",
    "ScenarioConfig", "Simulation", "SquareField", "SquarePath", "StaticPath",
    "Trajectory", "config_from_dict", "config_to_dict", "coverage_radius",
    "load_preset", "run",
]

__version__ = "0.1.0"
