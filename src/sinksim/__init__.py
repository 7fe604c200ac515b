"""Round-based lifetime simulator for WSNs with mobile-sink trajectories."""

from .energy import RadioParams, aggregation_energy, rx_energy, tx_energy
from .errors import ConfigurationError
from .geometry import (CircleField, CirclePath, Field, Path, Point,
                       SquareField, SquarePath, StaticPath, Trajectory,
                       coverage_radius, coverage_radius_grid, distance,
                       sink_position, sojourn_points)
from .presets import PRESET_NAMES, config_from_dict, config_to_dict, load_preset
from .protocols import (ADVANCED, CL_SEP, NORMAL, SEP, SRP, NetworkParams,
                        NodeState, RoundOutcome, ch_probability, direct_round,
                        election_threshold, sep_round)
from .simulation import (RunMetrics, ScenarioConfig, Simulation, deploy,
                         rng_identity, rng_stream, run)

__all__ = [
    "ADVANCED", "CL_SEP", "CircleField", "CirclePath", "ConfigurationError",
    "Field", "NORMAL", "NetworkParams", "NodeState", "PRESET_NAMES",
    "Path", "Point", "RadioParams", "RoundOutcome", "RunMetrics",
    "SEP", "SRP", "ScenarioConfig", "Simulation", "SquareField", "SquarePath",
    "StaticPath", "Trajectory", "aggregation_energy", "ch_probability",
    "config_from_dict", "config_to_dict", "coverage_radius",
    "coverage_radius_grid", "deploy", "direct_round", "distance",
    "election_threshold", "load_preset", "rng_identity", "rng_stream", "run",
    "rx_energy", "sep_round", "sink_position", "sojourn_points", "tx_energy",
]

__version__ = "0.1.0"
