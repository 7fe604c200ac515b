"""Deployment, seeded randomness, the round loop, and metrics capture.

A run is a pure function of its :class:`ScenarioConfig`: node placement and
election draws come from named substreams of the seed, so the same config
always produces byte-identical metrics.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .energy import RadioParams, tx_energy
from .errors import ConfigurationError
from .geometry import (Field, Point, SquareField, Trajectory, sojourn_points,
                       trajectory_in_field)
from .protocols import (PROTOCOLS, SEP, SRP, NetworkParams, NodeState,
                        RoundOutcome, direct_round, sep_round)

RNG_GENERATOR = "numpy.PCG64"
RNG_DERIVATION = "SeedSequence([seed & 2**64-1, sha256(label)[:8] as uint64])"

STOP_ALL_DEAD = "all_dead"
STOP_MAX_ROUNDS = "max_rounds"
STOP_RULES = (STOP_ALL_DEAD, STOP_MAX_ROUNDS)


def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Independent, reproducible random substream for (seed, label).

    Streams with different labels are statistically independent, so adding a
    new consumer never perturbs existing ones.
    """
    label_key = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")
    ss = np.random.SeedSequence([seed & (2**64 - 1), label_key])
    return np.random.Generator(np.random.PCG64(ss))


def rng_identity() -> dict:
    """Pinned generator identity for output metadata."""
    return {
        "generator": RNG_GENERATOR,
        "derivation": RNG_DERIVATION,
        "numpy": np.__version__,
    }


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run needs: geometry, protocol, parameters, seed, horizon."""

    field: Field
    trajectory: Trajectory
    protocol: str
    net: NetworkParams = NetworkParams()
    radio: RadioParams = RadioParams()
    seed: int = 0
    max_rounds: int = 50_000
    stop_rule: str = STOP_MAX_ROUNDS

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(f"unknown protocol {self.protocol!r}; expected one of {PROTOCOLS}")
        if self.stop_rule not in STOP_RULES:
            raise ConfigurationError(f"unknown stop_rule {self.stop_rule!r}; expected one of {STOP_RULES}")
        if not -2**63 <= self.seed < 2**63:
            raise ConfigurationError(f"seed must be in [-2**63, 2**63), got {self.seed}")
        if self.max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.protocol == SRP:
            if self.trajectory.is_static:
                raise ConfigurationError("srp requires a moving trajectory, not a static point")
            if self.trajectory.sensing_range is None:
                raise ConfigurationError("srp requires trajectory.sensing_range")
        else:
            if not self.trajectory.is_static:
                raise ConfigurationError(f"{self.protocol} requires a static-point trajectory")
        if not trajectory_in_field(self.trajectory, self.field):
            raise ConfigurationError("trajectory does not lie inside the field")
        for p in sojourn_points(self.trajectory):
            if not self.field.contains(p):
                raise ConfigurationError(f"sojourn point ({p.x}, {p.y}) lies outside the field")


@dataclass
class RunMetrics:
    """Per-round series plus lifetime summary for one run.

    Row ``r`` of each series is the state after round ``r``. ``residual_j``
    is the fold of ``round_cost_j`` from the initial energy, so consecutive
    residuals differ by exactly the reported round cost. Death rounds are
    None when the horizon ended first.
    """

    n: int
    initial_energy_j: float
    alive: list[int] = field(default_factory=list)
    residual_j: list[float] = field(default_factory=list)
    cumulative_packets: list[int] = field(default_factory=list)
    round_cost_j: list[float] = field(default_factory=list)
    first_death_round: int | None = None
    half_death_round: int | None = None
    last_death_round: int | None = None
    total_packets: int = 0

    @property
    def rounds_executed(self) -> int:
        return len(self.alive)

    @property
    def final_residual_j(self) -> float:
        return self.residual_j[-1] if self.residual_j else self.initial_energy_j


def deploy(cfg: ScenarioConfig) -> NodeState:
    """Place nodes uniformly in the field; a pure function of the seed.

    Positions are drawn in id order (circular fields use rejection sampling
    from the bounding box), then round(m*n) advanced ids are picked by a
    single shuffle.
    """
    rng = rng_stream(cfg.seed, "deploy")
    f = cfg.field
    n = cfg.net.n
    xs: list[float] = []
    ys: list[float] = []
    if isinstance(f, SquareField):
        for _ in range(n):
            xs.append(rng.uniform(0.0, f.side))
            ys.append(rng.uniform(0.0, f.side))
    else:
        cx, cy, r = f.center.x, f.center.y, f.radius
        for _ in range(n):
            while True:
                x = rng.uniform(cx - r, cx + r)
                y = rng.uniform(cy - r, cy + r)
                if f.contains(Point(x, y)):
                    xs.append(x)
                    ys.append(y)
                    break
    is_advanced = np.zeros(n, dtype=bool)
    is_advanced[rng.permutation(n)[: cfg.net.advanced_count]] = True
    energy = np.where(is_advanced, cfg.net.advanced_energy, cfg.net.e0)
    return NodeState(np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64),
                     is_advanced, energy)


def reach(state: NodeState, radio: RadioParams, points: list[Point],
          sensing_range: float | None) -> list[list[tuple[int, float]]]:
    """Per sink point, the ``(id, tx cost)`` of every node in range, in id order.

    Range is inclusive and ``None`` means unlimited. Node positions and sink
    points never change during a run, so these slots hold for the whole run.
    """
    limit = math.inf if sensing_range is None else sensing_range
    k = radio.packet_bits
    nodes = list(enumerate(zip(state.xs.tolist(), state.ys.tolist())))
    slots = []
    for p in points:
        px, py = p.x, p.y
        slot = []
        for i, (x, y) in nodes:
            dx = x - px
            dy = y - py
            d = math.sqrt(dx * dx + dy * dy)
            if d <= limit:
                slot.append((i, tx_energy(radio, k, d)))
        slots.append(slot)
    return slots


class Simulation:
    """One isolated protocol run; owns its state exclusively."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.state = deploy(cfg)
        self._election_rng = rng_stream(cfg.seed, "election")
        traj = cfg.trajectory
        # A static sink does not gate by range (see Trajectory): its one slot
        # lists every node, which sep's head uplink indexes by id.
        sensing = None if traj.is_static else traj.sensing_range
        self._slots = reach(self.state, cfg.radio, sojourn_points(traj), sensing)

    def step(self, round_idx: int) -> RoundOutcome:
        """Execute one protocol round."""
        cfg = self.cfg
        if cfg.protocol == SEP:
            return sep_round(self.state, round_idx, cfg.net, cfg.radio,
                             self._slots[0], self._election_rng)
        return direct_round(self.state, self._slots[round_idx % len(self._slots)])

    def run(self) -> RunMetrics:
        """Execute rounds until the stop rule fires; record per-round metrics."""
        cfg = self.cfg
        n = cfg.net.n
        metrics = RunMetrics(n=n, initial_energy_j=self.state.total_energy())
        residual = metrics.initial_energy_j
        cum_packets = 0
        alive = self.state.alive_count()
        half_alive = n // 2

        for r in range(cfg.max_rounds):
            outcome = self.step(r)
            residual -= outcome.cost
            cum_packets += outcome.packets
            alive -= outcome.deaths

            metrics.alive.append(alive)
            metrics.residual_j.append(residual)
            metrics.cumulative_packets.append(cum_packets)
            metrics.round_cost_j.append(outcome.cost)

            if metrics.first_death_round is None and alive < n:
                metrics.first_death_round = r
            if metrics.half_death_round is None and alive <= half_alive:
                metrics.half_death_round = r
            if metrics.last_death_round is None and alive == 0:
                metrics.last_death_round = r
                if cfg.stop_rule == STOP_ALL_DEAD:
                    break

        metrics.total_packets = cum_packets
        return metrics


def run(cfg: ScenarioConfig) -> RunMetrics:
    """Deploy, run and summarize one scenario."""
    return Simulation(cfg).run()
