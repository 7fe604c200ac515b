"""Deployment, seeded randomness, the run engines, and metrics capture.

A run is a pure function of its :class:`ScenarioConfig`: node placement and
election draws come from named substreams of the seed, so the same config
always produces byte-identical metrics.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .energy import RadioParams, tx_energy
from .errors import ConfigurationError
from .geometry import Field, Point, SquareField, Trajectory, trajectory_in_field
from .protocols import (PROTOCOLS, SEP, SRP, HopTable, NetworkParams, NodeState,
                        RoundOutcome, direct_round, sep_round)

RNG_GENERATOR = "numpy.PCG64"
RNG_DERIVATION = "SeedSequence([seed & 2**64-1, sha256(label)[:8] as uint64])"

STOP_ALL_DEAD = "all_dead"
STOP_MAX_ROUNDS = "max_rounds"
STOP_RULES = (STOP_ALL_DEAD, STOP_MAX_ROUNDS)

# Longest horizon a run may have. A run's four per-round series and their
# scratch arrays peak at about 58 MB per million rounds.
MAX_ROUNDS = 10_000_000


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
        if not 1 <= self.max_rounds <= MAX_ROUNDS:
            raise ConfigurationError(f"max_rounds must be in [1, {MAX_ROUNDS}], got {self.max_rounds}")
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
        for p in self.trajectory.points:
            if not self.field.contains(p):
                raise ConfigurationError(f"sojourn point ({p.x}, {p.y}) lies outside the field")


@dataclass(eq=False)
class RunMetrics:
    """Per-round series plus lifetime summary for one run.

    The series are numpy arrays (int64 ``alive`` and ``cumulative_packets``,
    float64 ``residual_j`` and ``round_cost_j``). Row ``r`` of each series is
    the state after round ``r``. ``residual_j`` is the fold of
    ``round_cost_j`` from the initial energy, so consecutive residuals differ
    by exactly the reported round cost. Death rounds are None when the
    horizon ended first. Two runs are equal when every field is.
    """

    n: int
    initial_energy_j: float
    alive: np.ndarray
    residual_j: np.ndarray
    cumulative_packets: np.ndarray
    round_cost_j: np.ndarray
    first_death_round: int | None = None
    half_death_round: int | None = None
    last_death_round: int | None = None
    total_packets: int = 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunMetrics):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    @property
    def rounds_executed(self) -> int:
        return len(self.alive)

    @property
    def final_residual_j(self) -> float:
        return float(self.residual_j[-1]) if len(self.residual_j) else self.initial_energy_j


def deploy(cfg: ScenarioConfig) -> NodeState:
    """Place nodes uniformly in the field; a pure function of the seed.

    Positions are drawn as (x, y) pairs in id order. A circular field keeps
    the pairs from its bounding box that fall inside it, drawing only as many
    pairs per pass as it still needs, so the stream stops at the last
    accepted pair. Then round(m*n) advanced ids are picked by a single
    shuffle.
    """
    rng = rng_stream(cfg.seed, "deploy")
    f = cfg.field
    n = cfg.net.n
    if isinstance(f, SquareField):
        xy = rng.uniform(0.0, f.side, size=(n, 2))
    else:
        cx, cy, r = f.center.x, f.center.y, f.radius
        kept = []
        need = n
        while need:
            pairs = rng.uniform((cx - r, cy - r), (cx + r, cy + r), size=(need, 2))
            dx = pairs[:, 0] - cx
            dy = pairs[:, 1] - cy
            pairs = pairs[np.sqrt(dx * dx + dy * dy) <= r]   # as CircleField.contains
            kept.append(pairs)
            need -= len(pairs)
        xy = np.concatenate(kept)
    is_advanced = np.zeros(n, dtype=bool)
    is_advanced[rng.permutation(n)[: cfg.net.advanced_count]] = True
    energy = np.where(is_advanced, cfg.net.advanced_energy, cfg.net.e0)
    xs, ys = xy.T.copy()
    return NodeState(xs, ys, is_advanced, energy)


# Most entries a run's reach table may hold. The table grows as
# min(sojourn_count, max_rounds) x nodes in range, which no other cap bounds;
# a one-tour srp run at the cap peaks at about 500 MB.
MAX_REACH_ENTRIES = 10_000_000


def reach(state: NodeState, radio: RadioParams, points: Sequence[Point],
          sensing_range: float | None) -> tuple[np.ndarray, ...]:
    """The reach table of ``points``: range is inclusive, ``None`` is unlimited.

    Returns the arrays ``(slot, id, cost, offsets)``. Entry ``e`` says that
    node ``id[e]`` reaches point ``slot[e]`` at cost ``cost[e]``. Entries are
    in (slot, id) order, and slot ``s`` holds entries
    ``offsets[s]:offsets[s + 1]``. Node positions and sink points never
    change during a run, so the table holds for the whole run. A table over
    ``MAX_REACH_ENTRIES`` entries raises before it is priced.
    """
    limit = math.inf if sensing_range is None else sensing_range
    ids = []
    dists = []
    offsets = [0]
    for p in points:
        dx = state.xs - p.x
        dy = state.ys - p.y
        d = np.sqrt(dx * dx + dy * dy)
        inside = np.flatnonzero(d <= limit)
        offsets.append(offsets[-1] + len(inside))
        if offsets[-1] > MAX_REACH_ENTRIES:
            raise ConfigurationError(f"the reach table needs more than {MAX_REACH_ENTRIES} "
                                     "entries; lower max_rounds, sojourn_count, n or sensing_range")
        ids.append(inside)
        dists.append(d[inside])
    dists = np.concatenate(dists)  # rebinding frees the per-point arrays before pricing
    cost = tx_energy(radio, radio.packet_bits, dists)
    offsets = np.array(offsets, dtype=np.int64)
    return np.repeat(np.arange(len(points)), np.diff(offsets)), np.concatenate(ids), cost, offsets


# Most nodes for which a sep run keeps a HopTable. Its two n x n float64
# arrays take 1 MB at this size; a larger run prices each round's
# (members x heads) hops afresh, which fits every n up to MAX_NODES.
_HOP_NODES = 256


# Most elements one block of the engine's folds holds: a block of node folds,
# or of (slot, dead count) rows, each row padded to the widest slot with an
# entry that never pays. Blocks stay small whatever n, slot widths and
# max_rounds are.
_CHUNK = 1 << 14


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True in ``mask``, or None."""
    i = int(np.argmax(mask))
    return i if len(mask) and mask[i] else None


class Simulation:
    """One isolated protocol run; owns its state exclusively."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.state = deploy(cfg)
        self._election_rng = rng_stream(cfg.seed, "election")
        traj = cfg.trajectory
        # A static sink does not gate by range (see Trajectory): its one slot
        # lists every node, so sep's head uplink indexes its costs by id.
        sensing = None if traj.is_static else traj.sensing_range
        # A run shorter than the tour visits only its first max_rounds points.
        self._slot, self._id, self._cost, self._offsets = reach(
            self.state, cfg.radio, traj.points[:cfg.max_rounds], sensing)
        self._hops = HopTable(cfg.net.n) if cfg.protocol == SEP and cfg.net.n <= _HOP_NODES else None

    def step(self, round_idx: int) -> RoundOutcome:
        """Execute round ``round_idx``, 0 <= round_idx < max_rounds."""
        cfg = self.cfg
        if cfg.protocol == SEP:
            return sep_round(self.state, round_idx, cfg.net, cfg.radio,
                             self._cost, self._election_rng, self._hops)
        s = round_idx % (len(self._offsets) - 1)
        lo, hi = self._offsets[s], self._offsets[s + 1]
        return direct_round(self.state, self._id[lo:hi], self._cost[lo:hi])

    def run(self) -> RunMetrics:
        """Run until the stop rule fires; record per-round metrics.

        Leaves ``state`` as stepping every round would. srp and cl-sep nodes
        never interact, so their rounds come from one fold per node
        (``_fold``); sep steps until its last death and fills the rest.
        """
        cfg = self.cfg
        n = cfg.net.n
        initial = self.state.total_energy()
        alive0 = self.state.alive_count()
        if cfg.protocol == SEP:
            cost, packets, deaths = self._step_until_dead(alive0)
        else:
            cost, packets, deaths = self._fold()
        alive = alive0 - np.cumsum(deaths)
        cum_packets = np.cumsum(packets)
        return RunMetrics(
            n=n, initial_energy_j=initial, alive=alive,
            residual_j=np.subtract.accumulate(np.concatenate(([initial], cost)))[1:],
            cumulative_packets=cum_packets, round_cost_j=cost,
            first_death_round=_first(alive < n),
            half_death_round=_first(alive <= n // 2),
            last_death_round=_first(alive == 0),
            total_packets=int(cum_packets[-1]))

    def _rows(self, last_death: int | None) -> int:
        """Rows the run records: up to its last death under all_dead."""
        if self.cfg.stop_rule == STOP_ALL_DEAD and last_death is not None:
            return max(last_death, 0) + 1
        return self.cfg.max_rounds

    def _step_until_dead(self, alive: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """sep's per-round (cost, packets, deaths), stepped while a node lives.

        Once none is alive a round spends and sends nothing, so those rows are
        filled directly. The election draws they skip feed nothing else.
        """
        costs: list[float] = []
        packets: list[int] = []
        deaths: list[int] = []
        r = 0
        while r < self.cfg.max_rounds and alive > 0:
            out = self.step(r)
            alive -= out.deaths
            costs.append(out.cost)
            packets.append(out.packets)
            deaths.append(out.deaths)
            r += 1
        rows = self._rows(r - 1 if alive == 0 else None)
        series = (np.zeros(rows), np.zeros(rows, dtype=np.int64), np.zeros(rows, dtype=np.int64))
        for arr, values in zip(series, (costs, packets, deaths)):
            arr[:r] = values
        return series

    def _fold(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """srp and cl-sep per-round (cost, packets, deaths) from per-node folds.

        Round ``r`` serves slot ``s = r % S``; once every node's death round
        is known (``_fold_nodes``), its payers are the slot's entries that die
        after ``r``. With the entries sorted by ``slot·(rows+1) + min(death,
        rows)``, one ``searchsorted`` counts, per round, the entries of earlier
        slots plus slot ``s``'s dead ones. Rounds with the same (slot, dead
        count) pair pay alike, so each pair is summed once, at its first
        round: its row is the slot's entries padded to the widest slot with an
        appended entry that never pays (death -1, cost 0.0), and one
        ``cumsum`` adds the payers' costs in id order, as a stepped round does.
        A padding or dead entry adds 0.0, which is exact.
        """
        ids, offsets = self._id, self._offsets
        S, E = len(offsets) - 1, len(ids)
        dies = self._fold_nodes()
        rows = self._rows(int(dies.max()) if (dies < self.cfg.max_rounds).all() else None)
        d = np.append(dies[ids], -1)                     # entry E pads every row
        s = np.arange(rows) % S
        keys = np.minimum(d[:E], rows)
        keys += self._slot * (rows + 1)
        keys.sort()
        c = np.append(self._cost, 0.0)                   # after the sort, to keep the peak low
        seen = np.searchsorted(keys, s * (rows + 1) + np.arange(rows), side="right")
        seen += s * (E + 1)                              # one value per (slot, dead count)
        _, first, pair = np.unique(seen, return_index=True, return_inverse=True)
        slot = first % S                                 # first is the pair's first round
        lo, hi = offsets[slot], offsets[slot + 1]
        payers = hi - (seen[first] - slot * (E + 1))     # the slot's entries past its dead
        W = int((hi - lo).max(initial=1))
        sums = np.empty(len(first))
        step = max(1, _CHUNK // W)
        for i in range(0, len(first), step):
            e = lo[i:i + step, None] + np.arange(W)
            e[e >= hi[i:i + step, None]] = E             # past its slot: the padding entry
            paying = d[e] > first[i:i + step, None]
            sums[i:i + step] = np.cumsum(np.where(paying, c[e], 0.0), axis=1)[:, -1]
        return sums[pair], payers[pair], np.bincount(dies[(dies >= 0) & (dies < rows)], minlength=rows)

    def _fold_nodes(self) -> np.ndarray:
        """Each node's death round: -1 if dead at the start, max_rounds if never.

        Node i's attempts, in round order, repeat its entries in slot order
        over every tour. Its residual before each attempt is a sequential
        ``np.subtract.accumulate`` of those costs from its energy, and the
        first attempt it cannot pay is its death. The folds run a block of
        attempts per node at a time, one row per node, so each row is the
        same sequence of subtractions as the node's own fold. Leaves each
        node's energy, alive flag and packet count as stepping the rounds
        would.
        """
        state = self.state
        ids, offsets = self._id, self._offsets
        n, S, R = state.n, len(offsets) - 1, self.cfg.max_rounds
        order = np.argsort(ids, kind="stable")
        pat_slot = self._slot[order]
        pat_cost = self._cost[order]
        k = np.bincount(ids, minlength=n)                 # attempts per tour
        first = np.cumsum(k) - k                          # node i's pattern start
        horizon = (R // S) * k + np.bincount(ids[:offsets[R % S]], minlength=n)

        dies = np.where(state.alive, R, -1)
        paid = np.zeros(n, dtype=np.int64)
        nodes = np.flatnonzero(state.alive & (horizon > 0))
        while len(nodes):
            attempt = paid[nodes, None] + np.arange(max(1, _CHUNK // len(nodes)))
            # An attempt past the horizon costs 0.0: it leaves the residual
            # as it is and, as a residual is never below 0.0, never fails.
            cost = np.where(attempt < horizon[nodes, None],
                            pat_cost[first[nodes, None] + attempt % k[nodes, None]], 0.0)
            before = np.empty_like(cost)                  # residual before each attempt
            before[:, 0] = state.energy[nodes]
            before[:, 1:] = cost[:, :-1]
            np.subtract.accumulate(before, axis=1, out=before)

            short = before < cost
            at = np.argmax(short, axis=1)                 # each row's first failure
            rows = np.arange(len(nodes))
            died = short[rows, at]
            state.energy[nodes] = np.where(died, before[rows, at], before[:, -1] - cost[:, -1])
            paid[nodes] = np.where(died, paid[nodes] + at,
                                   np.minimum(attempt[:, -1] + 1, horizon[nodes]))
            dead = nodes[died]
            tries = paid[dead]                            # the failed attempt's index
            dies[dead] = tries // k[dead] * S + pat_slot[first[dead] + tries % k[dead]]
            nodes = nodes[~died & (paid[nodes] < horizon[nodes])]
        state.alive[(dies >= 0) & (dies < R)] = False
        state.packets_sent += paid
        return dies


def run(cfg: ScenarioConfig) -> RunMetrics:
    """Deploy, run and summarize one scenario."""
    return Simulation(cfg).run()
