"""Deployment, seeded randomness, the run engines, and metrics capture.

A run is a pure function of its :class:`ScenarioConfig`: node placement and
election draws come from named substreams of the seed, so the same config
always produces byte-identical metrics.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .energy import RadioParams, aggregation_energy, tx_energy
from .errors import ConfigurationError
from .geometry import Field, SquareField, Trajectory, distances, trajectory_in_field
from .protocols import (_CHUNK, MAX_TOTAL_ENERGY, PROTOCOLS, SEP, SRP, NetworkParams,
                        NodeState, RoundOutcome, direct_round, hop_table, sep_block,
                        sep_window)

RNG_GENERATOR = "numpy.PCG64"
RNG_DERIVATION = "SeedSequence([seed & 2**64-1, sha256(label)[:8] as uint64])"

STOP_ALL_DEAD = "all_dead"
STOP_MAX_ROUNDS = "max_rounds"
STOP_RULES = (STOP_ALL_DEAD, STOP_MAX_ROUNDS)

# Longest horizon a run may have. A run's four per-round series and their
# scratch arrays peak at about 56 MB per million rounds.
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
        # No price a run takes is above a sep head's forward of all n packets across the field.
        f, k = self.field, self.radio.packet_bits
        dearest = aggregation_energy(self.radio, k, self.net.n) + tx_energy(
            self.radio, k, math.sqrt(2.0) * f.side if isinstance(f, SquareField) else 2.0 * f.radius)
        if not dearest <= MAX_TOTAL_ENERGY:
            raise ConfigurationError(f"a head's forward of n packets across the field must cost "
                                     f"at most {MAX_TOTAL_ENERGY} J, got {dearest}")


class RunMetrics:
    """Lifetime summary plus per-round series for one run.

    ``first_death_round``, ``half_death_round`` and ``last_death_round`` are
    the first rows with fewer than n, at most n // 2 and no nodes alive, None
    when the recorded rows end first; ``total_packets`` counts the packets
    sent in those rows. The series are numpy arrays (int64 ``alive`` and
    ``cumulative_packets``, float64 ``residual_j`` and ``round_cost_j``) with
    one row per recorded round; row ``r`` is the state after round ``r``.
    ``residual_j`` is the fold of ``round_cost_j`` from the initial energy,
    so consecutive residuals differ by exactly the reported round cost.

    A run's metrics leave the series to their first read, which builds all
    four; later reads return the same arrays. Until then the metrics hold
    what that build reads (for srp and cl-sep the run's reach table), and
    after it nothing more of the run. Two runs are equal when every field
    and series is.
    """

    def __init__(self, n: int, initial_energy_j: float, alive: np.ndarray,
                 residual_j: np.ndarray, cumulative_packets: np.ndarray,
                 round_cost_j: np.ndarray, first_death_round: int | None = None,
                 half_death_round: int | None = None, last_death_round: int | None = None,
                 total_packets: int = 0):
        self.n = n
        self.initial_energy_j = initial_energy_j
        self.first_death_round = first_death_round
        self.half_death_round = half_death_round
        self.last_death_round = last_death_round
        self.total_packets = total_packets
        self._rows = len(alive)
        self._series = (alive, residual_j, cumulative_packets, round_cost_j)
        self._pending = None

    @classmethod
    def _of_run(cls, initial_energy_j: float, dies: np.ndarray, rows: int,
                total_packets: int, per_round) -> RunMetrics:
        """A run's metrics, whose series ``per_round(rows)`` builds on first read.

        ``dies`` holds each node's death round by id: -1 for a node dead at
        the start, which counts at round 0, and at least ``rows`` for one
        alive when the rows end. ``per_round(rows)`` returns the rows' (cost,
        packets) of each round.
        """
        n, d = len(dies), np.sort(np.maximum(dies, 0))
        m = cls.__new__(cls)
        m.n, m.initial_energy_j, m.total_packets = n, initial_energy_j, total_packets
        m.first_death_round, m.half_death_round, m.last_death_round = (
            int(d[k - 1]) if d[k - 1] < rows else None for k in (1, n - n // 2, n))
        m._rows, m._series, m._pending = rows, None, (dies, per_round)
        return m

    def _built(self) -> tuple[np.ndarray, ...]:
        """The four series, built from the pending run on the first call."""
        if self._series is None:
            dies, per_round = self._pending
            rows = self._rows
            cost, packets = per_round(rows)
            deaths = np.bincount(np.maximum(dies, 0)[dies < rows], minlength=rows)
            residual = np.subtract.accumulate(np.concatenate(([self.initial_energy_j], cost)))
            self._series = (self.n - np.cumsum(deaths), residual[1:], np.cumsum(packets), cost)
            self._pending = None
        return self._series

    alive = property(lambda self: self._built()[0])
    residual_j = property(lambda self: self._built()[1])
    cumulative_packets = property(lambda self: self._built()[2])
    round_cost_j = property(lambda self: self._built()[3])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunMetrics):
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k))
                   for k in ("n", "initial_energy_j", "alive", "residual_j", "cumulative_packets",
                             "round_cost_j", "first_death_round", "half_death_round",
                             "last_death_round", "total_packets"))

    @property
    def rounds_executed(self) -> int:
        return self._rows

    @property
    def final_residual_j(self) -> float:
        return float(self.residual_j[-1]) if self._rows else self.initial_energy_j


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
            pairs = pairs[distances(pairs[:, 0], pairs[:, 1], cx, cy) <= r]
            kept.append(pairs)
            need -= len(pairs)
        xy = np.concatenate(kept)
    is_advanced = np.zeros(n, dtype=bool)
    is_advanced[rng.permutation(n)[: cfg.net.advanced_count]] = True
    energy = np.where(is_advanced, cfg.net.advanced_energy, cfg.net.e0)
    xs, ys = xy.T.copy()
    return NodeState(xs, ys, is_advanced, energy)


# Rounds in sep's first block and in its first after each death, over a hop
# table. A block's set-up costs about as much as this many of its rounds, and
# on the sep preset restarting here ran about 15 % faster than halving the
# block after a death.
_SEP_FIRST_BLOCK = 8
# Blocks of the most rounds in one of sep's windows of election draws.
_SEP_WINDOW = 4


# Most entries a run's reach table may hold. The table grows as
# min(sojourn_count, max_rounds) x nodes in range, which no other cap bounds;
# a one-tour srp run at the cap peaks at about 430 MB, its series included.
MAX_REACH_ENTRIES = 10_000_000


def reach(state: NodeState, radio: RadioParams, points: np.ndarray,
          sensing_range: float | None) -> tuple[np.ndarray, ...]:
    """The reach table of ``points``, (x, y) rows as ``Trajectory.points``
    holds them: range is inclusive, ``None`` is unlimited.

    Returns the arrays ``(slot, id, cost, offsets)``. Entry ``e`` says that
    node ``id[e]`` reaches point ``slot[e]`` at cost ``cost[e]``. Entries are
    in (id, slot) order: node ``i``'s pattern over one tour is entries
    ``offsets[i]:offsets[i + 1]``. Node positions and sink points never
    change during a run, so the table holds for the whole run. A table over
    ``MAX_REACH_ENTRIES`` entries raises before it is priced.

    The distances are taken for a block of nodes at a time, one (nodes x
    points) array of at most ``_CHUNK`` elements (or one node's row), whose
    in-range flat indices ``id·S + slot`` come out in (id, slot) order.
    """
    limit = math.inf if sensing_range is None else sensing_range
    n, S = state.n, len(points)
    px, py = points[:, 0], points[:, 1]
    step = max(1, _CHUNK // S)
    flat = []
    dists = []
    total = 0
    for lo in range(0, n, step):
        d = distances(state.xs[lo:lo + step, None], state.ys[lo:lo + step, None], px, py)
        inside = np.flatnonzero(d <= limit)
        total += len(inside)
        if total > MAX_REACH_ENTRIES:
            raise ConfigurationError(f"the reach table needs more than {MAX_REACH_ENTRIES} "
                                     "entries; lower max_rounds, sojourn_count, n or sensing_range")
        dists.append(d.take(inside))
        inside += lo * S
        flat.append(inside)
    dists = np.concatenate(dists)  # rebinding frees the per-block arrays before pricing
    cost = tx_energy(radio, radio.packet_bits, dists)
    del dists
    flat = np.concatenate(flat)
    offsets = np.searchsorted(flat, np.arange(n + 1) * S)  # where node i starts, at i·S
    ids = np.repeat(np.arange(n), np.diff(offsets))
    flat -= ids * S
    return flat, ids, cost, offsets


def _by_slot(slot: np.ndarray, S: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, offsets)``: slot ``s`` of ``S`` holds the reach table's entries
    ``order[offsets[s]:offsets[s + 1]]`` in id order; numpy sorts the 16-bit
    slots (< MAX_SOJOURNS < 2**16) by radix.
    """
    order = np.argsort(slot.astype(np.uint16), kind="stable")
    return order, np.concatenate(([0], np.cumsum(np.bincount(slot, minlength=S))))


class Simulation:
    """One isolated protocol run; owns its state exclusively.

    A Simulation runs once: either ``run()``, or ``step`` over rounds 0, 1, ...
    in order. Nodes may be marked dead through ``state.alive`` before either.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self._round = 0  # the next round; max_rounds once run
        self.state = deploy(cfg)
        traj = cfg.trajectory
        # A static sink does not gate by range (see Trajectory): its one slot
        # lists every node, so sep's head uplink indexes its costs by id.
        sensing = None if traj.is_static else traj.sensing_range
        # A run shorter than the tour visits only its first max_rounds points.
        self._S = min(len(traj.points), cfg.max_rounds)
        self._slot, self._id, self._cost, self._offsets = reach(
            self.state, cfg.radio, traj.points[:self._S], sensing)

    @cached_property
    def _election_rng(self) -> np.random.Generator:
        """sep's election draws, seeded on first use: srp and cl-sep never draw."""
        return rng_stream(self.cfg.seed, "election")

    def step(self, round_idx: int) -> RoundOutcome:
        """Execute round ``round_idx``: the next round, below max_rounds."""
        cfg = self.cfg
        if round_idx != self._round or round_idx >= cfg.max_rounds:
            raise RuntimeError(f"cannot step round {round_idx}: a Simulation steps rounds 0 to "
                               f"{cfg.max_rounds - 1} once each, in order; its next is {self._round}")
        self._round += 1
        if cfg.protocol == SEP:  # a one-row window without a hop table, played as one block
            draws = self._election_rng.random(cfg.net.n)
            if not self.state.alive.any():
                return RoundOutcome()
            window = sep_window(self.state, round_idx, cfg.net, draws[None])
            cost, packets, deaths = sep_block(self.state, cfg.radio, self._cost, None, window)
            return RoundOutcome(packets=int(packets[0]), cost=float(cost[0]), deaths=deaths)
        if not round_idx:  # steps start at round 0, and take the table by slot
            self._slots = _by_slot(self._slot, self._S)
        order, offsets = self._slots
        e = order[slice(*offsets[round_idx % self._S:][:2])]
        return direct_round(self.state, self._id[e], self._cost[e])

    def run(self) -> RunMetrics:
        """Run until the stop rule fires; return its metrics, series left to first read.

        Leaves ``state`` as stepping every round would. Each engine writes
        every node's death round by id into ``dies``, the one record the
        lifetimes come from: srp and cl-sep nodes never interact, so one fold
        per node gives it (``_fold_nodes``), and sep runs until its last death
        (``_sep``). The series wait for their first read (see RunMetrics):
        srp and cl-sep's ``_fold`` walks each node's paid attempts again, and
        sep's rounds are its blocks' rows, then rows of no cost.
        """
        cfg = self.cfg
        if self._round:
            raise RuntimeError("a Simulation runs once; this one has already stepped or run")
        initial = self.state.total_energy()
        self._round = R = cfg.max_rounds
        dies = np.where(self.state.alive, R, -1)
        packets, per_round = (self._sep if cfg.protocol == SEP else self._fold_nodes)(dies)
        # Under all_dead a run records rows up to its last death.
        rows = (max(int(dies.max()), 0) + 1
                if cfg.stop_rule == STOP_ALL_DEAD and (dies < R).all() else R)
        return RunMetrics._of_run(initial, dies, rows, packets, per_round)

    def _sep(self, dies: np.ndarray) -> tuple[int, partial]:
        """sep's packet total and per-round builder, run while a node lives.

        Election draws come a window of ``_SEP_WINDOW`` blocks of the most
        rounds at a time, and ``sep_window`` elects their heads once, over
        the nodes alive when it opens. Rounds run in blocks (``sep_block``),
        cut at the window's end, through the first round with a death, each
        over the window's rows and its nodes still alive; a block looks up
        each member's nearest head among its own, by rank in one
        ``hop_table`` up to ``_HOP_NODES`` nodes and by distance above.
        Deaths come in bursts, so a run's first block and the first after
        each death take ``_SEP_FIRST_BLOCK`` rounds, or 1 without a table,
        where a round a death drops wastes its head search. Each block with
        no death doubles the next, while its (rounds x 3n) cost rows hold at
        most ``_CHUNK`` elements. Once none is alive a round spends and sends
        nothing; the election draws those rounds skip feed nothing else. A
        block that ends in a death writes its last round into ``dies`` for
        each node it killed.
        """
        cfg = self.cfg
        n, R, rng = cfg.net.n, cfg.max_rounds, self._election_rng
        alive = self.state.alive_count()
        hops = hop_table(self.state, cfg.radio)
        most = max(1, _CHUNK // (3 * n))  # a block's (rounds x 3n) cost rows
        size = restart = min(most, 1 if hops is None else _SEP_FIRST_BLOCK)
        costs: list = []
        packets: list = []
        r = end = 0
        while r < R and alive > 0:
            if r == end:  # every round draws one row of n, so a window of rows holds the same bits
                end = min(r + _SEP_WINDOW * most, R)
                window = sep_window(self.state, r, cfg.net, rng.random((end - r, n)))
            b = min(size, end - r)
            cost, sent, deaths = sep_block(self.state, cfg.radio, self._cost, hops,
                                           window.rows(r, r + b, self.state.alive))
            size = restart if deaths else min(most, 2 * size)
            costs.append(cost)
            packets.append(sent)
            r += len(cost)
            if deaths:
                dies[(dies == R) & ~self.state.alive] = r - 1
                alive -= deaths
        return int(sum(map(np.sum, packets))), partial(_sep_rounds, costs, packets, r)

    def _fold_nodes(self, dies: np.ndarray) -> tuple[int, partial]:
        """srp and cl-sep's packet total and per-round builder; writes each node's death round.

        Node i's attempts, in round order, repeat its ``k`` entries in slot
        order over every tour, and the first attempt it cannot pay is its
        death. Nodes never interact, so they fold in groups: sorted by ``k``,
        stably, each group takes as many nodes G as keep G times its largest
        ``k`` within ``_CHUNK``. A group lays its block out once, one column
        per node: its energy, then its pattern over as many whole tours as L
        = max(largest k, ``_CHUNK`` // G) rows hold (L at most the group's
        longest horizon), up to its horizon, then 0.0. Each block ends every
        column on a tour's end, so every block of the group is that layout
        with row 0 renewed. A column's ``np.subtract.reduce`` is the same
        left-to-right chain of subtractions as the node's own fold, and it
        ends below 0.0 exactly when one of its payments fails: in IEEE
        arithmetic ``x - c < 0`` iff ``x < c``, so a payment leaves no
        residual below 0.0, a failure leaves one, and later costs, never
        negative, keep it there; a cost of 0.0 leaves the residual as it is.
        A column whose horizon ends inside a block is set to 0.0 past it in
        place. A column leaves in the block it fails in or its horizon ends
        in: a finished one writes its residual and count, a failed one
        records the block and its residual at the block's start, and either
        runs on with a residual of +inf, which no payment fails and no later
        mask touches, while its rows stay as that block had them. Once at most
        half the layout's columns still run, one batch resolves the failed
        ones: an ``np.subtract.accumulate`` of their rows from each recorded
        residual gives each first failure. Only then does the layout shrink to
        the running columns, so a group compacts about log2(G) times. Leaves
        each node's energy, alive flag and packet count as stepping the rounds
        would, and ``dies`` with the round of each node that dies; ``_fold``
        walks the same attempts, up to each node's count of paid ones.
        """
        state = self.state
        n, S, R = state.n, self._S, self.cfg.max_rounds
        # Entry indices stay below MAX_REACH_ENTRIES + _CHUNK, so they fit int32.
        k = np.diff(self._offsets).astype(np.int32)       # attempts per tour
        first = self._offsets[:-1].astype(np.int32)       # node i's pattern start
        horizon = (R // S) * k + (np.bincount(self._id[self._slot < R % S], minlength=n)
                                  if R % S else 0)

        paid = np.zeros(n, dtype=np.int32)
        nodes = np.flatnonzero(state.alive & (horizon > 0))
        nodes = nodes[np.argsort(k[nodes], kind="stable")]
        lo = 0
        while lo < len(nodes):
            most = k[nodes[lo:lo + _CHUNK // k[nodes[lo]]]]
            # One node, if its tour alone passes a _CHUNK lowered below MAX_SOJOURNS.
            G = max(1, int(np.count_nonzero(most * np.arange(1, len(most) + 1) <= _CHUNK)))
            cols = nodes[lo:lo + G]
            lo += G
            kc, h = k[cols], horizon[cols]
            L = min(max(int(kc[-1]), _CHUNK // G), int(h.max()))
            span = np.minimum(L // kc * kc, h)                # attempts a block holds
            rows = np.arange(L, dtype=np.int32)[:, None]
            # Only a column that holds more than one tour takes the modulo,
            # as none does in a run of one tour.
            wrap = np.flatnonzero(span > kc)
            place = rows
            if len(wrap) == G:
                place = rows % kc
            elif len(wrap):
                place = np.repeat(rows, G, axis=1)
                place[:, wrap] %= kc[wrap]
            layout = np.empty((L + 1, G))
            layout[0] = state.energy[cols]
            # An index past the table's end lies past its column's span, which
            # the 0.0s overwrite; "clip" writes into the layout, where "raise" buffers.
            np.take(self._cost, first[cols] + place, out=layout[1:], mode="clip")
            np.copyto(layout[1:], 0.0, where=rows >= span)
            last = (h - 1) // span                            # each column's last block
            gone = np.full(G, -1)                             # the block a column failed in
            base = np.empty(G)                                # its residual at that block's start
            b, stop, running = 0, last.min(), G
            while running:  # block b: each running column's attempts from b·span on
                if b == stop:  # some horizons end in this block; nothing past them pays
                    over = np.flatnonzero((last == b) & (h - b * span < span))
                    layout[1:, over] = np.where(rows < h[over] - b * span[over], layout[1:, over], 0.0)
                end = np.subtract.reduce(layout, axis=0)
                died = end < 0.0                              # some payment in the block failed
                if b < stop and not died.any():  # no column leaves
                    layout[0] = end
                    b += 1
                    continue
                # A column that leaves runs on at +inf, past every later mask.
                fail = np.flatnonzero(died)
                gone[fail], base[fail] = b, layout[0, fail]
                end[fail], last[fail] = np.inf, R
                running -= len(fail)
                if b == stop:
                    done = np.flatnonzero(last == b)          # horizons end here, all paid
                    state.energy[cols[done]] = end[done]
                    paid[cols[done]] = h[done]
                    end[done], last[done] = np.inf, R
                    running -= len(done)
                layout[0] = end
                b += 1
                if 2 * running > G:  # more than half still run: the layout stays
                    stop = last.min()
                    continue
                fail = np.flatnonzero(gone >= 0)
                if len(fail):  # residuals before each attempt of its block give the first failure
                    before = layout[:, fail]
                    before[0] = base[fail]
                    np.subtract.accumulate(before, axis=0, out=before)
                    at = np.argmax(before[:-1] < layout[1:, fail], axis=0)
                    dead = cols[fail]
                    state.energy[dead] = before[at, np.arange(len(fail))]
                    paid[dead] = tries = gone[fail] * span[fail] + at  # the failed attempt's index
                    dies[dead] = tries // k[dead] * S + self._slot[first[dead] + tries % k[dead]]
                if running:  # the layout shrinks to the running columns
                    stay = last < R
                    cols, h, span, last = cols[stay], h[stay], span[stay], last[stay]
                    layout, G = layout[:, stay], running
                    gone, base = np.full(G, -1), np.empty(G)
                    stop = last.min()
        state.alive[(dies >= 0) & (dies < R)] = False
        state.packets_sent += paid
        return int(paid.sum()), partial(_fold, self._slot, self._id, self._cost,
                                       self._offsets, S, paid)


def _sep_rounds(costs: list, packets: list, r: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """sep's per-round (cost, packets): its blocks' ``r`` rounds, then rounds of none alive."""
    return (np.concatenate((*costs, np.zeros(rows - r))),
            np.concatenate((*packets, np.zeros(rows - r, dtype=np.int64))))


def _fold(slot: np.ndarray, ids: np.ndarray, cost: np.ndarray, offsets: np.ndarray, S: int,
          paid: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """srp and cl-sep per-round (cost, packets) over ``rows`` rounds, from a run's
    reach table of ``S`` slots and the attempts each node paid (``Simulation._fold_nodes``).

    Node ``i``'s attempts repeat its ``k_i`` entries every tour, so entry ``e``
    pays in tour ``t`` while ``t·k_i + (e − offsets[i]) < paid[i]``, that is in
    its first ``m`` tours, and that payment falls in round ``t·S + slot[e]``,
    within the rows. The fold takes node-major blocks of ``_CHUNK`` entries in
    turn, and a block in tiles of (tours × entries still paying) of at most
    ``_CHUNK`` elements; an entry leaves once its node stops paying. A tile in
    (tour, entry) order lists each round's payments in id order, and
    ``np.add.at`` adds them in that order from 0.0, as a stepped round does.
    A table of one slot, as cl-sep's static sink gives, folds through
    ``_fold_one_slot`` instead.
    """
    if S == 1:
        return _fold_one_slot(cost, paid[ids], rows)
    sums, payers = np.zeros(rows), np.zeros(rows, dtype=np.int64)
    k = np.diff(offsets)
    for lo in range(0, len(ids), _CHUNK):
        i = ids[lo:lo + _CHUNK]
        e = np.arange(lo, lo + len(i))
        m = -((e - offsets[i] - paid[i]) // k[i])        # tours entry e pays in
        t0 = 0
        while len(e):
            t = np.arange(t0, min(t0 + _CHUNK // len(e), m.max()), dtype=np.int32)
            pays = t[:, None] < m
            r = (t[:, None] * S + slot[e])[pays]
            np.add.at(sums, r, np.broadcast_to(cost[e], pays.shape)[pays])
            np.add.at(payers, r, 1)
            t0 += len(t)
            e, m = e[m > t0], m[m > t0]
    return sums, payers


def _fold_one_slot(cost: np.ndarray, m: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``_fold`` of a one-slot table, whose entry ``e`` pays in its first ``m[e]``
    rounds: each tour is one round, and a node has one entry at most.

    Round t's payers are the entries with ``m > t``, so the rounds from one
    ``m`` to the next share their payers and their sum: each such stretch is
    summed once, its payers' costs added in id order from 0.0 by one
    ``cumsum`` (a non-payer adds 0.0, which is exact), a block of stretches
    of at most ``_CHUNK`` elements (or one stretch) at a time.
    """
    starts = np.sort(np.append(m[m < rows], 0))  # where each stretch starts; a repeat spans none
    sums = np.empty(len(starts))
    payers = np.empty(len(starts), dtype=np.int64)
    step = max(1, _CHUNK // (len(m) + 1))
    for lo in range(0, len(starts), step):
        pays = m > starts[lo:lo + step, None]
        row = np.zeros((len(pays), len(m) + 1))
        row[:, 1:] = np.where(pays, cost, 0.0)
        sums[lo:lo + step] = np.cumsum(row, axis=1, out=row)[:, -1]
        payers[lo:lo + step] = pays.sum(axis=1)
    spans = np.diff(np.append(starts, rows))
    return np.repeat(sums, spans), np.repeat(payers, spans)


def run(cfg: ScenarioConfig) -> RunMetrics:
    """Deploy, run and summarize one scenario."""
    return Simulation(cfg).run()
