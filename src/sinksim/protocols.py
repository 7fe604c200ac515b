"""Per-round protocol engines over one network state.

* ``direct_round`` — the one direct-transmission rule. Every alive node
  listed (the nodes in range of the sink's current point, with their
  precomputed transmission costs) sends one packet straight to the sink. It
  is one stepped round of srp (the nodes in range of one sojourn point) and
  cl-sep (every node, static sink), and sep's no-head fallback.
  ``Simulation.run`` folds srp and cl-sep per node instead of stepping them.
* ``sep_round``    — clustered routing to a static sink. Nodes self-elect as
  cluster heads with a rotating threshold weighted by energy heterogeneity,
  members transmit to the nearest head, heads aggregate and forward. A
  ``HopTable`` keeps each member-to-head hop priced for the run.

Death rule (uniform across engines): a node performs an energy-costing action
only when its residual energy covers the full cost; otherwise it spends
nothing, delivers nothing and is marked dead on the spot. Energy therefore
never goes negative, and a node whose residual exactly hits zero is marked
dead the next time it attempts to act.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import RadioParams, aggregation_energy, rx_energy, tx_energy
from .errors import ConfigurationError

NORMAL = "normal"
ADVANCED = "advanced"

SEP = "sep"
CL_SEP = "cl-sep"
SRP = "srp"
PROTOCOLS = (SEP, CL_SEP, SRP)

# Most nodes a network may have. A sep run too large for a HopTable builds
# (members x heads) distance arrays each round, about 72 MB each at this size.
MAX_NODES = 10_000
# Most total initial energy a network may hold, J. It sits far below the float
# limit, so no sum of node energies a run takes can overflow to inf.
MAX_TOTAL_ENERGY = 1e300


@dataclass(frozen=True)
class NetworkParams:
    """Node population and heterogeneity parameters."""

    n: int = 100
    m: float = 0.1        # advanced-node fraction
    alpha: float = 1.0    # extra initial energy factor for advanced nodes
    e0: float = 0.5       # initial energy of a normal node, J
    p_opt: float = 0.1    # target cluster-head probability per round

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_NODES:
            raise ConfigurationError(f"n must be in [1, {MAX_NODES}], got {self.n}")
        if not 0.0 <= self.m <= 1.0:
            raise ConfigurationError(f"m must be in [0, 1], got {self.m}")
        if self.alpha < 0:
            raise ConfigurationError(f"alpha must be >= 0, got {self.alpha}")
        if not self.e0 > 0:
            raise ConfigurationError(f"e0 must be > 0, got {self.e0}")
        if not 0.0 < self.p_opt <= 1.0:
            raise ConfigurationError(f"p_opt must be in (0, 1], got {self.p_opt}")
        # sep prices both thresholds every round, even with no advanced node;
        # alpha >= 0 makes the advanced probability the larger one.
        if ch_probability(self, ADVANCED) >= 1.0:
            raise ConfigurationError("advanced election probability reaches 1; lower p_opt or alpha")
        if not self.total_initial_energy <= MAX_TOTAL_ENERGY:
            raise ConfigurationError(f"total initial energy must be at most {MAX_TOTAL_ENERGY} J, "
                                     f"got {self.total_initial_energy}")

    @property
    def advanced_count(self) -> int:
        """Number of advanced nodes: m*n rounded to nearest."""
        return int(math.floor(self.m * self.n + 0.5))

    @property
    def advanced_energy(self) -> float:
        return self.e0 * (1.0 + self.alpha)

    @property
    def total_initial_energy(self) -> float:
        adv = self.advanced_count
        return (self.n - adv) * self.e0 + adv * self.advanced_energy


class NodeState:
    """Per-node state held as parallel arrays, indexed by node id.

    Every node starts alive, eligible for cluster-head duty (set G) and with
    no packets sent.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, is_advanced: np.ndarray,
                 energy: np.ndarray):
        n = xs.shape[0]
        self.xs = xs
        self.ys = ys
        self.is_advanced = is_advanced
        self.energy = energy
        self.alive = np.ones(n, dtype=bool)
        self.in_set_g = np.ones(n, dtype=bool)
        self.packets_sent = np.zeros(n, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    def alive_count(self) -> int:
        return int(self.alive.sum())

    def total_energy(self) -> float:
        """Residual energies added in id order, one by one.

        A cumsum, never ``sum()``: Python 3.12 made the builtin sum
        compensated, which would change the result with the interpreter.
        """
        return float(np.cumsum(self.energy)[-1])


@dataclass
class RoundOutcome:
    """What one engine round did to the network."""

    packets: int = 0           # packets that reached the sink
    cost: float = 0.0          # total energy spent by all nodes, J
    cluster_heads: int = 0     # heads elected (clustered protocol only)
    deaths: int = 0


def ch_probability(net: NetworkParams, kind: str) -> float:
    """Per-round cluster-head election probability for a node kind.

    Normal nodes get p_opt/(1 + alpha*m) and advanced nodes carry the extra
    (1 + alpha) weight, so the population-weighted mean stays at p_opt.
    """
    if kind == NORMAL:
        return net.p_opt / (1.0 + net.alpha * net.m)
    if kind == ADVANCED:
        return net.p_opt * (1.0 + net.alpha) / (1.0 + net.alpha * net.m)
    raise ValueError(f"unknown node kind: {kind!r}")


def _epoch(p: float) -> int:
    """Rounds in one election epoch for probability ``p``."""
    return math.ceil(1.0 / p)


def election_threshold(p: float, round_idx: int) -> float:
    """Rotating self-election threshold for a node in the eligible set G.

    Within an epoch of ceil(1/p) rounds the threshold climbs as
    p / (1 - p*(r mod epoch)) so each eligible node is elected once per epoch
    in expectation; the final slot clamps to 1. Callers give nodes outside G
    no chance of election.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    slot = round_idx % _epoch(p)
    denom = 1.0 - p * slot
    if denom <= 0.0:
        return 1.0
    return min(1.0, p / denom)


def direct_round(state: NodeState, ids: np.ndarray, costs: np.ndarray) -> RoundOutcome:
    """Each alive node ``ids[j]`` sends one packet straight to the sink at cost ``costs[j]``.

    A node that cannot pay its cost is marked dead instead.
    """
    out = RoundOutcome()
    alive = state.alive
    energy = state.energy
    for i, cost in zip(ids.tolist(), costs.tolist()):
        if not alive[i]:
            continue
        if energy[i] >= cost:
            energy[i] -= cost
            state.packets_sent[i] += 1
            out.packets += 1
            out.cost += cost
        else:
            alive[i] = False
            out.deaths += 1
    return out


def _hop_distances(state: NodeState, members: np.ndarray | slice,
                   heads: np.ndarray) -> np.ndarray:
    """(members x heads) hop distances ``sqrt(dx*dx + dy*dy)``, ``dx = x[member] - x[head]``."""
    dx = state.xs[members, None] - state.xs[None, heads]
    dy = state.ys[members, None] - state.ys[None, heads]
    return np.sqrt(dx * dx + dy * dy)


class HopTable:
    """sep's hop distances and costs from each head to every node.

    A node gets the next free row the first round it heads. Its row holds
    the same bits as a round's own (members x heads) block, since both come
    from ``_hop_distances`` and element-wise ``tx_energy``. Nodes never move,
    so a row holds for the whole run. A short run prices only the heads it
    elects, in rows that sit together in memory.
    """

    def __init__(self, n: int):
        self.d = np.empty((n, n))
        self.tx = np.empty((n, n))
        self.row = np.full(n, -1)     # each node's row, -1 until it heads
        self.rows = 0

    def rows_of(self, state: NodeState, radio: RadioParams, heads: np.ndarray) -> np.ndarray:
        """The rows of ``heads``; those not priced yet take one ``tx_energy`` call."""
        new = heads[self.row[heads] < 0]
        if len(new):
            lo, hi = self.rows, self.rows + len(new)
            self.d[lo:hi] = _hop_distances(state, slice(None), new).T
            self.tx[lo:hi] = tx_energy(radio, radio.packet_bits, self.d[lo:hi])
            self.row[new] = np.arange(lo, hi)
            self.rows = hi
        return self.row[heads]


def sep_round(state: NodeState, round_idx: int, net: NetworkParams,
              radio: RadioParams, uplink: np.ndarray, rng: np.random.Generator,
              hops: HopTable | None = None) -> RoundOutcome:
    """One clustered round against a static sink.

    ``uplink`` holds each node's cost of transmitting straight to the sink,
    indexed by id. Members read their hops from ``hops`` if given; without
    it the round prices its (members x heads) hops afresh.

    Phases: epoch bookkeeping and head self-election; members join the nearest
    alive head; member-to-head transmissions (head pays reception per packet);
    heads aggregate (received messages plus their own) and forward one packet
    to the sink. If no head is elected every alive node falls back to
    transmitting directly to the sink. Members do not re-route when their head
    dies mid-round; those packets are lost.
    """
    out = RoundOutcome()
    # One draw per node id, consumed every round, so the stream does not
    # depend on which nodes are alive.
    draws = rng.random(state.n)

    k = radio.packet_bits
    p_nrm = ch_probability(net, NORMAL)
    p_adv = ch_probability(net, ADVANCED)

    # Epoch boundaries re-admit every alive node of that kind to set G.
    if round_idx % _epoch(p_nrm) == 0:
        state.in_set_g[state.alive & ~state.is_advanced] = True
    if round_idx % _epoch(p_adv) == 0:
        state.in_set_g[state.alive & state.is_advanced] = True

    t_nrm = election_threshold(p_nrm, round_idx)
    t_adv = election_threshold(p_adv, round_idx)
    thresholds = np.where(state.is_advanced, t_adv, t_nrm)
    is_ch = state.alive & state.in_set_g & (draws < thresholds)
    ch_ids = is_ch.nonzero()[0]
    state.in_set_g[ch_ids] = False
    out.cluster_heads = len(ch_ids)

    if len(ch_ids) == 0:
        # Fallback: nobody advertised, everyone reports directly.
        return direct_round(state, np.arange(state.n), uplink)

    # Members and heads act on plain Python lists, written back once below.
    energy = state.energy.tolist()
    alive = state.alive.tolist()
    sent = state.packets_sent.tolist()
    rx = rx_energy(radio, k)
    # aggregation_energy(radio, k, m) is (e_da*k)*m, so pricing one message
    # and scaling it by m gives the same bits.
    per_msg = aggregation_energy(radio, k, 1)
    cost = 0.0
    deaths = 0

    member_ids = (state.alive ^ is_ch).nonzero()[0]  # heads are alive
    received = dict.fromkeys(ch_ids.tolist(), 0)

    if len(member_ids) > 0:
        # Nearest alive head by Euclidean distance, lowest id on ties. The
        # table holds the block's bits, so both paths pick and pay alike.
        if hops is None:
            dists = _hop_distances(state, member_ids, ch_ids)
            nearest = dists.argmin(axis=1)
            tx = tx_energy(radio, k, dists[np.arange(len(member_ids)), nearest])
        else:
            rows = hops.rows_of(state, radio, ch_ids)
            nearest = hops.d.take(rows, axis=0).take(member_ids, axis=1).argmin(axis=0)
            tx = hops.tx[rows[nearest], member_ids]
        for i, ch, c in zip(member_ids.tolist(), ch_ids[nearest].tolist(), tx.tolist()):
            if energy[i] >= c:
                energy[i] -= c
                sent[i] += 1
                cost += c
                if alive[ch]:
                    if energy[ch] >= rx:
                        energy[ch] -= rx
                        cost += rx
                        received[ch] += 1
                    else:
                        alive[ch] = False
                        deaths += 1
            else:
                alive[i] = False
                deaths += 1

    for ch in ch_ids.tolist():
        if not alive[ch]:
            continue
        n_msgs = received[ch] + 1  # members' packets plus the head's own
        c = per_msg * n_msgs + float(uplink[ch])
        if energy[ch] >= c:
            energy[ch] -= c
            sent[ch] += 1
            out.packets += 1
            cost += c
        else:
            alive[ch] = False
            deaths += 1

    state.energy[:] = energy
    state.alive[:] = alive
    state.packets_sent[:] = sent
    out.cost = cost
    out.deaths = deaths
    return out
