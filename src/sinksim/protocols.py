"""Per-round protocol engines over one network state.

* ``direct_round`` — the one direct-transmission rule. Every alive node
  listed (the nodes in range of the sink's current point, with their
  precomputed transmission costs) sends one packet straight to the sink. It
  is one stepped round of srp (the nodes in range of one sojourn point) and
  cl-sep (every node, static sink), and sep's no-head fallback.
  ``Simulation.run`` folds srp and cl-sep per node instead of stepping them.
* ``sep_round``    — clustered routing to a static sink. Nodes self-elect as
  cluster heads with a rotating threshold on ``NetworkParams.p_normal`` or
  ``p_advanced``, by their ``is_advanced`` flag; members transmit to the
  nearest head, heads aggregate and forward by the direct rule.
  ``hop_table`` prices every node-to-node hop once for a run.

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
from .geometry import distances

SEP = "sep"
CL_SEP = "cl-sep"
SRP = "srp"
PROTOCOLS = (SEP, CL_SEP, SRP)

# Most nodes a network may have. A sep run too large for a hop table builds
# (heads x members) distance arrays each round, about 72 MB each at this size.
MAX_NODES = 10_000
_HOP_NODES = 256  # most nodes for which sep builds a hop table: two n x n arrays, 1 MB
# Most total initial energy a network may hold, J, and most one transmission
# across the field may cost. It sits far below the float limit, so no sum of
# node energies or of a block of prices a run takes can overflow to inf.
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
        # sep prices both thresholds every round, even with no advanced node.
        # alpha >= 0 makes p_advanced >= p_normal, so both lie in (0, 1) with finite epochs.
        if self.p_advanced >= 1.0:
            raise ConfigurationError("advanced election probability reaches 1; lower p_opt or alpha")
        if not (self.p_normal > 0.0 and math.isfinite(1.0 / self.p_normal)):
            raise ConfigurationError(f"normal election probability p_opt/(1+alpha*m) is "
                                     f"{self.p_normal!r}, whose epoch 1/p is not finite; raise p_opt")
        if not self.total_initial_energy <= MAX_TOTAL_ENERGY:
            raise ConfigurationError(f"total initial energy must be at most {MAX_TOTAL_ENERGY} J, "
                                     f"got {self.total_initial_energy}")

    @property
    def p_normal(self) -> float:
        """A normal node's per-round head probability; advanced nodes weigh (1 + alpha) more."""
        return self.p_opt / (1.0 + self.alpha * self.m)

    @property
    def p_advanced(self) -> float:
        return self.p_opt * (1.0 + self.alpha) / (1.0 + self.alpha * self.m)

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


def _epoch(p: float) -> int:
    """Rounds in one election epoch for probability ``p``."""
    return math.ceil(1.0 / p)


def election_threshold(p: float, round_idx: int) -> float:
    """Rotating self-election threshold for a node in the eligible set G.

    Within an epoch of ceil(1/p) rounds the threshold climbs as
    p / (1 - p*(r mod epoch)) so each eligible node is elected once per epoch
    in expectation; the final slot clamps to 1. Callers give nodes outside G
    no chance of election. ``NetworkParams`` keeps p in (0, 1) with a finite
    epoch.
    """
    slot = round_idx % _epoch(p)
    denom = 1.0 - p * slot
    if denom <= 0.0:
        return 1.0
    return min(1.0, p / denom)


def _pay_or_die(out: RoundOutcome, ids, costs, energy, alive, sent) -> RoundOutcome:
    """Each alive ``ids[j]`` pays ``costs[j]`` and sends one packet, or dies, into ``out``.

    ``energy``, ``alive`` and ``sent`` are indexed by id: numpy arrays or lists.
    """
    for i, cost in zip(ids, costs):
        if not alive[i]:
            continue
        if energy[i] >= cost:
            energy[i] -= cost
            sent[i] += 1
            out.packets += 1
            out.cost += cost
        else:
            alive[i] = False
            out.deaths += 1
    return out


def direct_round(state: NodeState, ids: np.ndarray, costs: np.ndarray) -> RoundOutcome:
    """Each alive node ``ids[j]`` sends one packet straight to the sink at cost ``costs[j]``."""
    return _pay_or_die(RoundOutcome(), ids.tolist(), costs.tolist(),
                       state.energy, state.alive, state.packets_sent)


def hop_table(state: NodeState, radio: RadioParams) -> tuple[np.ndarray, np.ndarray] | None:
    """Hop distances ``d[h, m]`` from node h to node m, and their ``tx_energy`` prices.

    None above ``_HOP_NODES`` nodes. ``[h, m]`` holds the bits of a round's (heads x members) block.
    """
    if state.n > _HOP_NODES:
        return None
    d = distances(state.xs, state.ys, state.xs[:, None], state.ys[:, None])
    return d, tx_energy(radio, radio.packet_bits, d)


def sep_round(state: NodeState, round_idx: int, net: NetworkParams,
              radio: RadioParams, uplink: np.ndarray, rng: np.random.Generator,
              hops: tuple[np.ndarray, np.ndarray] | None = None) -> RoundOutcome:
    """One clustered round against a static sink.

    ``uplink`` holds each node's cost of transmitting straight to the sink,
    indexed by id. Members read their hops from ``hops``, a ``hop_table``,
    if given; without it the round prices its (heads x members) hops afresh.

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
    p_nrm, p_adv = net.p_normal, net.p_advanced

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
        # Nearest alive head, lowest id on ties, from a (heads x members) block.
        if hops is None:
            d = distances(state.xs[member_ids], state.ys[member_ids],
                          state.xs[ch_ids, None], state.ys[ch_ids, None])
        else:
            d = hops[0].take(ch_ids, axis=0).take(member_ids, axis=1)
        nearest = d.argmin(axis=0)
        heads = ch_ids[nearest]
        tx = (tx_energy(radio, k, d[nearest, np.arange(len(member_ids))]) if hops is None
              else hops[1][heads, member_ids])
        for i, ch, c in zip(member_ids.tolist(), heads.tolist(), tx.tolist()):
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

    # Heads forward their members' packets and their own; the cost adds on in id order.
    out.cost, out.deaths = cost, deaths
    fwd = [per_msg * (n + 1) + u for n, u in zip(received.values(), uplink[ch_ids].tolist())]
    _pay_or_die(out, received, fwd, energy, alive, sent)
    state.energy[:] = energy
    state.alive[:] = alive
    state.packets_sent[:] = sent
    return out
