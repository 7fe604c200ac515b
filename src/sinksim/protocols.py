"""Per-round protocol engines over one network state.

* ``direct_round`` — the one direct-transmission rule. Every alive node
  listed (the nodes in range of the sink's current point, with their
  precomputed transmission costs) sends one packet straight to the sink. It
  is one stepped round of srp (the nodes in range of one sojourn point) and
  cl-sep (every node, static sink), and sep's no-head fallback.
  ``Simulation.run`` folds srp and cl-sep per node instead of stepping them.
* ``sep_window`` and ``sep_block`` — the one sep engine: clustered routing
  to a static sink. ``sep_window`` elects the heads of a window of rounds
  at once and, up to ``_HOP_NODES`` nodes, finds each member's nearest head
  in ``hop_table`` (which prices every node-to-node hop once for a run and
  ranks each node's neighbours). ``sep_block`` lays out a block of the
  window's rounds over the nodes still alive, through the first with a
  death, which it pays by its pay loop; without a table it finds each
  round's nearest heads by distance. ``Simulation.run`` plays every sep
  round through them and ``Simulation.step`` one-row windows.

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

# Most nodes a network may have. A sep run too large for a hop table finds
# each round's nearest heads a block of members at a time.
MAX_NODES = 10_000
_HOP_NODES = 256  # most nodes for which sep builds a hop table: n x n prices and two ranks, 0.7 MB
# Most elements one block of the engines' set-up and folds holds: a block of
# (nodes x points) reach distances, of node folds, of reach entries or of a
# series tile of (tours x entries), of sep rounds x n, or of (heads x members)
# hops. Blocks stay small whatever n, slot widths and max_rounds are.
_CHUNK = 1 << 14
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
    deaths: int = 0


def _slot(p: float | np.ndarray, rounds: np.ndarray) -> np.ndarray:
    """Each round's place in its epoch of ceil(1/p) rounds, a row per entry of a column
    ``p``; rounds stay below 2**62, so a longer epoch leaves them as they are."""
    return rounds % np.minimum(np.ceil(1.0 / p), 2.0**62).astype(np.int64)


def election_threshold(p: float | np.ndarray, rounds: np.ndarray) -> np.ndarray:
    """Rotating self-election threshold of each of ``rounds`` for a node in the eligible set G.

    Within an epoch of ceil(1/p) rounds the threshold climbs as
    p / (1 - p*(r mod epoch)) so each eligible node is elected once per epoch
    in expectation; the final slot clamps to 1. Callers give nodes outside G
    no chance of election. ``NetworkParams`` keeps p in (0, 1) with a finite
    epoch. A column of probabilities gives a row of thresholds each.
    """
    return p / np.maximum(1.0 - p * _slot(p, rounds), p)  # 1 where the denominator is p or less


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


def hop_table(state: NodeState, radio: RadioParams) -> tuple[np.ndarray, ...] | None:
    """Each hop's price, and each node's neighbours by distance, lowest id on ties.

    Returns ``(price, rank, near)``, or None above ``_HOP_NODES`` nodes.
    ``price[h, m]`` is ``tx_energy`` over the hop from member m to head h, the
    bits of a round's (heads x members) block. ``near[m, j]`` is m's j-th
    nearest node, and ``rank[h, m]`` is h's place in that order; its last
    row, n, holds n - 1, the largest place. Places are distinct, so a
    member's nearest head is the head of least rank.

    Hops are symmetric, so each row of distances is sorted as keys: a
    distance's bits with the lowest ones replaced by the node's id, which
    order it by distance and then id. A row in which two keys share their
    distance bits is sorted again stably.
    """
    n = state.n
    if n > _HOP_NODES:
        return None
    d = distances(state.xs, state.ys, state.xs[:, None], state.ys[:, None])
    price = tx_energy(radio, radio.packet_bits, d)
    low = np.uint64((1 << (n - 1).bit_length()) - 1)  # the bits that hold an id
    ids = np.arange(n, dtype=np.uint64)
    near = np.empty((n, n), dtype=np.min_scalar_type(n - 1))
    step = max(1, _CHUNK // n)
    for lo in range(0, n, step):
        key = d[lo:lo + step].view(np.uint64) & ~low  # d >= 0: its bits order as it does
        key |= ids
        key = np.sort(key.view(np.float64), axis=1).view(np.uint64)
        near[lo:lo + step] = key & low
        tied = lo + ((key[:, 1:] ^ key[:, :-1]) <= low).any(axis=1).nonzero()[0]
        near[tied] = d[tied].argsort(axis=1, kind="stable")
    rank = np.full((n + 1, n), n - 1, dtype=near.dtype)
    rank[near, np.arange(n)[:, None]] = np.arange(n, dtype=near.dtype)
    return price, rank, near


def _nearest_heads(state: NodeState, ch_ids: np.ndarray,
                   member_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each member's nearest head, lowest id on ties, and its distance.

    The (heads x members) distances are taken a block of members at a time.
    """
    heads = np.empty(len(member_ids), dtype=np.intp)
    dist = np.empty(len(member_ids))
    step = max(1, _CHUNK // len(ch_ids))
    for lo in range(0, len(member_ids), step):
        m = member_ids[lo:lo + step]
        d = distances(state.xs[m], state.ys[m], state.xs[ch_ids, None], state.ys[ch_ids, None])
        nearest = d.argmin(axis=0)
        heads[lo:lo + step] = ch_ids[nearest]
        dist[lo:lo + step] = d[nearest, np.arange(len(m))]
    return heads, dist


def _pay_sep_round(state: NodeState, radio: RadioParams, uplink: np.ndarray,
                   ch_ids: np.ndarray, member_ids: np.ndarray, heads: np.ndarray,
                   tx: np.ndarray) -> RoundOutcome:
    """Pay one sep round whose heads ``ch_ids`` are elected, in id order: the pay
    loop of ``sep_block``, for a one-round block and for a block's round with a death.

    Each alive member ``member_ids[j]`` sends to head ``heads[j]`` at cost
    ``tx[j]``, the head paying reception per packet; heads aggregate
    (received messages plus their own) and forward one packet to the sink
    at their ``uplink``. With no head every alive node falls back to
    transmitting directly to the sink. Members do not re-route when their
    head dies mid-round; those packets are lost.
    """
    if len(ch_ids) == 0:
        return direct_round(state, np.arange(state.n), uplink)
    # Members and heads act on plain Python lists, written back once below.
    energy = state.energy.tolist()
    alive = state.alive.tolist()
    sent = state.packets_sent.tolist()
    rx = rx_energy(radio, radio.packet_bits)
    # aggregation_energy(radio, k, m) is (e_da*k)*m, so pricing one message
    # and scaling it by m gives the same bits.
    per_msg = aggregation_energy(radio, radio.packet_bits, 1)
    cost = 0.0
    deaths = 0
    received = dict.fromkeys(ch_ids.tolist(), 0)
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
    out = RoundOutcome(cost=cost, deaths=deaths)
    fwd = [per_msg * (n + 1) + u for n, u in zip(received.values(), uplink[ch_ids].tolist())]
    _pay_or_die(out, received, fwd, energy, alive, sent)
    state.energy[:] = energy
    state.alive[:] = alive
    state.packets_sent[:] = sent
    return out


def _heads_by_rank(hops: tuple[np.ndarray, ...], live: np.ndarray,
                   is_ch: np.ndarray) -> np.ndarray:
    """Each node of ``live``'s nearest head in each row of ``is_ch``, from a ``hop_table``.

    The least ``rank`` over the row's heads, read through ``near``. Each
    row's heads are padded to the most any row has with row n of ``rank``,
    which no rank is above. The (heads x rows x n) rank gather, whose min
    down the heads runs along contiguous rows, is taken a block of rows at a
    time, of at most ``_CHUNK`` elements (or one row).
    """
    _, rank, near = hops
    n = len(near)
    b, m = is_ch.shape
    ch_round, ch = np.divmod(np.flatnonzero(is_ch), m)  # flat, faster than 2-D nonzero
    heads = np.bincount(ch_round, minlength=b)
    pad = np.full((b, heads.max(initial=0)), n)
    pad[ch_round, np.arange(len(ch)) - (np.cumsum(heads) - heads)[ch_round]] = live[ch]
    least = np.empty((b, n), dtype=rank.dtype)
    step = max(1, _CHUNK // max(1, pad.shape[1] * n))
    for lo in range(0, b, step):
        rank[pad[lo:lo + step].T].min(axis=0, initial=n - 1, out=least[lo:lo + step])
    return near[live, least[:, live]]


class SepWindow:
    """sep's election over rounds ``round0, round0 + 1, ...``, a row each, of nodes ``live``.

    ``is_ch[j, c]`` says whether node ``live[c]`` is elected head in round
    ``round0 + j``, and ``in_g[j, c]`` whether it is in set G after it.
    With a hop table, ``head_of[j, c]`` is ``live[c]``'s nearest head among
    the round's heads, once ``refind_heads`` has dropped every head that
    died; without one it is None. A plain class: a dataclass builds its
    methods on every import, which the set-up time of each run pays.
    """

    def __init__(self, round0: int, live: np.ndarray, is_ch: np.ndarray, in_g: np.ndarray,
                 head_of: np.ndarray | None):
        self.round0, self.live, self.is_ch, self.in_g, self.head_of = (
            round0, live, is_ch, in_g, head_of)

    def rows(self, lo: int, hi: int, alive: np.ndarray) -> SepWindow:
        """Rounds ``lo`` to ``hi - 1`` of the window, over its nodes still ``alive``."""
        j = slice(lo - self.round0, hi - self.round0)
        keep = alive[self.live]
        cols = slice(None) if keep.all() else keep
        return SepWindow(lo, self.live[cols], self.is_ch[j, cols], self.in_g[j, cols],
                         None if self.head_of is None else self.head_of[j, cols])

    def refind_heads(self, lo: int, alive: np.ndarray, died: np.ndarray,
                     hops: tuple[np.ndarray, ...]) -> None:
        """Look up again, from round ``lo`` on, the heads of each round that elected a
        node that ``died``, over its heads still ``alive`` (``_heads_by_rank``).

        A member whose head lives keeps it, its nearest among fewer heads. A
        round whose every head died keeps lookups that no member reads: it
        falls back to direct transmission.
        """
        j = lo - self.round0
        again = j + self.is_ch[j:, died[self.live]].any(axis=1).nonzero()[0]
        if len(again):
            self.head_of[again] = _heads_by_rank(hops, self.live,
                                                 self.is_ch[again] & alive[self.live])


def sep_window(state: NodeState, round0: int, net: NetworkParams,
               hops: tuple[np.ndarray, ...] | None, draws: np.ndarray) -> SepWindow:
    """sep's election in rounds ``round0, round0 + 1, ...``, one per row of ``draws``.

    Nodes self-elect as cluster heads with a rotating threshold on
    ``NetworkParams.p_normal`` or ``p_advanced``, by their ``is_advanced``
    flag. A node's election depends only on its own draws, its set-G flag
    and whether it lives, so the window lays out every row at once over the
    nodes alive now, and each node's column holds for as long as it lives.
    Per node kind, a stretch runs from an epoch boundary to the next, and a
    node is elected at the first hit (draw below the threshold) of a
    stretch: a ``cumsum`` of hits, less its value where the stretch starts,
    is 1 there. A node out of set G when the window opens counts as having
    hit already in the stretch it is in. With a ``hop_table``, each node's
    nearest head in each row is looked up too (``_heads_by_rank``).
    """
    b, n = draws.shape
    live = state.alive.nonzero()[0]
    m = len(live)
    adv = state.is_advanced[live]
    rounds = np.arange(round0, round0 + b)
    at = np.arange(b)

    # count[j + 2] counts hits up to round j, and count[1] a node out of G at
    # the start. Less count[s], where s is 0 before the window's first epoch
    # boundary and j' + 1 from a boundary j' on, it counts the stretch's hits.
    # Each kind, advanced and normal, is one row of p.
    p = np.array([[net.p_advanced], [net.p_normal]])
    t_adv, t_nrm = election_threshold(p, rounds)[:, :, None]
    s_adv, s_nrm = np.maximum.accumulate(np.where(_slot(p, rounds) == 0, at + 1, 0), axis=1)
    hit = draws[:, live] < np.where(adv, t_adv, t_nrm)
    count = np.zeros((b + 2, m), dtype=np.int32)
    count[1] = ~state.in_set_g[live]
    count[2:] = hit
    np.cumsum(count, axis=0, out=count)
    count = count[2:] - np.where(adv, count[s_adv], count[s_nrm])
    is_ch = hit & (count == 1)
    return SepWindow(round0, live, is_ch, count == 0,
                     None if hops is None else _heads_by_rank(hops, live, is_ch))


def sep_block(state: NodeState, radio: RadioParams, uplink: np.ndarray,
              hops: tuple[np.ndarray, ...] | None,
              window: SepWindow) -> tuple[np.ndarray, np.ndarray, int]:
    """The rounds of ``window``, whose nodes all live, through the first death.

    The one sep engine: the window's heads (``sep_window``) serve their
    nearest members, lowest id on ties; heads aggregate and forward by the
    direct rule. ``window`` is a ``SepWindow.rows`` slice, or a one-row
    window; some node must be alive.

    Between deaths a round's heads, members and prices depend only on the
    window and the alive set, never on energy, so every round of the block
    is laid out at once, as if none died:

    * **Nearest head.** With a ``hop_table``, the window's, which
      ``SepWindow.refind_heads`` keeps to heads still alive. A row whose
      heads all died since the window opened has none among the block's
      nodes and falls back to direct transmission. Without a table
      (``hops`` None), each row with heads searches them by distance
      (``_nearest_heads``), and one ``tx_energy`` call prices the block's
      hops.
    * **Node energy.** One ``np.subtract.accumulate`` per node over its
      events in round order: a member's hop, or a head's receptions and then
      its forward, or a fallback round's uplink. A node's first payment it
      cannot make ends the rounds committed.
    * **Round cost.** For the committed rows only, one ``cumsum`` over the
      row ``[tx₀, rx, tx₁, rx, …, forward of each head]`` with 0.0 where a
      node does not act, the order in which ``_pay_sep_round`` adds them;
      adding 0.0 is exact.

    Commits to ``state`` the rounds before the first in which some payment
    fails, then pays that round from its row of the layout through
    ``_pay_sep_round``. A one-round block skips the fold and pays its round
    there. Returns the rounds' (cost, packets) and the deaths of the last,
    0 if every round was clean.
    """
    live, is_ch = window.live, window.is_ch
    b, m = is_ch.shape
    k = radio.packet_bits
    rx = rx_energy(radio, k)
    per_msg = aggregation_energy(radio, k, 1)

    heads = is_ch.sum(axis=1)
    led = heads > 0
    member = ~is_ch
    member &= led[:, None]
    if hops is None:
        head_of = np.zeros((b, m), dtype=np.intp)
        dist = np.zeros((b, m))
        for j in led.nonzero()[0]:
            head_of[j, member[j]], dist[j, member[j]] = _nearest_heads(
                state, live[is_ch[j]], live[member[j]])
        # A block with no head searches for none and prices no hop.
        send = np.where(member, tx_energy(radio, k, dist), 0.0) if led.any() else dist
    else:
        head_of = window.head_of
        send = np.where(member, hops[0][head_of, live], 0.0)

    done = 0
    if b > 1:
        up = uplink[live]
        send[~led] = up  # no head: every node's uplink
        ids = np.arange(m)
        local = np.empty(state.n, dtype=np.intp)
        local[live] = ids
        got = np.bincount((local[head_of] + np.arange(b)[:, None] * m)[member],
                          minlength=b * m).reshape(b, m)
        got += 1
        fwd = np.where(is_ch, per_msg * got + up, 0.0)

        # Each node acts once a round: got events, receptions and then its hop,
        # forward or uplink. Rows are padded with rx.
        events = np.cumsum(got, axis=0)  # each node's events through each round
        fold = np.full((m, int(events[-1].max()) + 1), rx)
        fold[ids[:, None], events.T] = (send + fwd).T
        fold[:, 0] = state.energy[live]
        before = np.subtract.accumulate(fold, axis=1)
        # A node's first short payment, if one of its events and not padding,
        # lies in the round after those whose events end before it.
        short = before[:, :-1] < fold[:, 1:]
        first = short.argmax(axis=1)
        fails = short[ids, first].nonzero()[0]
        done = int((events[:, fails] <= first[fails]).sum(axis=0).min(initial=b))
        if done:
            state.energy[live] = before[ids, events[done - 1]]
            state.packets_sent[live] += done
    state.in_set_g[live] = window.in_g[min(done, b - 1)]  # after the last round run

    cost = np.empty(min(done + 1, b))
    packets = np.where(led[:len(cost)], heads[:len(cost)], m)
    if done:
        row = np.empty((done, 3 * m))
        row[:, 0:2 * m:2] = send[:done]
        row[:, 1:2 * m:2] = member[:done] * rx
        row[:, 2 * m:] = fwd[:done]
        cost[:done] = np.cumsum(row, axis=1, out=row)[:, -1]
    if done == b:
        return cost, packets, 0
    out = _pay_sep_round(state, radio, uplink, live[is_ch[done]], live[member[done]],
                         head_of[done, member[done]], send[done, member[done]])
    cost[done], packets[done] = out.cost, out.packets
    return cost, packets, out.deaths
