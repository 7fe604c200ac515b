"""Reference implementations that only the tests use.

* ``deploy``       — node placement with one scalar draw per coordinate; the
  oracle for the library's array ``deploy``.
* ``sink_position`` — the sink's point in a round, computed from the tour
  alone; ``srp_round`` places the sink with it.
* ``coverage_radius_grid`` — a grid scan of the field; the independent check
  of the closed forms in ``geometry.coverage_radius``.
* ``srp_round``   — one srp round that recomputes the sink position and every
  distance each round; the oracle for the reach table.
* ``sep_round``   — one sep round that pays member by member on numpy
  scalars, with one scalar ``tx_energy`` call per member and every distance
  computed afresh; the oracle for the library's ``sep_round``, which reads
  its hops from a ``HopTable`` or prices a (members x heads) block, and pays
  on Python lists. ``sep_oracle_run`` runs a whole ``Simulation`` with it.
* ``stepped_run`` — ``Simulation.run`` as a plain loop of ``Simulation.step``
  calls, one per round; the oracle for the per-node fold of srp and cl-sep
  and for sep's filled dead tail.
* ``write_run_csv`` and ``validate_run_csv`` — the per-round CSV formatted
  and parsed one row at a time; the oracles for the library's pair, which
  handle runs of rows that repeat the row above.
"""

import math
from pathlib import Path
from unittest import mock

import numpy as np

from sinksim import simulation
from sinksim.energy import RadioParams, aggregation_energy, rx_energy, tx_energy
from sinksim.errors import ConfigurationError
from sinksim.geometry import (Field, Point, SquareField, Trajectory,
                              _sojourn_point, path_point_distance,
                              trajectory_in_field)
from sinksim.harness import CSV_BLOCK_ROWS, CSV_HEADER, fmt_float
from sinksim.protocols import (ADVANCED, NORMAL, NetworkParams, NodeState,
                               RoundOutcome, _epoch, ch_probability,
                               direct_round, election_threshold)
from sinksim.simulation import (STOP_ALL_DEAD, RunMetrics, ScenarioConfig, Simulation,
                                rng_stream)


def deploy(cfg: ScenarioConfig) -> NodeState:
    """Place nodes uniformly in the field, one scalar draw per coordinate.

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


def sink_position(t: Trajectory, round_idx: int) -> Point:
    """Sink location during a given round: one sojourn point per round, wrapping."""
    return _sojourn_point(t, round_idx % (1 if t.is_static else t.sojourn_count))


def _field_bounds(f: Field) -> tuple[float, float, float, float]:
    if isinstance(f, SquareField):
        return 0.0, f.side, 0.0, f.side
    return (f.center.x - f.radius, f.center.x + f.radius,
            f.center.y - f.radius, f.center.y + f.radius)


def coverage_radius_grid(t: Trajectory, f: Field,
                         coarse: float = 1.0, fine: float = 0.01) -> float:
    """Numerical coverage radius: coarse grid scan plus local refinement.

    Independent of the closed forms in `coverage_radius`; used to validate
    them. Scans the field on a `coarse`-spaced grid, then refines around the
    worst point down to `fine` resolution.
    """
    if not trajectory_in_field(t, f):
        raise ConfigurationError("trajectory does not lie inside the field")
    xmin, xmax, ymin, ymax = _field_bounds(f)

    def scan(x0: float, x1: float, y0: float, y1: float, step: float) -> tuple[float, Point]:
        best = -1.0
        best_pt = Point(x0, y0)
        nx = max(1, int(round((x1 - x0) / step)))
        ny = max(1, int(round((y1 - y0) / step)))
        for i in range(nx + 1):
            x = x0 + (x1 - x0) * i / nx
            for j in range(ny + 1):
                y = y0 + (y1 - y0) * j / ny
                q = Point(x, y)
                if not f.contains(q):
                    continue
                d = path_point_distance(t.path, q)
                if d > best:
                    best = d
                    best_pt = q
        return best, best_pt

    best, best_pt = scan(xmin, xmax, ymin, ymax, coarse)
    # Refine around the coarse maximum, clipped to the bounding box.
    rx0 = max(xmin, best_pt.x - coarse)
    rx1 = min(xmax, best_pt.x + coarse)
    ry0 = max(ymin, best_pt.y - coarse)
    ry1 = min(ymax, best_pt.y + coarse)
    refined, _ = scan(rx0, rx1, ry0, ry1, fine)
    return max(best, refined)


def srp_round(state: NodeState, trajectory: Trajectory, round_idx: int,
              radio: RadioParams) -> RoundOutcome:
    """One mobile-sink round.

    The sink sits at its sojourn point for the round; alive nodes within
    sensing range (boundary inclusive) transmit one packet at their actual
    distance, everyone else sleeps at zero cost.
    """
    if trajectory.sensing_range is None:
        raise ConfigurationError("mobile-sink protocol requires a sensing_range")
    out = RoundOutcome()
    if not state.alive.any():
        return out

    sink = sink_position(trajectory, round_idx)
    dx = state.xs - sink.x
    dy = state.ys - sink.y
    d = np.sqrt(dx * dx + dy * dy)
    in_range = state.alive & (d <= trajectory.sensing_range)
    if not in_range.any():
        return out

    cost = tx_energy(radio, radio.packet_bits, d)
    can_pay = in_range & (state.energy >= cost)
    exhausted = in_range & ~can_pay

    state.energy[can_pay] -= cost[can_pay]
    state.packets_sent[can_pay] += 1
    state.alive[exhausted] = False

    out.packets = int(can_pay.sum())
    # Deterministic order: costs added one by one in node-id order, never
    # by the builtin sum(), which Python 3.12 made compensated.
    paid = cost[can_pay]
    out.cost = float(np.cumsum(paid)[-1]) if len(paid) else 0.0
    out.deaths = int(exhausted.sum())
    return out


def sep_round(state: NodeState, round_idx: int, net: NetworkParams,
              radio: RadioParams, uplink: np.ndarray, rng: np.random.Generator,
              hops: object = None) -> RoundOutcome:
    """One clustered round against a static sink.

    ``uplink`` holds each node's cost of transmitting straight to the sink,
    indexed by id. ``hops`` is ignored: every hop is priced afresh.

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
    if not state.alive.any():
        return out

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
    thresholds = np.where(state.in_set_g, thresholds, 0.0)
    is_ch = state.alive & (draws < thresholds)
    ch_ids = np.flatnonzero(is_ch)
    state.in_set_g[ch_ids] = False
    out.cluster_heads = len(ch_ids)

    if len(ch_ids) == 0:
        # Fallback: nobody advertised, everyone reports directly.
        return direct_round(state, np.arange(state.n), uplink)

    alive_before = state.alive_count()
    energy = state.energy
    xs = state.xs
    ys = state.ys

    member_ids = np.flatnonzero(state.alive & ~is_ch)
    received = {int(ch): 0 for ch in ch_ids.tolist()}

    if len(member_ids) > 0:
        # Nearest alive head by Euclidean distance, lowest id on ties.
        dx = xs[member_ids, None] - xs[None, ch_ids]
        dy = ys[member_ids, None] - ys[None, ch_ids]
        dists = np.sqrt(dx * dx + dy * dy)
        nearest = np.argmin(dists, axis=1)
        rx_cost = rx_energy(radio, k)
        for row, i in enumerate(member_ids.tolist()):
            ch = int(ch_ids[nearest[row]])
            c = tx_energy(radio, k, float(dists[row, nearest[row]]))
            if float(energy[i]) >= c:
                energy[i] -= c
                state.packets_sent[i] += 1
                out.cost += c
                if state.alive[ch]:
                    if float(energy[ch]) >= rx_cost:
                        energy[ch] -= rx_cost
                        out.cost += rx_cost
                        received[ch] += 1
                    else:
                        state.alive[ch] = False
            else:
                state.alive[i] = False

    for ch in ch_ids.tolist():
        if not state.alive[ch]:
            continue
        n_msgs = received[ch] + 1  # members' packets plus the head's own
        c = aggregation_energy(radio, k, n_msgs) + float(uplink[ch])
        if float(energy[ch]) >= c:
            energy[ch] -= c
            state.packets_sent[ch] += 1
            out.packets += 1
            out.cost += c
        else:
            state.alive[ch] = False

    out.deaths = alive_before - state.alive_count()
    return out


def sep_oracle_run(cfg: ScenarioConfig) -> tuple[Simulation, RunMetrics]:
    """``Simulation(cfg).run()`` with every sep round played by ``sep_round``."""
    with mock.patch.object(simulation, "sep_round", sep_round):
        sim = Simulation(cfg)
        return sim, sim.run()


def stepped_run(sim: Simulation) -> RunMetrics:
    """Step ``sim`` round by round until its stop rule fires."""
    cfg = sim.cfg
    n = cfg.net.n
    initial = sim.state.total_energy()
    residual = initial
    cum_packets = 0
    alive = sim.state.alive_count()
    alive_s, residual_s, packets_s, cost_s = [], [], [], []
    first = half = last = None

    for r in range(cfg.max_rounds):
        outcome = sim.step(r)
        residual -= outcome.cost
        cum_packets += outcome.packets
        alive -= outcome.deaths

        alive_s.append(alive)
        residual_s.append(residual)
        packets_s.append(cum_packets)
        cost_s.append(outcome.cost)

        if first is None and alive < n:
            first = r
        if half is None and alive <= n // 2:
            half = r
        if last is None and alive == 0:
            last = r
            if cfg.stop_rule == STOP_ALL_DEAD:
                break

    return RunMetrics(n=n, initial_energy_j=initial,
                      alive=np.array(alive_s, dtype=np.int64),
                      residual_j=np.array(residual_s, dtype=np.float64),
                      cumulative_packets=np.array(packets_s, dtype=np.int64),
                      round_cost_j=np.array(cost_s, dtype=np.float64),
                      first_death_round=first, half_death_round=half,
                      last_death_round=last, total_packets=cum_packets)


SERIES = ("alive", "residual_j", "cumulative_packets", "round_cost_j")
NODE_ARRAYS = ("energy", "alive", "packets_sent", "in_set_g")


def assert_same_run(a: Simulation, ma: RunMetrics, b: Simulation, mb: RunMetrics) -> None:
    """Two finished runs agree bit for bit: series, summary and node state."""
    for name in SERIES:
        x, y = getattr(ma, name), getattr(mb, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    for name in ("n", "first_death_round", "half_death_round", "last_death_round",
                 "total_packets"):
        assert getattr(ma, name) == getattr(mb, name), name
    assert type(ma.total_packets) is int and type(mb.total_packets) is int
    assert np.float64(ma.initial_energy_j).tobytes() == np.float64(mb.initial_energy_j).tobytes()
    for name in NODE_ARRAYS:
        x, y = getattr(a.state, name), getattr(b.state, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f"state.{name}"


def write_run_csv(path: str | Path, metrics: RunMetrics) -> None:
    """Per-round series as plot-ready CSV, converted a block of rows at a time."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for lo in range(0, metrics.rounds_executed, CSV_BLOCK_ROWS):
            hi = lo + CSV_BLOCK_ROWS
            rows = zip(range(lo, hi), metrics.alive[lo:hi].tolist(),
                       metrics.residual_j[lo:hi].tolist(),
                       metrics.cumulative_packets[lo:hi].tolist())
            f.write("".join(f"{r},{alive},{fmt_float(res)},{pk}\n"
                            for r, alive, res, pk in rows))


def validate_run_csv(path: str | Path) -> list[str]:
    """Check an emitted per-round CSV's header, schema and monotonicity.

    Returns a list of problems; empty means the file is valid.
    """
    problems: list[str] = []
    # Lines end only at "\n" (as str.split("\n") would cut them) and are
    # read one at a time, so a long run's file is never held whole. A byte
    # that is not UTF-8 decodes to a lone surrogate, which no int() or
    # float() parses, so its row is reported as unparsable.
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="\n") as f:
        lines = (line[:-1] if line.endswith("\n") else line for line in f)
        header = next(lines, None)
        if header is None:
            return ["file is empty"]
        if header != CSV_HEADER:
            return [f"bad header: expected {CSV_HEADER!r}, got {header!r}"]

        # The first row compares against bounds that no row can cross.
        prev_alive, prev_res, prev_pk = math.inf, math.inf, -math.inf
        idx = -1
        for idx, line in enumerate(lines):
            fields = line.split(",")
            if len(fields) != 4:
                problems.append(f"row {idx}: expected 4 fields, got {len(fields)}")
                break
            try:
                rnd = int(fields[0])
                alive = int(fields[1])
                res = float(fields[2])
                pk = int(fields[3])
            except ValueError:
                problems.append(f"row {idx}: unparsable fields {line!r}")
                break
            if rnd != idx:
                problems.append(f"row {idx}: round column is {rnd}, expected {idx}")
            if res - res != 0.0:                          # nan or +-inf
                problems.append(f"row {idx}: non-finite residual energy {fields[2]}")
            if alive < 0:
                problems.append(f"row {idx}: negative alive count")
            if pk < 0:
                problems.append(f"row {idx}: negative cumulative packets")
            if alive > prev_alive:
                problems.append(f"row {idx}: alive count increased {prev_alive} -> {alive}")
            if res > prev_res:
                problems.append(f"row {idx}: residual energy increased {prev_res} -> {res}")
            if pk < prev_pk:
                problems.append(f"row {idx}: cumulative packets decreased {prev_pk} -> {pk}")
            prev_alive, prev_res, prev_pk = alive, res, pk
            if len(problems) >= 20:
                problems.append("too many problems; stopping")
                break
    if idx < 0:
        return ["no data rows"]
    return problems
