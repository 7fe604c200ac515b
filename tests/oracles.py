"""Reference engines that only the tests use.

* ``srp_round``   — one srp round that recomputes the sink position and every
  distance each round; the oracle for the reach table.
* ``stepped_run`` — ``Simulation.run`` as a plain loop of ``Simulation.step``
  calls, one per round; the oracle for the per-node fold of srp and cl-sep
  and for sep's filled dead tail.
"""

import numpy as np

from sinksim.energy import RadioParams, tx_energy
from sinksim.errors import ConfigurationError
from sinksim.geometry import Trajectory, sink_position
from sinksim.protocols import NodeState, RoundOutcome
from sinksim.simulation import STOP_ALL_DEAD, RunMetrics, Simulation


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
    # Deterministic order: costs summed in node-id order.
    out.cost = float(sum(cost[can_pay].tolist()))
    out.deaths = int(exhausted.sum())
    return out


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
