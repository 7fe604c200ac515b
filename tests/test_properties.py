"""Run invariants over small random configurations (Hypothesis).

Every drawn run is checked against the stepped loop of ``oracles`` and for
the physical invariants: no node energy below zero, alive counts that never
rise, and a residual series that is the exact fold of the round costs. Each
run also draws the fold's block size (``_CHUNK``) as 1, 7 or its real value,
so node folds carry energy across many blocks and stop at their horizon or
die inside one. Drawn sep runs are also checked against runs whose rounds are
played by the oracle ``sep_round``.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sinksim import simulation
from sinksim.geometry import (CirclePath, Point, SquareField, SquarePath,
                              StaticPath, Trajectory)
from sinksim.protocols import PROTOCOLS, SEP, SRP, NetworkParams
from sinksim.simulation import STOP_RULES, ScenarioConfig, Simulation

from oracles import assert_same_run, sep_oracle_run, stepped_run

CENTER = Point(50.0, 50.0)


@st.composite
def configs(draw, protocols=PROTOCOLS):
    protocol = draw(st.sampled_from(protocols))
    if protocol == SRP:
        if draw(st.booleans()):
            path = SquarePath(CENTER, draw(st.floats(2.0, 100.0)))
        else:
            path = CirclePath(CENTER, draw(st.floats(1.0, 50.0)))
        trajectory = Trajectory(path, sojourn_count=draw(st.integers(1, 40)),
                                sensing_range=draw(st.floats(0.5, 150.0)),
                                r_max=500.0)
    else:
        trajectory = Trajectory(StaticPath(Point(draw(st.floats(0.0, 100.0)),
                                                 draw(st.floats(0.0, 100.0)))))
    net = NetworkParams(n=draw(st.integers(1, 30)), m=draw(st.floats(0.0, 0.5)),
                        alpha=draw(st.floats(0.0, 2.0)), e0=draw(st.floats(1e-4, 0.1)))
    return ScenarioConfig(SquareField(100.0), trajectory, protocol, net=net,
                          seed=draw(st.integers(0, 2**32)),
                          max_rounds=draw(st.integers(1, 3000)),
                          stop_rule=draw(st.sampled_from(STOP_RULES)))


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs(), st.sampled_from([1, 7, simulation._CHUNK]))
def test_run_invariants(cfg, chunk):
    sim = Simulation(cfg)
    with mock.patch.object(simulation, "_CHUNK", chunk):
        m = sim.run()
    ref = Simulation(cfg)
    assert_same_run(sim, m, ref, stepped_run(ref))

    assert (sim.state.energy >= 0.0).all()
    assert m.alive[0] <= cfg.net.n and (np.diff(m.alive) <= 0).all() and m.alive[-1] >= 0
    assert (np.diff(m.cumulative_packets) >= 0).all()
    if cfg.protocol != SEP:  # sep members' packets end at their head
        assert m.total_packets == int(sim.state.packets_sent.sum())
    acc = m.initial_energy_j
    for cost, res in zip(m.round_cost_j.tolist(), m.residual_j.tolist()):
        acc -= cost
        assert acc == res


@settings(derandomize=True, max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs(protocols=(SEP,)))
def test_sep_round_matches_oracle(cfg):
    sim = Simulation(cfg)
    m = sim.run()
    ref, m_ref = sep_oracle_run(cfg)
    assert_same_run(sim, m, ref, m_ref)
