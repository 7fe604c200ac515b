"""Run invariants over small random configurations (Hypothesis).

Every drawn run is checked against the stepped loop of ``oracles`` and for
the physical invariants: no node energy below zero, alive counts that never
rise, and a residual series that is the exact fold of the round costs. Each
run also draws the block size of its reach table and folds (``_CHUNK``) as
1, 7 or its real value, so the table is built a point or a few points at a
time, and node folds carry energy across many blocks and stop at their
horizon or die inside one. Drawn sep runs are also checked against runs whose
rounds are played by the oracle ``sep_round``, also with nodes on a coarse
grid, on both hop paths. A drawn run, some of its nodes dead before it
starts, gives the same lifetimes and packet total before its series are
built as the series give. Every drawn run's per-round CSV must validate.
Drawn configs of every shape must also survive the trip through their JSON
form unchanged.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sinksim import protocols, simulation
from sinksim.energy import RadioParams
from sinksim.geometry import (CircleField, CirclePath, Point, SquareField,
                              SquarePath, StaticPath, Trajectory)
from sinksim.harness import validate_run_csv, write_run_csv
from sinksim.presets import config_from_dict, config_to_dict
from sinksim.protocols import MAX_NODES, PROTOCOLS, SEP, SRP, NetworkParams
from sinksim.simulation import MAX_ROUNDS, STOP_RULES, ScenarioConfig, Simulation, deploy

from oracles import assert_same_run, hop_spies, sep_oracle_run, stepped_run

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
    with mock.patch.object(simulation, "_CHUNK", chunk):
        sim = Simulation(cfg)
        m = sim.run()
        m.alive  # the series are built on first read, here with the patched blocks
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


@settings(derandomize=True, max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs(protocols=(SEP,)), st.data())
def test_sep_on_a_grid_matches_oracle_on_both_hop_paths(cfg, data):
    """Nodes on a coarse grid, so that hops often tie and nodes may coincide."""
    step = data.draw(st.sampled_from([10.0, 25.0, 50.0]))
    cells = st.lists(st.integers(0, int(100.0 // step)), min_size=cfg.net.n, max_size=cfg.net.n)
    xs = np.array(data.draw(cells)) * step
    ys = np.array(data.draw(cells)) * step

    def on_grid(cfg):
        state = deploy(cfg)
        state.xs, state.ys = xs.copy(), ys.copy()
        return state

    with mock.patch.object(simulation, "deploy", on_grid):
        ref, m_ref = sep_oracle_run(cfg)
        for bound in (0, MAX_NODES):  # each round's own head search, then a hop table
            with mock.patch.object(protocols, "_HOP_NODES", bound), hop_spies() as (tables, blocks):
                sim = Simulation(cfg)
                assert_same_run(sim, sim.run(), ref, m_ref)
            assert (tables == [None]) == (bound == 0) and blocks[0] == 0


def _first(mask):
    """Index of the first True in ``mask``, or None."""
    return int(mask.argmax()) if mask.any() else None


def assert_lifetimes_match_series(cfg, dead):
    """A run's lifetimes and packet total, read before its series, agree with them."""
    sim = Simulation(cfg)
    sim.state.alive[dead] = False
    m = sim.run()
    eager = (m.first_death_round, m.half_death_round, m.last_death_round, m.total_packets,
             m.rounds_executed)
    assert m._series is None  # nothing above read a series
    n, alive = cfg.net.n, m.alive
    assert eager == (_first(alive < n), _first(alive <= n // 2), _first(alive == 0),
                     int(m.cumulative_packets[-1]), len(alive))
    assert type(m.total_packets) is int


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs(), st.data())
def test_eager_lifetimes_match_series(cfg, data):
    dead = data.draw(st.lists(st.booleans(), min_size=cfg.net.n, max_size=cfg.net.n))
    assert_lifetimes_match_series(cfg, np.array(dead))


@pytest.mark.parametrize("stop_rule", STOP_RULES)
@pytest.mark.parametrize("dead", ["none", "first", "all"])
@pytest.mark.parametrize("protocol,n,max_rounds,e0", [
    ("srp", 1, 3000, 0.02), ("cl-sep", 1, 3000, 0.02), ("sep", 1, 3000, 0.02),
    ("srp", 1, 5, 0.02), ("sep", 1, 5, 0.02),  # censored
    # the first death only within 4 rounds, then all three within 40
    ("sep", protocols._HOP_NODES, 4, 1e-3), ("sep", protocols._HOP_NODES + 1, 4, 1e-3),
    ("sep", protocols._HOP_NODES + 1, 40, 1e-3)])
def test_eager_lifetimes_match_series_at_the_edges(protocol, n, max_rounds, e0, stop_rule, dead):
    """One node, censored horizons, and sep on both sides of its hop-table bound."""
    path = {SRP: Trajectory(CirclePath(CENTER, 20.0), sojourn_count=7, sensing_range=60.0,
                            r_max=500.0)}.get(protocol, Trajectory(StaticPath(CENTER)))
    cfg = ScenarioConfig(SquareField(100.0), path, protocol, net=NetworkParams(n=n, e0=e0),
                         seed=3, max_rounds=max_rounds, stop_rule=stop_rule)
    mask = np.zeros(n, dtype=bool)
    mask[{"none": slice(0), "first": slice(1), "all": slice(None)}[dead]] = True
    assert_lifetimes_match_series(cfg, mask)


@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(cfg=configs())
def test_emitted_csv_validates(cfg, tmp_path):
    path = tmp_path / "run.csv"
    write_run_csv(path, Simulation(cfg).run())
    assert validate_run_csv(path) == []


def test_failure_report_imports_under_the_warning_filters():
    """Hypothesis imports this module to report a falsifying example.

    Under ``filterwarnings = ["error"]`` a warning that the import raises
    would end the session in an INTERNALERROR, with the example unprinted.
    """
    import hypothesis.extra._patching  # noqa: F401


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def any_configs(draw):
    """A valid config of any field, path and protocol, with every field drawn."""
    if draw(st.booleans()):
        field = SquareField(draw(finite(1e-3, 1e4)))
        center = Point(field.side / 2.0, field.side / 2.0)
        half = field.side / 2.0    # the largest circle path radius
    else:
        center = Point(draw(finite(-1e3, 1e3)), draw(finite(-1e3, 1e3)))
        field = CircleField(center, draw(finite(1e-3, 1e4)))
        half = field.radius / 2.0  # keeps a square path's corners inside
    protocol = draw(st.sampled_from(PROTOCOLS))
    if protocol == SRP:
        size = half * draw(finite(0.01, 0.9))
        path = draw(st.sampled_from([SquarePath(center, 2.0 * size), CirclePath(center, size)]))
        count = draw(st.integers(1, 200))
        trajectory = Trajectory(path, sojourn_count=count,
                                sensing_range=draw(finite(1e-3, 1e4)),
                                r_max=path.length() / count * draw(finite(1.0, 4.0)))
    else:
        trajectory = Trajectory(StaticPath(center), sojourn_count=draw(st.integers(1, 200)),
                                sensing_range=draw(st.none() | finite(1e-3, 1e4)),
                                r_max=draw(finite(1e-3, 1e4)))
    net = NetworkParams(n=draw(st.integers(1, MAX_NODES)), m=draw(finite(0.0, 1.0)),
                        alpha=draw(finite(0.0, 2.0)), e0=draw(finite(1e-6, 1e3)),
                        p_opt=draw(finite(1e-3, 0.3)))
    radio = RadioParams(*(draw(finite(1e-15, 1e-6)) for _ in range(4)),
                        packet_bits=draw(st.integers(1, 10**6)))
    return ScenarioConfig(field, trajectory, protocol, net=net, radio=radio,
                          seed=draw(st.integers(-2**63, 2**63 - 1)),
                          max_rounds=draw(st.integers(1, MAX_ROUNDS)),
                          stop_rule=draw(st.sampled_from(STOP_RULES)))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(any_configs())
def test_config_round_trips_through_json(cfg):
    text = json.dumps(config_to_dict(cfg))
    back = config_from_dict(json.loads(text))
    assert back == cfg
    assert json.dumps(config_to_dict(back)) == text  # same types, not just equal values
