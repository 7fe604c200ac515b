"""Deployment, RNG streams, the round loop and its metrics contracts."""

import dataclasses
import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest

from sinksim import harness, load_preset
from sinksim.energy import RadioParams, tx_energy
from sinksim.errors import ConfigurationError
from sinksim.geometry import (CircleField, CirclePath, Point, SquareField,
                              StaticPath, Trajectory, distance)
from sinksim.presets import PRESET_NAMES, config_to_dict
from sinksim import simulation
from sinksim.protocols import MAX_NODES, MAX_TOTAL_ENERGY, NetworkParams, NodeState
from sinksim.simulation import (ScenarioConfig, Simulation, deploy, reach,
                                rng_stream, run)

from oracles import deploy as deploy_oracle
from oracles import reach as reach_oracle
from oracles import srp_round


def static_cfg(protocol="cl-sep", **kw):
    defaults = dict(
        field=SquareField(100.0),
        trajectory=Trajectory(StaticPath(Point(50.0, 50.0))),
        protocol=protocol,
        net=NetworkParams(),
        radio=RadioParams(),
        seed=1,
        max_rounds=100,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestRngStream:
    def test_same_seed_label_identical(self):
        a = rng_stream(123, "deploy").random(100)
        b = rng_stream(123, "deploy").random(100)
        assert (a == b).all()

    def test_labels_independent(self):
        a = rng_stream(123, "deploy").random(100)
        b = rng_stream(123, "election").random(100)
        assert not (a == b).all()

    def test_seeds_differ(self):
        a = rng_stream(1, "deploy").random(100)
        b = rng_stream(2, "deploy").random(100)
        assert not (a == b).all()

    def test_uniform_range(self):
        draws = rng_stream(9, "x").random(1000)
        assert ((draws >= 0.0) & (draws < 1.0)).all()

    def test_negative_seed_accepted(self):
        assert rng_stream(-5, "deploy").random() is not None


class TestDeploy:
    def test_total_initial_energy(self):
        cfg = static_cfg()
        state = deploy(cfg)
        total = sum(state.energy.tolist())
        assert total == pytest.approx(100 * 0.5 * (1 + 1.0 * 0.1), rel=1e-12)  # 55 J
        assert cfg.net.total_initial_energy == pytest.approx(total, rel=1e-12)

    def test_total_initial_energy_capped(self):
        e0 = MAX_TOTAL_ENERGY / (1.1 * MAX_NODES)  # 10 % advanced nodes at 2 * e0
        with pytest.raises(ConfigurationError, match="total initial energy"):
            NetworkParams(n=MAX_NODES, e0=1.01 * e0)
        with pytest.raises(ConfigurationError, match="total initial energy"):
            NetworkParams(e0=1e308)  # the total overflows to inf
        with pytest.raises(ConfigurationError, match="total initial energy"):
            # No advanced node, but e0 * (1 + alpha) overflows and 0 * inf is nan.
            NetworkParams(m=0.001, alpha=1e12, e0=1e297, p_opt=1e-5)
        m = run(static_cfg(net=NetworkParams(n=MAX_NODES, e0=0.99 * e0), max_rounds=3))
        assert m.initial_energy_j <= MAX_TOTAL_ENERGY
        assert np.isfinite(m.residual_j).all()

    def test_advanced_count_and_energy(self):
        state = deploy(static_cfg())
        advanced = state.energy[state.is_advanced]
        assert len(advanced) == 10
        assert (advanced == 1.0).all()

    def test_all_normal_when_m_zero(self):
        cfg = static_cfg(net=NetworkParams(m=0.0))
        state = deploy(cfg)
        assert not state.is_advanced.any()
        assert sum(state.energy.tolist()) == pytest.approx(50.0)

    def test_same_seed_bit_identical(self):
        cfg = static_cfg()
        a = deploy(cfg)
        b = deploy(cfg)
        for name in ("xs", "ys", "is_advanced", "energy"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_positions_inside_square(self):
        state = deploy(static_cfg(seed=77))
        assert all(0 <= x <= 100 and 0 <= y <= 100
                   for x, y in zip(state.xs.tolist(), state.ys.tolist()))

    def test_positions_inside_circle(self):
        field = CircleField(Point(50.0, 50.0), 50.0)
        cfg = static_cfg(field=field, seed=3)
        state = deploy(cfg)
        assert all(field.contains(Point(x, y))
                   for x, y in zip(state.xs.tolist(), state.ys.tolist()))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_matches_scalar_oracle(self, name):
        # the array draws give the scalar loop's positions bit for bit and
        # leave the stream where it did, so the advanced-node shuffle agrees
        base = load_preset(name)
        for n in (1, 7, 100, 1000):
            for seed in (0, 1, 2, -5, 2**62):
                cfg = dataclasses.replace(base, seed=seed,
                                          net=dataclasses.replace(base.net, n=n))
                assert_same_deployment(deploy(cfg), deploy_oracle(cfg))

    @pytest.mark.parametrize("field", [
        CircleField(Point(0.0, 0.0), 1.0),
        CircleField(Point(-3.25, 1e3), 1e-3),
        CircleField(Point(1e6, -2e5), 12345.678),
        CircleField(Point(0.1, 0.7), 1e-9),
        CircleField(Point(50.0, 50.0), 1e7),
    ])
    def test_disk_matches_scalar_oracle(self, field):
        for seed in (0, 3, -5, 2**62):
            cfg = static_cfg(field=field, trajectory=Trajectory(StaticPath(field.center)),
                             seed=seed, net=NetworkParams(n=257, m=0.3))
            assert_same_deployment(deploy(cfg), deploy_oracle(cfg))

    def test_total_energy_is_sequential_sum(self):
        # a compensated sum (Python 3.12's builtin sum()) gives 11.0 here
        cfg = load_preset("sc40-srp")
        cfg = dataclasses.replace(cfg, net=dataclasses.replace(cfg.net, e0=0.1))
        state = deploy(cfg)
        acc = 0.0
        for e in state.energy.tolist():
            acc += e
        assert state.total_energy() == acc == 10.99999999999998

    def test_ids_sequential(self):
        # node i is index i of every per-node array
        state = deploy(static_cfg())
        arrays = (state.xs, state.ys, state.is_advanced, state.energy,
                  state.alive, state.in_set_g, state.packets_sent)
        assert [len(a) for a in arrays] == [100] * len(arrays)
        assert state.n == 100


def assert_same_deployment(a, b):
    for name in ("xs", "ys", "is_advanced", "energy"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


class TestConfigValidation:
    def test_srp_requires_moving_trajectory(self):
        with pytest.raises(ConfigurationError):
            static_cfg(protocol="srp")

    def test_static_protocols_reject_moving_trajectory(self):
        moving = Trajectory(CirclePath(Point(50, 50), 20.0), sojourn_count=360,
                            sensing_range=51.0)
        with pytest.raises(ConfigurationError):
            static_cfg(protocol="sep", trajectory=moving)

    def test_srp_requires_sensing_range(self):
        moving = Trajectory(CirclePath(Point(50, 50), 20.0), sojourn_count=360)
        with pytest.raises(ConfigurationError):
            static_cfg(protocol="srp", trajectory=moving)

    def test_trajectory_must_fit_field(self):
        too_big = Trajectory(CirclePath(Point(50, 50), 60.0), sojourn_count=360,
                             sensing_range=10.0)
        with pytest.raises(ConfigurationError):
            static_cfg(protocol="srp", trajectory=too_big)

    @pytest.mark.parametrize("radius", [1.0, 7.3, 50.0, 1234.5])
    @pytest.mark.parametrize("count", [37, 100, 360, 1000])
    def test_tour_on_disk_rim_accepted(self, count, radius):
        """A circle tour as wide as its disk field lies in it, boundary inclusive.

        Its rounded sojourn points may fall an ulp outside the rim; the
        exact path test alone decides.
        """
        center = Point(50.0, 50.0)
        rim = Trajectory(CirclePath(center, radius), sojourn_count=count,
                         sensing_range=radius, r_max=2.0 * math.pi * radius)
        static_cfg(protocol="srp", field=CircleField(center, radius), trajectory=rim)

    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            static_cfg(protocol="leach")

    def test_bad_stop_rule(self):
        with pytest.raises(ConfigurationError):
            static_cfg(stop_rule="until_bored")

    @pytest.mark.parametrize("field,d", [
        (SquareField(100.0), distance(Point(0.0, 0.0), Point(100.0, 100.0))),
        (CircleField(Point(50.0, 50.0), 50.0), 100.0),
    ], ids=["square", "circle"])
    @pytest.mark.parametrize("protocol", ["cl-sep", "sep"])
    def test_dearest_transmission_capped(self, protocol, field, d):
        """A hop across the field, the dearest a run can price, may cost at most the cap."""
        eps_mp = MAX_TOTAL_ENERGY / (RadioParams().packet_bits * d**4)  # the d^4 term alone
        with pytest.raises(ConfigurationError, match="across the field"):
            static_cfg(protocol, field=field, radio=RadioParams(eps_mp=1.01 * eps_mp))
        m = run(static_cfg(protocol, field=field, radio=RadioParams(eps_mp=0.99 * eps_mp),
                           max_rounds=3))
        assert np.isfinite(m.residual_j).all() and m.alive[-1] == 0

    @pytest.mark.parametrize("protocol", ["cl-sep", "sep"])
    def test_dearest_forward_capped(self, protocol):
        """A sep head's aggregation of all n packets, with its hop across the field,
        may cost at most the cap; every protocol is checked."""
        radio, n = RadioParams(), NetworkParams().n
        e_da = MAX_TOTAL_ENERGY / (radio.packet_bits * n)  # the aggregation alone
        with pytest.raises(ConfigurationError, match="forward of n packets"):
            static_cfg(protocol, radio=RadioParams(e_da=1.01 * e_da))
        m = run(static_cfg(protocol, radio=RadioParams(e_da=0.99 * e_da), max_rounds=3))
        assert np.isfinite(m.residual_j).all()
        assert (m.alive[0] < n) == (protocol == "sep")  # sep's heads die forwarding


class TestRun:
    def test_single_node_at_sink_dies_at_2500(self):
        # place the static sink exactly on the deployed node's position
        probe = static_cfg(net=NetworkParams(n=1, m=0.0), max_rounds=10)
        state = deploy(probe)
        pos = Point(float(state.xs[0]), float(state.ys[0]))
        cfg = dataclasses.replace(
            probe, trajectory=Trajectory(StaticPath(pos)), max_rounds=3000,
            stop_rule="all_dead")
        metrics = run(cfg)
        assert metrics.first_death_round == 2500
        assert metrics.half_death_round == 2500
        assert metrics.last_death_round == 2500
        assert metrics.total_packets == 2500

    def test_srp_nobody_in_range(self):
        traj = Trajectory(CirclePath(Point(50, 50), 20.0), sojourn_count=360,
                          sensing_range=1e-9)
        cfg = static_cfg(protocol="srp", trajectory=traj, max_rounds=200)
        metrics = run(cfg)
        assert metrics.alive[-1] == 100
        assert metrics.total_packets == 0
        assert metrics.first_death_round is None

    def test_same_seed_identical_metrics(self):
        cfg = load_preset("sc20-srp", seed=4, max_rounds=2000)
        a, b = run(cfg), run(cfg)
        assert a == b

    def test_monotonicity_triple(self):
        for name in ("sep", "cl-sep", "ss-srp"):
            m = run(load_preset(name, seed=2, max_rounds=1500))
            assert all(x >= y for x, y in zip(m.alive, m.alive[1:]))
            assert all(x <= y for x, y in zip(m.cumulative_packets, m.cumulative_packets[1:]))
            assert all(x >= y for x, y in zip(m.residual_j, m.residual_j[1:]))

    def test_residual_is_exact_fold_of_costs(self):
        m = run(load_preset("cl-sep", seed=6, max_rounds=1200))
        acc = m.initial_energy_j
        for cost, res in zip(m.round_cost_j, m.residual_j):
            acc = acc - cost
            assert acc == res  # bitwise: the series is defined by this fold

    def test_reported_costs_match_node_energies(self):
        cfg = load_preset("sep", seed=8, max_rounds=2000)
        sim = Simulation(cfg)
        metrics = sim.run()
        spent = metrics.initial_energy_j - sim.state.total_energy()
        assert spent == pytest.approx(sum(metrics.round_cost_j), abs=1e-9)
        assert metrics.final_residual_j == pytest.approx(sim.state.total_energy(), abs=1e-9)

    def test_stop_rule_all_dead_stops_early(self):
        cfg = load_preset("cl-sep", seed=1, max_rounds=50_000)
        cfg = dataclasses.replace(cfg, stop_rule="all_dead")
        m = run(cfg)
        assert m.alive[-1] == 0
        assert m.rounds_executed == m.last_death_round + 1
        assert m.rounds_executed < 50_000

    def test_stop_rule_max_rounds_runs_full_horizon(self):
        m = run(load_preset("cl-sep", seed=1, max_rounds=6000))
        assert m.rounds_executed == 6000
        assert m.alive[-1] == 0  # network long dead, rows keep going

    def test_half_death_definition(self):
        m = run(load_preset("cl-sep", seed=1, max_rounds=6000))
        n = m.n
        first_le_half = next(r for r, a in enumerate(m.alive) if a <= n // 2)
        assert m.half_death_round == first_le_half
        assert m.first_death_round <= m.half_death_round <= m.last_death_round

    @pytest.mark.parametrize("name", ["sep", "cl-sep", "sc10-srp"])
    def test_simulation_runs_once(self, name):
        """Rounds step once each, in order, below max_rounds; run() needs a fresh Simulation."""
        cfg = load_preset(name, seed=0, max_rounds=3)
        sim = Simulation(cfg)
        with pytest.raises(RuntimeError, match="next is 0"):
            sim.step(1)
        sim.step(0)
        energy = sim.state.energy.copy()
        for bad in (0, 2):
            with pytest.raises(RuntimeError, match="next is 1"):
                sim.step(bad)
        with pytest.raises(RuntimeError, match="runs once"):
            sim.run()
        np.testing.assert_array_equal(sim.state.energy, energy)  # refused calls change nothing
        sim.step(1)
        sim.step(2)
        with pytest.raises(RuntimeError, match="rounds 0 to 2"):
            sim.step(3)

        ran = Simulation(cfg)
        assert ran.run() == run(cfg)
        with pytest.raises(RuntimeError, match="runs once"):
            ran.run()
        with pytest.raises(RuntimeError):
            ran.step(0)

    def test_deaths_match_alive_series(self):
        cfg = load_preset("sc10-srp", seed=0, max_rounds=3000)
        sim = Simulation(cfg)
        m = sim.run()
        assert m.alive[-1] == sim.state.alive_count()

    def test_cl_sep_death_rounds_match_floor_oracle_full_deployment(self):
        # every node's simulated death round equals floor(e_init / per-round cost)
        cfg = load_preset("cl-sep", seed=11, max_rounds=6000)
        sim = Simulation(cfg)
        sink = Point(50.0, 50.0)
        state = sim.state
        expect = [int(e // tx_energy(cfg.radio, cfg.radio.packet_bits,
                                     distance(Point(x, y), sink)))
                  for x, y, e in zip(state.xs.tolist(), state.ys.tolist(),
                                     state.energy.tolist())]
        deaths = [None] * cfg.net.n
        for r in range(cfg.max_rounds):
            sim.step(r)
            for i in range(cfg.net.n):
                if deaths[i] is None and not sim.state.alive[i]:
                    deaths[i] = r
            if not sim.state.alive.any():
                break
        assert deaths == expect


    @pytest.mark.parametrize("name", ("sep", "cl-sep"))
    def test_static_sink_ignores_sensing_range(self, name):
        # a static sink reaches every node, whatever sensing_range says
        cfg = load_preset(name, seed=2, max_rounds=3000)
        gated = dataclasses.replace(
            cfg, trajectory=dataclasses.replace(cfg.trajectory, sensing_range=10.0))
        assert run(gated) == run(cfg)

    @pytest.mark.parametrize("name", ("sep", "cl-sep"))
    @pytest.mark.parametrize("sensing_range", (None, 10.0))
    def test_static_sink_table_is_one_slot_of_every_id(self, name, sensing_range):
        # sep indexes the table's costs by node id for its head uplinks, and
        # its no-head fallback pairs them with arange(n)
        cfg = load_preset(name, seed=2, max_rounds=10)
        cfg = dataclasses.replace(
            cfg, trajectory=dataclasses.replace(cfg.trajectory, sensing_range=sensing_range))
        sim = Simulation(cfg)
        assert sim._S == 1
        assert sim._offsets.tolist() == list(range(cfg.net.n + 1))  # one entry per node
        assert sim._id.tolist() == list(range(cfg.net.n))
        assert not sim._slot.any()


SRP_PRESETS = [name for name in PRESET_NAMES if name.endswith("-srp")]


class TestDeferredSeries:
    """A run leaves its per-round series to their first read."""

    def test_compare_and_sweep_build_no_series(self, tmp_path):
        tiny = {name: config_to_dict(load_preset(name, max_rounds=600))
                for name in ("cl-sep", "sc20-srp", "sep")}
        with mock.patch.object(simulation, "_fold", wraps=simulation._fold) as fold, \
                mock.patch.object(simulation, "_sep_rounds", wraps=simulation._sep_rounds) as pad:
            harness.compare_scenarios(tiny, seed_count=2)
            harness.sweep_radius(config_to_dict(load_preset("cc-srp", max_rounds=600)),
                                 [20.0, 25.0], seed_count=2)
            assert (fold.call_count, pad.call_count) == (0, 0)
            harness.simulate_to_files(load_preset("sc20-srp", max_rounds=600), tmp_path / "a.csv")
            assert (fold.call_count, pad.call_count) == (1, 0)
            harness.simulate_to_files(load_preset("sep", max_rounds=600), tmp_path / "b.csv")
            assert (fold.call_count, pad.call_count) == (1, 1)

    def test_only_steps_take_the_table_by_slot(self, tmp_path):
        # the node folds and the series read the table in its node-major order
        tiny = {name: config_to_dict(load_preset(name, max_rounds=600))
                for name in ("cl-sep", "sc20-srp", "sep")}
        with mock.patch.object(simulation, "_by_slot", side_effect=AssertionError("by slot")):
            harness.compare_scenarios(tiny, seed_count=2)
            harness.sweep_radius(config_to_dict(load_preset("cc-srp", max_rounds=600)),
                                 [20.0, 25.0], seed_count=2)
            for i, name in enumerate(("sc20-srp", "cl-sep", "sep")):
                harness.simulate_to_files(load_preset(name, max_rounds=600), tmp_path / f"{i}.csv")
        with mock.patch.object(simulation, "_by_slot", wraps=simulation._by_slot) as by_slot:
            sim = Simulation(load_preset("sc20-srp", max_rounds=600))
            for r in range(400):  # past the tour's end, so slots repeat
                sim.step(r)
            assert by_slot.call_count == 1

    @pytest.mark.parametrize("name", ["sc10-srp", "cl-sep", "sep"])
    def test_first_read_releases_the_run(self, name):
        sim = Simulation(load_preset(name, seed=2, max_rounds=3000))
        table, whole = weakref.ref(sim._cost), weakref.ref(sim)
        m = sim.run()
        del sim
        gc.collect()
        assert whole() is None  # the metrics never hold the Simulation or its state
        assert (table() is None) == (name == "sep")  # srp and cl-sep hold the table to fold
        assert m.rounds_executed == 3000 and m._series is None
        series = (m.alive, m.residual_j, m.cumulative_packets, m.round_cost_j)
        gc.collect()
        assert table() is None and m._pending is None
        assert all(a is b for a, b in
                   zip(series, (m.alive, m.residual_j, m.cumulative_packets, m.round_cost_j)))


def srp_reference(cfg):
    """``cfg``'s node state and per-round series, stepped with the oracle ``srp_round``."""
    sim = Simulation(cfg)  # drive the reference engine by hand
    residual = sim.state.total_energy()
    cum = 0
    series = {"residual_j": [], "cumulative_packets": [], "alive": [], "round_cost_j": []}
    for r in range(cfg.max_rounds):
        out = srp_round(sim.state, cfg.trajectory, r, cfg.radio)
        residual -= out.cost
        cum += out.packets
        series["residual_j"].append(residual)
        series["cumulative_packets"].append(cum)
        series["alive"].append(sim.state.alive_count())
        series["round_cost_j"].append(out.cost)
    return sim.state, series


class TestSrpFastPath:
    @pytest.mark.parametrize("name", SRP_PRESETS)
    def test_bitwise_equivalent_to_reference_engine(self, name):
        cfg = load_preset(name, seed=3, max_rounds=6000)
        fast = run(cfg)
        _, ref = srp_reference(cfg)
        for series, values in ref.items():
            assert getattr(fast, series).tolist() == values, series
        assert ref["alive"][-1] < 100  # the window covered real deaths

    @pytest.mark.parametrize("max_rounds", (1, 7, 359))
    def test_short_run_builds_only_visited_slots(self, max_rounds):
        # a run shorter than the 360-point tour gets one slot per round it
        # plays, and still plays every round as the oracle does
        cfg = load_preset("sc40-srp", seed=3, max_rounds=max_rounds)
        cfg = dataclasses.replace(cfg, net=dataclasses.replace(cfg.net, e0=1e-3))
        sim = Simulation(cfg)
        assert sim._S == max_rounds < cfg.trajectory.sojourn_count
        assert sim._slot.max() < max_rounds
        fast = sim.run()
        state, ref = srp_reference(cfg)
        for series, values in ref.items():
            assert getattr(fast, series).tolist() == values, series
        for name in ("energy", "alive", "packets_sent"):
            assert getattr(sim.state, name).tobytes() == getattr(state, name).tobytes(), name
        # the window covers real deaths, except round 0, which every node can pay
        assert (ref["alive"][-1] < cfg.net.n) == (max_rounds > 1)


def table_args(cfg):
    """``reach``'s arguments as ``Simulation`` passes them for ``cfg``."""
    traj = cfg.trajectory
    return (deploy(cfg), cfg.radio, traj.points[:cfg.max_rounds],
            None if traj.is_static else traj.sensing_range)


def assert_same_table(got, want):
    for name, a, b in zip(("slot", "id", "cost", "offsets"), got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


CAP_MESSAGE = ("the reach table needs more than {} entries; "
               "lower max_rounds, sojourn_count, n or sensing_range")


class TestReach:
    """The blocked reach table against the point-by-point oracle, bit for bit."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, name):
        args = table_args(load_preset(name, seed=4))
        assert_same_table(reach(*args), reach_oracle(*args))

    def test_disk_field(self):
        field = CircleField(Point(50.0, 50.0), 50.0)
        traj = Trajectory(CirclePath(Point(50.0, 50.0), 30.0), sojourn_count=100,
                          sensing_range=17.5, r_max=5.0)
        cfg = ScenarioConfig(field, traj, "srp", net=NetworkParams(n=700), seed=9)
        args = table_args(cfg)
        assert_same_table(reach(*args), reach_oracle(*args))

    def test_one_node_per_block_above_chunk(self, monkeypatch):
        # more points than _CHUNK elements: each block is one node's row
        n = 50
        rng = np.random.default_rng(5)
        state = NodeState(rng.uniform(0, 100, n), rng.uniform(0, 100, n),
                          np.zeros(n, dtype=bool), np.full(n, 0.5))
        points = [Point(50.0, 50.0), Point(0.0, 0.0), Point(99.0, 20.0)]
        monkeypatch.setattr(simulation, "_CHUNK", 2)
        for sensing_range in (None, 40.0, 0.1):
            got = reach(state, RadioParams(), points, sensing_range)
            assert_same_table(got, reach_oracle(state, RadioParams(), points, sensing_range))

    def test_node_at_sensing_range_is_in_range(self):
        # node 1 is exactly 30 m from the first point, node 2 one ulp farther
        xs = np.array([50.0, 80.0, np.nextafter(80.0, np.inf), 20.0])
        state = NodeState(xs, np.full(4, 50.0), np.zeros(4, dtype=bool), np.full(4, 0.5))
        points = [Point(50.0, 50.0), Point(50.0, 80.0)]
        got = reach(state, RadioParams(), points, 30.0)
        assert_same_table(got, reach_oracle(state, RadioParams(), points, 30.0))
        assert got[1][got[0] == 0].tolist() == [0, 1, 3]

    def test_partial_last_block_and_cap(self, monkeypatch):
        # 7 points of 3000 nodes: a block of 2340 nodes, then a block of 660
        assert simulation._CHUNK // 7 == 2340
        cfg = load_preset("sc20-srp", seed=1, max_rounds=7)
        args = table_args(dataclasses.replace(cfg, net=dataclasses.replace(cfg.net, n=3000)))
        offsets = reach_oracle(*args)[3]
        total = int(offsets[-1])
        first_block = int(offsets[2340])
        assert 0 < first_block < total
        monkeypatch.setattr(simulation, "MAX_REACH_ENTRIES", total)
        assert_same_table(reach(*args), reach_oracle(*args))
        # over the cap in the second block, then already in the first
        for cap in (total - 1, first_block - 1):
            monkeypatch.setattr(simulation, "MAX_REACH_ENTRIES", cap)
            with pytest.raises(ConfigurationError) as err:
                reach(*args)
            assert str(err.value) == CAP_MESSAGE.format(cap)
