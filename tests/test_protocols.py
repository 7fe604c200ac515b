"""Protocol engines: election math, per-round traces, death-rule invariants."""

import math
from unittest import mock

import numpy as np
import pytest

from sinksim.energy import (RadioParams, aggregation_energy, rx_energy,
                            tx_energy)
from sinksim.geometry import CirclePath, Point, Trajectory
from sinksim.protocols import (ADVANCED, NORMAL, HopTable, NetworkParams,
                               NodeState, ch_probability, direct_round,
                               election_threshold, sep_round)
from sinksim.simulation import reach

from oracles import srp_round

RADIO = RadioParams()
NET = NetworkParams()
K = RADIO.packet_bits
SINK = Point(50.0, 50.0)


def make_state(positions, energies=None, kinds=None):
    n = len(positions)
    energies = energies or [0.5] * n
    kinds = kinds or [NORMAL] * n
    return NodeState(np.array([x for x, _ in positions], dtype=np.float64),
                     np.array([y for _, y in positions], dtype=np.float64),
                     np.array([k == ADVANCED for k in kinds], dtype=bool),
                     np.array(energies, dtype=np.float64))


def static_slot(state, radio=RADIO, sink=SINK):
    """The static sink's one reach slot: every node in id order, with its cost to ``sink``."""
    _, ids, costs, _ = reach(state, radio, [sink], None)
    return ids, costs


def uplink(state, radio=RADIO, sink=SINK):
    """Every node's direct cost to ``sink``, indexed by id."""
    return static_slot(state, radio, sink)[1]


class StubRng:
    """Deterministic stand-in for the election stream."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        return np.array((self.values * n)[:n], dtype=np.float64)


class TestChProbability:
    def test_normal_nodes(self):
        assert ch_probability(NET, NORMAL) == pytest.approx(0.1 / 1.1, rel=1e-12)

    def test_advanced_nodes(self):
        assert ch_probability(NET, ADVANCED) == pytest.approx(0.2 / 1.1, rel=1e-12)

    def test_homogeneous_degenerate(self):
        net = NetworkParams(alpha=0.0)
        assert ch_probability(net, NORMAL) == pytest.approx(0.1)
        assert ch_probability(net, ADVANCED) == pytest.approx(0.1)

    def test_population_weighted_mean_is_p_opt(self):
        for m, alpha in ((0.1, 1.0), (0.2, 2.0), (0.3, 0.5)):
            net = NetworkParams(m=m, alpha=alpha)
            mean = (1 - m) * ch_probability(net, NORMAL) + m * ch_probability(net, ADVANCED)
            assert mean == pytest.approx(net.p_opt, rel=1e-12)

    def test_advanced_strictly_higher_when_alpha_positive(self):
        for alpha in (0.5, 1.0, 3.0):
            net = NetworkParams(alpha=alpha)
            assert ch_probability(net, ADVANCED) > ch_probability(net, NORMAL)


class TestElectionThreshold:
    def test_epoch_start(self):
        assert election_threshold(0.1, 0) == pytest.approx(0.1)
        assert election_threshold(0.1, 10) == pytest.approx(0.1)

    def test_mid_epoch(self):
        assert election_threshold(0.1, 5) == pytest.approx(0.2)

    def test_last_slot_reaches_one(self):
        # every eligible node must elect by the end of its epoch
        for p in (0.1, 1 / 11, 0.2 / 1.1, 0.15):
            epoch = math.ceil(1.0 / p)
            assert election_threshold(p, epoch - 1) == pytest.approx(1.0)

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            election_threshold(0.0, 0)
        with pytest.raises(ValueError):
            election_threshold(1.0, 0)

    def test_exactly_once_per_epoch(self):
        # threshold + set-G bookkeeping elect each node exactly once per epoch
        rng = np.random.default_rng(3)
        p = 1 / 11
        epoch = math.ceil(1 / p)
        for _ in range(50):
            in_g = True
            elections = 0
            for slot in range(epoch):
                t = election_threshold(p, slot) if in_g else 0.0
                if rng.random() < t:
                    elections += 1
                    in_g = False
            assert elections == 1


class TestSepRound:
    """The StubRng cases, each round pricing its member hops afresh."""

    def step(self, state, r, net, radio, uplink, rng):
        return sep_round(state, r, net, radio, uplink, rng)

    def test_single_node_forced_head_dies_at_2272(self):
        # per-round cost = aggregation(K, 1) + tx(K, 0); 0.5 J covers 2272 rounds
        state = make_state([(50.0, 50.0)])
        rng = StubRng([0.0])
        per_round = aggregation_energy(RADIO, K, 1) + tx_energy(RADIO, K, 0.0)
        expect = int(0.5 // per_round)
        assert expect == 2272
        costs = uplink(state)
        r = 0
        while state.alive[0]:
            state.in_set_g[0] = True  # keep it eligible every round
            self.step(state, r, NET, RADIO, costs, rng)
            r += 1
        assert r - 1 == expect
        assert float(state.energy[0]) >= 0.0

    def test_two_node_trace(self):
        # node 1 elects, node 0 joins it at 30 m, head is 10 m from the sink
        state = make_state([(30.0, 50.0), (60.0, 50.0)])
        rng = StubRng([0.99, 0.0])
        out = self.step(state, 0, NET, RADIO, uplink(state), rng)
        member_cost = tx_energy(RADIO, K, 30.0)
        head_cost = rx_energy(RADIO, K) + aggregation_energy(RADIO, K, 2) + tx_energy(RADIO, K, 10.0)
        assert out.cluster_heads == 1
        assert out.packets == 1
        assert out.cost == pytest.approx(member_cost + head_cost, rel=1e-15)
        assert float(state.energy[0]) == pytest.approx(0.5 - member_cost, rel=1e-15)
        assert float(state.energy[1]) == pytest.approx(0.5 - head_cost, rel=1e-15)
        assert state.packets_sent.tolist() == [1, 1]

    def test_no_heads_falls_back_to_direct(self):
        state = make_state([(40.0, 50.0), (70.0, 50.0)])
        rng = StubRng([0.999])  # nobody clears the threshold
        out = self.step(state, 0, NET, RADIO, uplink(state), rng)
        assert out.cluster_heads == 0
        assert out.packets == 2
        expect = tx_energy(RADIO, K, 10.0) + tx_energy(RADIO, K, 20.0)
        assert out.cost == pytest.approx(expect, rel=1e-15)

    def test_all_dead_is_empty(self):
        state = make_state([(10.0, 10.0)])
        state.alive[0] = False
        out = self.step(state, 0, NET, RADIO, uplink(state), StubRng([0.0]))
        assert out.packets == 0 and out.cost == 0.0 and out.cluster_heads == 0

    def test_members_join_nearest_head(self):
        # heads at x=20 and x=80; member at x=30 must pay for the 10 m hop
        state = make_state([(20.0, 50.0), (80.0, 50.0), (30.0, 50.0)])
        rng = StubRng([0.0, 0.0, 0.99])
        before_far = float(state.energy[1])
        out = self.step(state, 0, NET, RADIO, uplink(state), rng)
        assert out.cluster_heads == 2
        member_cost = tx_energy(RADIO, K, 10.0)
        assert float(state.energy[2]) == pytest.approx(0.5 - member_cost, rel=1e-15)
        # far head received nothing: only its own aggregation + uplink
        own = aggregation_energy(RADIO, K, 1) + tx_energy(RADIO, K, 30.0)
        assert float(state.energy[1]) == pytest.approx(before_far - own, rel=1e-15)

    def test_tie_goes_to_lowest_head_id(self):
        # the member at (50, 50) is exactly 10 m from both heads
        state = make_state([(40.0, 50.0), (50.0, 50.0), (60.0, 50.0)])
        rng = StubRng([0.0, 0.99, 0.0])
        out = self.step(state, 0, NET, RADIO, uplink(state), rng)
        assert out.cluster_heads == 2
        uplink_cost = tx_energy(RADIO, K, 10.0)
        low = rx_energy(RADIO, K) + aggregation_energy(RADIO, K, 2) + uplink_cost
        high = aggregation_energy(RADIO, K, 1) + uplink_cost
        assert float(state.energy[0]) == pytest.approx(0.5 - low, rel=1e-15)
        assert float(state.energy[2]) == pytest.approx(0.5 - high, rel=1e-15)
        assert float(state.energy[1]) == pytest.approx(0.5 - uplink_cost, rel=1e-15)

    def test_nearest_head_is_by_distance_not_by_cost(self):
        # head 2 is one ulp nearer than head 1, and both hops cost the same bits
        x2 = float(np.nextafter(40.0, 50.0))
        state = make_state([(50.0, 50.0), (60.0, 50.0), (x2, 50.0)])
        assert tx_energy(RADIO, K, 50.0 - x2) == tx_energy(RADIO, K, 10.0)
        rng = StubRng([0.99, 0.0, 0.0])
        self.step(state, 0, NET, RADIO, uplink(state), rng)
        own = aggregation_energy(RADIO, K, 1)
        far = own + tx_energy(RADIO, K, 10.0)
        near = rx_energy(RADIO, K) + 2 * own + tx_energy(RADIO, K, 50.0 - x2)
        assert float(state.energy[1]) == pytest.approx(0.5 - far, rel=1e-15)
        assert float(state.energy[2]) == pytest.approx(0.5 - near, rel=1e-15)

    def test_head_election_consumes_eligibility(self):
        state = make_state([(50.0, 50.0)])
        rng = StubRng([0.0])
        self.step(state, 0, NET, RADIO, uplink(state), rng)
        assert not bool(state.in_set_g[0])

    def test_mean_heads_near_n_p_opt(self):
        from sinksim.simulation import deploy, rng_stream
        from sinksim import load_preset
        cfg = load_preset("sep", seed=42)
        state = deploy(cfg)
        rng = rng_stream(42, "election")
        epoch = math.ceil(1 / cfg.net.p_opt)
        costs = uplink(state, cfg.radio)
        counts = [self.step(state, r, cfg.net, cfg.radio, costs, rng).cluster_heads
                  for r in range(20 * epoch)]
        sigma = math.sqrt(cfg.net.n * cfg.net.p_opt * (1 - cfg.net.p_opt) / epoch)
        for e in range(20):
            mean = sum(counts[e * epoch:(e + 1) * epoch]) / epoch
            assert abs(mean - cfg.net.n * cfg.net.p_opt) <= 3 * sigma


class TestSepRoundHopTable(TestSepRound):
    """The same cases with member hops read from one HopTable per state."""

    def setup_method(self):
        self.tables = {}

    def step(self, state, r, net, radio, uplink, rng):
        if id(state) not in self.tables:
            self.tables[id(state)] = HopTable(state.n)
        return sep_round(state, r, net, radio, uplink, rng, self.tables[id(state)])


class TestHopTable:
    def test_rows_hold_the_block_bits_and_are_priced_once(self):
        # a 3 x 3 grid with one node doubled: many hops tie, one is 0 m long
        positions = [(20.0 * (i % 3), 20.0 * (i // 3)) for i in range(9)] + [(20.0, 20.0)]
        state = make_state(positions)
        hops = HopTable(state.n)
        with mock.patch("sinksim.protocols.tx_energy", wraps=tx_energy) as priced:
            assert hops.rows_of(state, RADIO, np.array([4, 9])).tolist() == [0, 1]
            assert hops.rows_of(state, RADIO, np.array([0, 4, 9])).tolist() == [2, 0, 1]
            assert hops.rows_of(state, RADIO, np.array([0, 9])).tolist() == [2, 1]
        assert hops.rows == 3 and priced.call_count == 2
        members = np.arange(state.n)
        for head in (0, 4, 9):
            # a round's own block: members x one head
            dx = state.xs[members, None] - state.xs[None, [head]]
            dy = state.ys[members, None] - state.ys[None, [head]]
            d = np.sqrt(dx * dx + dy * dy)[:, 0]
            row = hops.row[head]
            assert hops.d[row].tobytes() == d.tobytes()
            assert hops.tx[row].tobytes() == tx_energy(RADIO, K, d).tobytes()


class TestClSepRound:
    def test_node_at_sink_dies_at_2500(self):
        state = make_state([(50.0, 50.0)])
        slot = static_slot(state)
        r = 0
        while state.alive[0]:
            direct_round(state, *slot)
            r += 1
        assert r - 1 == 2500
        assert int(state.packets_sent[0]) == 2500

    def test_node_at_100m_dies_at_694(self):
        state = make_state([(150.0, 50.0)])
        slot = static_slot(state)
        r = 0
        while state.alive[0]:
            direct_round(state, *slot)
            r += 1
        assert r - 1 == 694

    def test_all_dead_zero_cost(self):
        state = make_state([(10.0, 10.0), (20.0, 20.0)])
        state.alive[:] = False
        out = direct_round(state, *static_slot(state))
        assert out.packets == 0 and out.cost == 0.0

    def test_rounds_to_death_matches_floor_oracle(self):
        # analytic floor(e / cost) against the simulated death round, per node
        from sinksim.geometry import distance
        positions = [(50.0, 50.0), (12.0, 81.0), (99.0, 1.0), (50.0, 95.5)]
        energies = [0.5, 0.5, 1.0, 0.25]
        state = make_state(positions, energies=energies)
        expect = [int(e // tx_energy(RADIO, K, distance(Point(*p), SINK)))
                  for p, e in zip(positions, energies)]
        deaths = [None] * len(positions)
        slot = static_slot(state)
        r = 0
        while state.alive.any():
            direct_round(state, *slot)
            for i in range(len(positions)):
                if deaths[i] is None and not state.alive[i]:
                    deaths[i] = r
            r += 1
        assert deaths == expect


class TestSrpRound:
    def traj(self, sensing, count=4):
        return Trajectory(CirclePath(SINK, 40.0), sojourn_count=count,
                          sensing_range=sensing, r_max=100.0)

    def test_node_on_sojourn_point_transmits_at_zero_distance(self):
        state = make_state([(90.0, 50.0)])
        out = srp_round(state, self.traj(sensing=5.0), 0, RADIO)
        assert out.packets == 1
        assert out.cost == pytest.approx(2.0e-4, rel=1e-12)

    def test_boundary_distance_is_inclusive(self):
        # node at the field center sits exactly sensing_range from every stop
        state = make_state([(50.0, 50.0)])
        t = self.traj(sensing=40.0)
        for r in range(4):
            out = srp_round(state, t, r, RADIO)
            assert out.packets == 1, f"round {r} should transmit at d == sensing_range"

    def test_out_of_range_sleeps_for_free(self):
        state = make_state([(50.0, 50.0)])
        t = self.traj(sensing=1.0, count=360)
        for r in range(1000):
            out = srp_round(state, t, r, RADIO)
            assert out.packets == 0 and out.cost == 0.0
        assert float(state.energy[0]) == 0.5

    def test_coverage_range_reaches_every_node_each_tour(self):
        from sinksim import load_preset
        from sinksim.simulation import deploy
        cfg = load_preset("sc40-srp", seed=5)
        state = deploy(cfg)
        state.energy[:] = 1e9  # huge reserves so nobody dies mid-tour
        for r in range(cfg.trajectory.sojourn_count):
            srp_round(state, cfg.trajectory, r, cfg.radio)
        assert int(state.packets_sent.min()) >= 1

    def test_cannot_pay_dies_without_spending(self):
        state = make_state([(90.0, 50.0)], energies=[1.0e-4])  # below one packet
        out = srp_round(state, self.traj(sensing=5.0), 0, RADIO)
        assert out.packets == 0
        assert out.deaths == 1
        assert not bool(state.alive[0])
        assert float(state.energy[0]) == 1.0e-4  # untouched

    def test_requires_sensing_range(self):
        from sinksim.errors import ConfigurationError
        t = Trajectory(CirclePath(SINK, 40.0), sojourn_count=360)
        state = make_state([(50.0, 50.0)])
        with pytest.raises(ConfigurationError):
            srp_round(state, t, 0, RADIO)


class TestRoundInvariants:
    def test_energy_conservation_per_round(self):
        # total node-energy decrease equals the reported round cost
        rng = np.random.default_rng(11)
        positions = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(40)]
        kinds = [ADVANCED if i < 4 else NORMAL for i in range(40)]
        energies = [1.0 if k == ADVANCED else 0.5 for k in kinds]
        state = make_state(positions, energies=energies, kinds=kinds)
        election = np.random.default_rng(12)
        costs = uplink(state)
        for r in range(300):
            before = state.total_energy()
            out = sep_round(state, r, NET, RADIO, costs, election)
            after = state.total_energy()
            assert before - after == pytest.approx(out.cost, abs=1e-12)
            assert (state.energy >= 0.0).all()

    def test_dead_nodes_stay_dead_and_idle(self):
        state = make_state([(50.0, 50.0), (150.0, 50.0)])
        slot = static_slot(state)
        seen_dead = False
        sent_after_death = 0
        for r in range(1000):
            dead_before = ~state.alive.copy()
            packets_before = state.packets_sent.copy()
            direct_round(state, *slot)
            if dead_before.any():
                seen_dead = True
                assert not state.alive[dead_before].any()
                sent_after_death += int((state.packets_sent[dead_before]
                                         != packets_before[dead_before]).sum())
        assert seen_dead
        assert sent_after_death == 0
