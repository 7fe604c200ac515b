"""Protocol engines: election math, per-round traces, death-rule invariants."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sinksim.energy import (RadioParams, aggregation_energy, rx_energy,
                            tx_energy)
from sinksim.geometry import CirclePath, Point, Trajectory
from sinksim.presets import load_preset
from sinksim.protocols import (NetworkParams, NodeState, RoundOutcome, direct_round,
                               election_threshold, hop_table, sep_block, sep_window)
from sinksim.simulation import Simulation, reach

from oracles import heads_elected, srp_round

RADIO = RadioParams()
NET = NetworkParams()
K = RADIO.packet_bits
SINK = Point(50.0, 50.0)


def make_state(positions, energies=None, is_advanced=None):
    n = len(positions)
    energies = energies or [0.5] * n
    return NodeState(np.array([x for x, _ in positions], dtype=np.float64),
                     np.array([y for _, y in positions], dtype=np.float64),
                     np.array(is_advanced or [False] * n, dtype=bool),
                     np.array(energies, dtype=np.float64))


def static_slot(state, radio=RADIO, sink=SINK):
    """The static sink's one reach slot: every node in id order, with its cost to ``sink``."""
    _, ids, costs, _ = reach(state, radio, np.array([[sink.x, sink.y]]), None)
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
        assert NET.p_normal == pytest.approx(0.1 / 1.1, rel=1e-12)

    def test_advanced_nodes(self):
        assert NET.p_advanced == pytest.approx(0.2 / 1.1, rel=1e-12)

    def test_homogeneous_degenerate(self):
        net = NetworkParams(alpha=0.0)
        assert net.p_normal == pytest.approx(0.1)
        assert net.p_advanced == pytest.approx(0.1)

    def test_population_weighted_mean_is_p_opt(self):
        for m, alpha in ((0.1, 1.0), (0.2, 2.0), (0.3, 0.5)):
            net = NetworkParams(m=m, alpha=alpha)
            mean = (1 - m) * net.p_normal + m * net.p_advanced
            assert mean == pytest.approx(net.p_opt, rel=1e-12)

    def test_advanced_strictly_higher_when_alpha_positive(self):
        for alpha in (0.5, 1.0, 3.0):
            net = NetworkParams(alpha=alpha)
            assert net.p_advanced > net.p_normal


class TestElectionThreshold:
    def test_epoch_start(self):
        assert election_threshold(0.1, np.array([0, 10])) == pytest.approx([0.1, 0.1])

    def test_mid_epoch(self):
        assert election_threshold(0.1, np.array([5])) == pytest.approx([0.2])

    def test_last_slot_reaches_one(self):
        # every eligible node must elect by the end of its epoch; below 2**-53,
        # p*(epoch - 1) can round to 1, and only the clamp gives the threshold 1
        for p in (0.1, 1 / 11, 0.2 / 1.1, 0.15, 2.0**-60):
            epoch = math.ceil(1.0 / p)
            assert election_threshold(p, np.array([epoch - 1])) == pytest.approx([1.0])

    def test_exactly_once_per_epoch(self):
        # threshold + set-G bookkeeping elect each node exactly once per epoch
        rng = np.random.default_rng(3)
        p = 1 / 11
        epoch = math.ceil(1 / p)
        thresholds = election_threshold(p, np.arange(epoch)).tolist()
        for _ in range(50):
            in_g = True
            elections = 0
            for slot in range(epoch):
                t = thresholds[slot] if in_g else 0.0
                if rng.random() < t:
                    elections += 1
                    in_g = False
            assert elections == 1


class TestSepRound:
    """The StubRng cases through one-row windows, each played as one block that prices
    its member hops afresh.

    ``step`` returns the round's outcome and its heads (``heads_elected``).
    With none alive ``run`` calls no block, and the round spends and sends
    nothing.
    """

    def hops(self, state, radio):
        return None

    def step(self, state, r, net, radio, uplink, rng):
        draws = rng.random(state.n)
        if not state.alive.any():
            return RoundOutcome(), 0

        def play():
            hops = self.hops(state, radio)
            cost, packets, deaths = sep_block(state, radio, uplink, hops,
                                              sep_window(state, r, net, draws[None]))
            assert len(cost) == len(packets) == 1
            return RoundOutcome(packets=int(packets[0]), cost=float(cost[0]), deaths=deaths)

        return heads_elected(state, r, net, play)

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
        out, heads = self.step(state, 0, NET, RADIO, uplink(state), rng)
        member_cost = tx_energy(RADIO, K, 30.0)
        head_cost = rx_energy(RADIO, K) + aggregation_energy(RADIO, K, 2) + tx_energy(RADIO, K, 10.0)
        assert heads == 1
        assert out.packets == 1
        assert out.cost == pytest.approx(member_cost + head_cost, rel=1e-15)
        assert float(state.energy[0]) == pytest.approx(0.5 - member_cost, rel=1e-15)
        assert float(state.energy[1]) == pytest.approx(0.5 - head_cost, rel=1e-15)
        assert state.packets_sent.tolist() == [1, 1]

    def test_no_heads_falls_back_to_direct(self):
        state = make_state([(40.0, 50.0), (70.0, 50.0)])
        rng = StubRng([0.999])  # nobody clears the threshold
        out, heads = self.step(state, 0, NET, RADIO, uplink(state), rng)
        assert heads == 0
        assert out.packets == 2
        expect = tx_energy(RADIO, K, 10.0) + tx_energy(RADIO, K, 20.0)
        assert out.cost == pytest.approx(expect, rel=1e-15)

    def test_all_dead_is_empty(self):
        state = make_state([(10.0, 10.0)])
        state.alive[0] = False
        out, heads = self.step(state, 0, NET, RADIO, uplink(state), StubRng([0.0]))
        assert out.packets == 0 and out.cost == 0.0 and heads == 0

    def test_members_join_nearest_head(self):
        # heads at x=20 and x=80; member at x=30 must pay for the 10 m hop
        state = make_state([(20.0, 50.0), (80.0, 50.0), (30.0, 50.0)])
        rng = StubRng([0.0, 0.0, 0.99])
        before_far = float(state.energy[1])
        _, heads = self.step(state, 0, NET, RADIO, uplink(state), rng)
        assert heads == 2
        member_cost = tx_energy(RADIO, K, 10.0)
        assert float(state.energy[2]) == pytest.approx(0.5 - member_cost, rel=1e-15)
        # far head received nothing: only its own aggregation + uplink
        own = aggregation_energy(RADIO, K, 1) + tx_energy(RADIO, K, 30.0)
        assert float(state.energy[1]) == pytest.approx(before_far - own, rel=1e-15)

    def test_tie_goes_to_lowest_head_id(self):
        # the member at (50, 50) is exactly 10 m from both heads
        state = make_state([(40.0, 50.0), (50.0, 50.0), (60.0, 50.0)])
        rng = StubRng([0.0, 0.99, 0.0])
        _, heads = self.step(state, 0, NET, RADIO, uplink(state), rng)
        assert heads == 2
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
        counts = [self.step(state, r, cfg.net, cfg.radio, costs, rng)[1]
                  for r in range(20 * epoch)]
        sigma = math.sqrt(cfg.net.n * cfg.net.p_opt * (1 - cfg.net.p_opt) / epoch)
        for e in range(20):
            mean = sum(counts[e * epoch:(e + 1) * epoch]) / epoch
            assert abs(mean - cfg.net.n * cfg.net.p_opt) <= 3 * sigma


class TestSepRoundHopTable(TestSepRound):
    """The same cases over one hop table per state."""

    def setup_method(self):
        self.tables = {}

    def hops(self, state, radio):
        if id(state) not in self.tables:
            self.tables[id(state)] = hop_table(state, radio)
        return self.tables[id(state)]


def test_a_sep_round_with_no_head_searches_for_none():
    # the fallback comes before the head search, which no head could serve
    state = make_state([(40.0, 50.0), (70.0, 50.0)])
    costs = uplink(state)
    with mock.patch("sinksim.protocols._nearest_heads", side_effect=AssertionError), \
            mock.patch("sinksim.protocols.tx_energy", side_effect=AssertionError):
        _, packets, _ = sep_block(state, RADIO, costs, None, sep_window(
            state, 0, NET, StubRng([0.999]).random(state.n)[None]))
    assert state.in_set_g.all() and packets.tolist() == [2]


class TestHopTable:
    def test_rows_and_columns_hold_the_block_bits(self):
        # a 3 x 3 grid with one node doubled: many hops tie, one is 0 m long
        positions = [(20.0 * (i % 3), 20.0 * (i // 3)) for i in range(9)] + [(20.0, 20.0)]
        state = make_state(positions)
        price, rank, near = hop_table(state, RADIO)
        # a round's own block: every node as a member x every node as a head
        dx = state.xs[:, None] - state.xs[None, :]
        dy = state.ys[:, None] - state.ys[None, :]
        block = np.sqrt(dx * dx + dy * dy)
        n = state.n
        assert rank.shape == (n + 1, n) and (rank[n] == n - 1).all()
        for i in range(n):
            assert price[i].tobytes() == tx_energy(RADIO, K, block[:, i]).tobytes()  # head i
            assert price[:, i].tobytes() == tx_energy(RADIO, K, block[i]).tobytes()  # member i
            # member i's neighbours by distance, ties to the lowest id, and their places
            assert near[i].tolist() == np.argsort(block[i], kind="stable").tolist()
            assert rank[near[i], i].tolist() == list(range(n))

    def test_neighbours_one_ulp_apart_keep_their_order(self):
        # nodes 1 and 2 lie one ulp apart in distance from node 0, the farther
        # with the lower id: the sort keys' low bits hold ids, not distance
        far = np.nextafter(10.0, np.inf)
        state = make_state([(0.0, 0.0), (far, 0.0), (10.0, 0.0), (far, 0.0)])
        _, rank, near = hop_table(state, RADIO)
        assert near[0].tolist() == [0, 2, 1, 3]
        assert rank[:4, 0].tolist() == [0, 2, 1, 3]

    def test_pricing_peak(self):
        # the table keeps two 256 x 256 float64 arrays (1.05 MB); pricing
        # adds two more of its distances' size and a mask
        state = make_state([(i % 16 * 6.0, i // 16 * 6.0) for i in range(256)])
        tracemalloc.start()
        try:
            hop_table(state, RADIO)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8e6

    def test_a_sep_run_prices_its_hops_once(self):
        with mock.patch("sinksim.protocols.tx_energy", wraps=tx_energy) as priced:
            Simulation(load_preset("sep", seed=0)).run()
        assert priced.call_count == 1


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
        is_advanced = [i < 4 for i in range(40)]
        energies = [1.0 if a else 0.5 for a in is_advanced]
        state = make_state(positions, energies=energies, is_advanced=is_advanced)
        election = np.random.default_rng(12)
        costs = uplink(state)
        for r in range(300):
            before = state.total_energy()
            window = sep_window(state, r, NET, election.random(state.n)[None])
            cost, _, _ = sep_block(state, RADIO, costs, None, window)
            after = state.total_energy()
            assert before - after == pytest.approx(cost[0], abs=1e-12)
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
