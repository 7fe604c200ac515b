"""``Simulation.run`` against a plain per-round ``Simulation.step`` loop.

srp and cl-sep runs are per-node folds, and sep runs in blocks of rounds up
to each death, within windows of election draws, and stops at its last;
every preset at the full horizon, under both stop rules, must match the
stepped loop bit for bit. sep's runs must also match the numpy-scalar
``sep_round`` of ``oracles`` stepped round by round, on both hop paths: a
hop table up to its bound and each round's own nearest-head search above,
in blocks of many rounds and of one.
"""

import dataclasses
import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sinksim import load_preset, protocols, simulation
from sinksim.energy import rx_energy
from sinksim.geometry import MAX_SOJOURNS, coverage_radius
from sinksim.presets import PRESET_NAMES
from sinksim.protocols import MAX_NODES, NetworkParams
from sinksim.simulation import STOP_ALL_DEAD, STOP_MAX_ROUNDS, STOP_RULES, Simulation, deploy

from oracles import assert_same_run, hop_spies, sep_oracle_run, sep_step, stepped_run


@pytest.mark.parametrize("stop_rule", STOP_RULES)
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_run_equals_stepped_loop(name, stop_rule):
    cfg = dataclasses.replace(load_preset(name, seed=0), stop_rule=stop_rule)
    assert cfg.max_rounds == 50_000
    fast = Simulation(cfg)
    ref = Simulation(cfg)
    m_fast = fast.run()
    m_ref = stepped_run(ref)
    assert_same_run(fast, m_fast, ref, m_ref)
    assert m_ref.first_death_round is not None  # the horizon covered real deaths


def dense_sweep_cfg(e0, stop_rule):
    """One radius of a dense sweep: cc-srp at n=1000 for one 360-round tour at 25 m."""
    base = load_preset("cc-srp", seed=0)
    traj = dataclasses.replace(base.trajectory,
                               path=dataclasses.replace(base.trajectory.path, radius=25.0))
    traj = dataclasses.replace(traj, sensing_range=coverage_radius(traj, base.field))
    return dataclasses.replace(base, trajectory=traj, max_rounds=360, stop_rule=stop_rule,
                               net=dataclasses.replace(base.net, n=1000, e0=e0))


@pytest.mark.parametrize("stop_rule", STOP_RULES)
@pytest.mark.parametrize("e0", [1e-3, 1e-2])
def test_dense_sweep_run_equals_stepped_loop(e0, stop_rule):
    """The tour-column round sums where deaths fall inside the run's one tour."""
    cfg = dense_sweep_cfg(e0, stop_rule)
    fast = Simulation(cfg)
    ref = Simulation(cfg)
    m_ref = stepped_run(ref)
    assert_same_run(fast, fast.run(), ref, m_ref)
    assert m_ref.first_death_round < 50 and m_ref.half_death_round < cfg.max_rounds


@pytest.mark.parametrize("stop_rule", STOP_RULES)
@pytest.mark.parametrize("max_rounds", [777, 50_001])
@pytest.mark.parametrize("name", ["ss-srp", "sc10-srp"])
def test_run_with_partial_last_tour(name, max_rounds, stop_rule):
    """Horizons that end inside a tour (200 and 360 points) leave grid cells with no round."""
    cfg = dataclasses.replace(load_preset(name, seed=0), stop_rule=stop_rule,
                              max_rounds=max_rounds)
    assert max_rounds % cfg.trajectory.sojourn_count
    fast = Simulation(cfg)
    ref = Simulation(cfg)
    assert_same_run(fast, fast.run(), ref, stepped_run(ref))


def test_fold_indices_fit_int32_and_slots_fit_the_radix_sort():
    """``_fold_nodes`` indexes attempts and entries in int32, ``_fold`` takes a
    tile's rounds ``t·S + slot`` from int32 tours (a tile starts below the
    horizon's last tour and spans at most ``_CHUNK``), and ``_by_slot`` sorts
    slots cast to uint16; none may wrap."""
    assert simulation.MAX_ROUNDS + simulation._CHUNK < 2**31
    assert simulation.MAX_REACH_ENTRIES + simulation._CHUNK < 2**31
    assert simulation.MAX_ROUNDS + (simulation._CHUNK + 1) * MAX_SOJOURNS < 2**31
    assert MAX_SOJOURNS < 2**16


def test_add_at_adds_in_index_order():
    """``_fold`` relies on ``np.add.at`` adding repeated indices one by one, in
    order, as a stepped round adds its payers; a sum that adds the last two first gives 1.0."""
    sums = np.zeros(1)
    np.add.at(sums, np.zeros(3, dtype=np.intp), np.array([1.0, 1e16, -1e16]))
    assert sums[0] == 0.0


def test_subtract_reduce_subtracts_in_row_order():
    """``_fold_nodes`` takes a column's ``np.subtract.reduce`` along axis 0 as
    the last residual of its ``np.subtract.accumulate``, bit for bit, and a
    residual below 0.0 as a failed payment, which needs ``x - c < 0.0`` iff
    ``x < c``, subnormal differences included."""
    rng = np.random.default_rng(0)
    block = 10.0 ** rng.uniform(-10.0, 10.0, size=(200, 64))   # 20 decades
    block[rng.random(block.shape) < 0.1] = 0.0
    tiny = rng.random(block.shape) < 0.1
    block[tiny] = rng.integers(1, 2**40, size=tiny.sum()) * 5e-324   # subnormals
    block[0, 1::2] = 1e13                              # columns that pay every row
    block[:, 0] = [1.0, 1e16, -1e16, *np.zeros(197)]   # summing what it subtracts gives 1.0
    end = np.subtract.reduce(block, axis=0)
    assert end.tobytes() == np.subtract.accumulate(block, axis=0)[-1].tobytes()
    assert end[0] == 0.0 and (end < 0.0).any() and (end > 0.0).any()

    x = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300])
    x = np.concatenate([x, np.nextafter(x, 1.0), np.nextafter(x, 0.0)])
    c = x[:, None]
    assert ((x - c < 0.0) == (x < c)).all() and ((x - c == 0.0) == (x == c)).all()
    assert ((x - c != 0.0) & (np.abs(x - c) < 2.2250738585072014e-308)).any()


@pytest.mark.parametrize("name", ["cl-sep", "cc-srp"])
def test_a_direct_run_prices_its_table_once(name):
    cfg = load_preset(name, seed=0)  # its check prices the dearest hop
    with mock.patch.object(simulation, "tx_energy", wraps=simulation.tx_energy) as priced, \
            mock.patch.object(protocols, "tx_energy", wraps=protocols.tx_energy) as hops:
        Simulation(cfg).run()
    assert priced.call_count == 1 and hops.call_count == 0


DEAD_AT_START = {"three": [0, 3, 57], "all": slice(None)}


@pytest.mark.parametrize("dead", DEAD_AT_START)
@pytest.mark.parametrize("stop_rule", STOP_RULES)
@pytest.mark.parametrize("name", ["cl-sep", "sc10-srp", "ss-srp", "sep"])
def test_run_with_dead_nodes_at_start(name, stop_rule, dead):
    """Nodes dead before round 0 have death round -1, below every round."""
    cfg = dataclasses.replace(load_preset(name, seed=0), stop_rule=stop_rule, max_rounds=4000)
    fast = Simulation(cfg)
    ref = Simulation(cfg)
    for sim in (fast, ref):
        sim.state.alive[DEAD_AT_START[dead]] = False
    assert_same_run(fast, fast.run(), ref, stepped_run(ref))


SEP_NETS = {
    "n300": NetworkParams(n=300),
    "n30-m0.5-a3": NetworkParams(n=30, m=0.5, alpha=3.0),
    "e0.05": NetworkParams(e0=0.05),
    "n8-e1e-4": NetworkParams(n=8, e0=1e-4),
}
SEP_CASES = ([(seed, rule, None) for seed in range(6) for rule in STOP_RULES]
             + [(0, STOP_MAX_ROUNDS, name) for name in SEP_NETS])


SEP_IDS = [f"seed{s}-{r}-{n or 'preset'}" for s, r, n in SEP_CASES]


def sep_case(seed, stop_rule, net):
    cfg = dataclasses.replace(load_preset("sep", seed=seed), stop_rule=stop_rule)
    if net is not None:
        cfg = dataclasses.replace(cfg, net=SEP_NETS[net])
    assert cfg.max_rounds == 50_000
    return cfg


@functools.cache
def sep_oracle(seed, stop_rule, net):
    """The oracle's run of a case, shared by both hop paths' tests: it ignores the path."""
    return sep_oracle_run(sep_case(seed, stop_rule, net))


def assert_sep_matches_oracle(seed, stop_rule, net):
    fast = Simulation(sep_case(seed, stop_rule, net))
    m_fast = fast.run()
    ref, m_ref = sep_oracle(seed, stop_rule, net)
    assert_same_run(fast, m_fast, ref, m_ref)
    assert m_ref.last_death_round is not None  # every round with a live node compared


def other_hop_path(n):
    """Move the hop table bound so that a run of ``n`` nodes takes the other hop path."""
    return mock.patch.object(protocols, "_HOP_NODES", n - 1 if n <= protocols._HOP_NODES else n)


@pytest.mark.parametrize("seed,stop_rule,net", SEP_CASES, ids=SEP_IDS)
def test_sep_round_matches_oracle(seed, stop_rule, net):
    assert_sep_matches_oracle(seed, stop_rule, net)


@pytest.mark.parametrize("seed,stop_rule,net", SEP_CASES, ids=SEP_IDS)
def test_sep_round_matches_oracle_on_other_hop_path(seed, stop_rule, net):
    """The same runs with each round's own hop block at preset sizes, a hop table at n300."""
    with other_hop_path(sep_case(seed, stop_rule, net).net.n):
        assert_sep_matches_oracle(seed, stop_rule, net)


@pytest.mark.parametrize("dead", [None, *DEAD_AT_START])
@pytest.mark.parametrize("stop_rule", STOP_RULES)
def test_sep_run_on_other_hop_path(stop_rule, dead):
    """The preset's stepped-loop equivalence, its blocks pricing their hops afresh."""
    cfg = dataclasses.replace(load_preset("sep", seed=0), stop_rule=stop_rule, max_rounds=4000)
    fast = Simulation(cfg)
    ref = Simulation(cfg)
    for sim in (fast, ref):
        if dead is not None:
            sim.state.alive[DEAD_AT_START[dead]] = False
    with other_hop_path(cfg.net.n):
        with hop_spies() as (tables, blocks):
            m_fast = fast.run()
        assert_same_run(fast, m_fast, ref, stepped_run(ref))
    assert tables == [None] and (blocks[:1] == [0]) == (dead != "all")


def test_stepped_sep_on_a_grid_reads_no_hop_table():
    """Many ties: nodes on a 25 m grid, so hops tie and nodes coincide. The stepped
    rounds find heads by distance alone, independent of the blocks' rank table."""
    cfg = dataclasses.replace(load_preset("sep", seed=3), net=NetworkParams(e0=0.05),
                              stop_rule=STOP_ALL_DEAD)
    grid = np.random.default_rng(3).integers(0, 5, size=(2, cfg.net.n)) * 25.0

    def on_grid(cfg):
        state = deploy(cfg)
        state.xs, state.ys = grid.copy()
        return state

    with mock.patch.object(simulation, "deploy", on_grid):
        oracle, m_oracle = sep_oracle_run(cfg)
        with mock.patch.object(simulation, "hop_table", side_effect=AssertionError), \
                mock.patch.object(protocols, "hop_table", side_effect=AssertionError):
            ref = Simulation(cfg)
            m_ref = stepped_run(ref)
        fast = Simulation(cfg)
        m_fast = fast.run()
    assert_same_run(ref, m_ref, oracle, m_oracle)
    assert_same_run(fast, m_fast, oracle, m_oracle)
    assert m_ref.last_death_round is not None


def test_hop_table_up_to_its_bound():
    """A sep run builds its hop table up to ``_HOP_NODES`` nodes and runs blocks either
    way, and holds no n x n array above it; constructing a ``Simulation`` builds no table."""
    base = load_preset("sep", seed=0)
    for n, kept in ((protocols._HOP_NODES, True), (protocols._HOP_NODES + 1, False)):
        with hop_spies() as (tables, blocks):
            sim = Simulation(dataclasses.replace(base, net=NetworkParams(n=n), max_rounds=3))
            assert tables == []
            sim.run()
        assert len(tables) == 1 and (tables[0] is not None) is kept and blocks[0] == 0
    cfg = dataclasses.replace(base, net=NetworkParams(n=MAX_NODES), max_rounds=3)
    sim = Simulation(cfg)
    tracemalloc.start()
    try:
        sim.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000 * MAX_NODES  # one n x n float64 table is 8 * MAX_NODES**2


def test_cl_sep_round_sums_at_large_n():
    """cl-sep's one slot lists every node, so its round sums span all n.

    At n=4000 over 3000 rounds more than 1000 distinct death rounds split the
    run into epochs; a (death rounds x nodes) mask alone would take over 4 MB.
    Each round's cost is the id-order sum over the nodes still paying, which
    the final packet counts give independently (a cl-sep node pays every
    round until it dies).
    """
    cfg = dataclasses.replace(load_preset("cl-sep", seed=0),
                              net=NetworkParams(n=4000, m=0.0, e0=0.6),
                              max_rounds=3000, stop_rule=STOP_ALL_DEAD)
    sim = Simulation(cfg)
    tracemalloc.start()
    try:
        m = sim.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    epochs = int((np.diff(m.alive) < 0).sum())
    assert epochs > 1000
    assert peak < epochs * cfg.net.n / 2

    sent = sim.state.packets_sent
    costs = sim._cost
    for r in range(0, m.rounds_executed, 97):
        paying = sent > r
        assert m.round_cost_j[r] == sum(costs[paying].tolist())
        assert m.cumulative_packets[r] - (m.cumulative_packets[r - 1] if r else 0) == paying.sum()


# sep's block engine: runs whose blocks are bounded at 1, 2, 7 and 64 rounds, and
# whose windows of election draws hold one block of the bound or three, against
# the stepped loop and the oracle; at bound 1 a one-block window is one row. The
# cases die within a few hundred rounds; together they hold, at every bound, a
# block that ends on an epoch's last round, deaths in a block's first and last
# rounds, no-head fallback rounds inside a block and heads that die on a
# reception, and in every window longer than a row the window edges below.
BLOCK_BOUNDS = (1, 2, 7, 64)
WINDOW_BLOCKS = (1, 3)
BLOCK_CASES = {  # name: (seed, net, nodes dead at the start)
    "epoch8": (0, NetworkParams(p_opt=0.125, alpha=0.0, e0=0.05), None),  # both epochs 8 rounds
    "deaths": (2, NetworkParams(e0=0.05), None),  # two 7-round gaps between deaths
    "n8": (0, NetworkParams(n=8, e0=0.05), None),  # rounds with no head
    "m0": (0, NetworkParams(m=0.0, e0=0.05), None),
    "m1": (0, NetworkParams(m=1.0, e0=0.05), None),
    "reception": (0, NetworkParams(e0=3e-4), None),  # heads die receiving
    "dead-three": (0, NetworkParams(e0=0.05), "three"),
    "dead-all": (0, NetworkParams(e0=0.05), "all"),
    "two-deaths": (0, NetworkParams(m=0.0, e0=2e-3), None),  # equal energies: deaths share rounds
    "only-head": (0, NetworkParams(n=10, e0=0.01), None),  # rows whose one head dies
    "leads-rows": (0, NetworkParams(p_opt=0.5, alpha=0.0, e0=0.05), None),  # 2-round epochs
    "head-dies-paying": (1, NetworkParams(e0=1e-3), None),  # after round 0 too
}


def block_case(name):
    seed, net, dead = BLOCK_CASES[name]
    rule = STOP_MAX_ROUNDS if name == "m1" else STOP_ALL_DEAD  # m1 fills a tail
    return dataclasses.replace(load_preset("sep", seed=seed), net=net, stop_rule=rule,
                               max_rounds=400), dead


def start(sim, dead):
    if dead is not None:
        sim.state.alive[DEAD_AT_START[dead]] = False
    return sim


@functools.cache
def block_references(name):
    """The stepped loop's and the oracle's runs of a case: one-round blocks without a
    hop table, and the oracle's rounds."""
    cfg, dead = block_case(name)
    ref = start(Simulation(cfg), dead)
    with mock.patch.object(Simulation, "step", sep_step):
        oracle = start(Simulation(cfg), dead)
        m_oracle = stepped_run(oracle)
    return (ref, stepped_run(ref)), (oracle, m_oracle)


def window_edges(state, window, block):
    """The window edges a block meets, from its ``window`` and the nodes alive at its start.

    ``leads-rows``: a node dead since the window opened was elected in two of
    the block's rows or more. ``only-head``: in a row, every head is.
    """
    rows = slice(block.round0 - window.round0, block.round0 - window.round0 + len(block.is_ch))
    gone = ~state.alive[window.live]
    ch = window.is_ch[rows]
    edges = set()
    if (ch[:, gone].sum(axis=0) > 1).any():
        edges.add("leads-rows")
    led = block.is_ch.any(axis=1)
    if (ch.any(axis=1) & ~led).any():
        edges.add("only-head")
    return edges


@functools.cache
def block_run(name, bound, table, window):
    """A case's run with blocks of at most ``bound`` rounds and windows of ``window``
    blocks of it, with or without a hop table; each window's (first round, rows),
    and each block's (first round, rounds laid out, rounds committed) and the
    window edges it meets (``window_edges``), with ``two-deaths`` for a round in
    which two nodes die, ``head-dies-paying`` for one after round 0 in which a
    head dies on a reception, while its members still pay, and ``refound`` when
    a death leaves members of later rounds of its window to find a new head."""
    cfg, dead = block_case(name)
    windows, blocks = [], []
    rx = rx_energy(cfg.radio, cfg.radio.packet_bits)
    paying = []

    def window_spy(state, round0, net, hops, draws):
        windows.append(protocols.sep_window(state, round0, net, hops, draws))
        return windows[-1]

    def block_spy(state, radio, uplink, hops, block):
        assert (hops is not None) is table and (block.head_of is not None) is table
        edges = window_edges(state, windows[-1], block)
        paying.clear()
        cost, packets, deaths = protocols.sep_block(state, radio, uplink, hops, block)
        if deaths > 1:
            edges.add("two-deaths")
        if paying and block.round0 + len(cost) > 1:
            edges.add("head-dies-paying")
        blocks.append((block.round0, len(block.is_ch), len(cost) - (deaths > 0), edges))
        return cost, packets, deaths

    def refind_spy(self, lo, alive, died, hops):
        rows = slice(lo - self.round0, None)
        member = ~self.is_ch[rows] & (self.is_ch[rows] & alive[self.live]).any(axis=1)[:, None]
        member &= alive[self.live]
        if (member & died[self.head_of[rows]]).any():
            blocks[-1][3].add("refound")
        refind(self, lo, alive, died, hops)
        assert alive[self.head_of[rows][member]].all()  # every live member's head lives

    def pay_spy(state, radio, uplink, ch_ids, member_ids, heads, tx):
        energy = state.energy.copy()
        out = pay(state, radio, uplink, ch_ids, member_ids, heads, tx)
        for h in ch_ids[~state.alive[ch_ids]].tolist():
            payers = ((heads == h) & (energy[member_ids] >= tx)).sum()
            if round((energy[h] - state.energy[h]) / rx) < payers:  # h received fewer
                paying.append(h)
        return out

    pay, refind = protocols._pay_sep_round, protocols.SepWindow.refind_heads
    with mock.patch.object(simulation, "_CHUNK", 3 * cfg.net.n * bound), \
            mock.patch.object(simulation, "_SEP_WINDOW", window), \
            mock.patch.object(simulation, "sep_window", window_spy), \
            mock.patch.object(simulation, "sep_block", block_spy), \
            mock.patch.object(protocols, "_pay_sep_round", pay_spy), \
            mock.patch.object(protocols.SepWindow, "refind_heads", refind_spy), \
            mock.patch.object(protocols, "_HOP_NODES", MAX_NODES if table else 0):
        sim = start(Simulation(cfg), dead)
        m = sim.run()
    return sim, m, [(w.round0, len(w.is_ch)) for w in windows], blocks


def assert_block_run_matches_stepped_loop_and_oracle(name, bound, table, window):
    sim, m, windows, blocks = block_run(name, bound, table, window)
    for ref, m_ref in block_references(name):
        assert_same_run(sim, m, ref, m_ref)
    assert max((b for _, b, _, _ in blocks), default=0) <= bound
    assert (len(blocks) == 0) == (name == "dead-all")
    # Windows follow each other, and no block crosses a window's end.
    ends = [r + rows for r, rows in windows]
    assert [r for r, _ in windows[1:]] == ends[:-1]
    assert all(rows <= bound * window for _, rows in windows)
    assert all(any(w <= r and r + b <= e for w, e in zip([r for r, _ in windows], ends))
               for r, b, _, _ in blocks)


def assert_block_cases_cover_the_block_edges(bound, table, window):
    ends_epoch = first = last = fallback = False
    edges = {}  # each case's window edges
    for name in BLOCK_CASES:
        cfg, _ = block_case(name)
        sim, m, _, blocks = block_run(name, bound, table, window)
        epochs = (math.ceil(1 / cfg.net.p_normal), math.ceil(1 / cfg.net.p_advanced))
        uplinks = np.cumsum(sim._cost)[-1]  # a round with no head, while all are alive
        for round0, drawn, done, met in blocks:
            ends_epoch |= done == drawn and any((round0 + done) % e == 0 for e in epochs)
            first |= done == 0
            last |= drawn > 1 and done == drawn - 1
            fallback |= drawn > 1 and any(m.round_cost_j[r] == uplinks for r in
                                          range(round0, min(round0 + done, m.first_death_round)))
            edges.setdefault(name, set()).update(met)
    assert ends_epoch and first and (last and fallback or bound == 1)
    rows = bound * window  # a window's rows: one at bound 1 in one-block windows
    want = {"two-deaths", "head-dies-paying"}
    if rows > 1:
        want |= {"only-head", "refound"} if table else {"only-head"}
    if rows >= 6:
        want.add("leads-rows")
    assert set().union(*edges.values()) == want
    assert all(edge in edges[edge] for edge in want & set(BLOCK_CASES))  # each named case meets its edge


@pytest.mark.parametrize("window", WINDOW_BLOCKS)
@pytest.mark.parametrize("bound", BLOCK_BOUNDS)
@pytest.mark.parametrize("name", BLOCK_CASES)
def test_block_engine_matches_stepped_loop_and_oracle(name, bound, window):
    assert_block_run_matches_stepped_loop_and_oracle(name, bound, True, window)


@pytest.mark.parametrize("window", WINDOW_BLOCKS)
@pytest.mark.parametrize("bound", BLOCK_BOUNDS)
@pytest.mark.parametrize("name", BLOCK_CASES)
def test_block_engine_without_a_hop_table_matches_stepped_loop_and_oracle(name, bound, window):
    """The same blocks with each led round's own head search, ``_HOP_NODES`` below n."""
    assert_block_run_matches_stepped_loop_and_oracle(name, bound, False, window)


@pytest.mark.parametrize("window", WINDOW_BLOCKS)
@pytest.mark.parametrize("bound", BLOCK_BOUNDS)
def test_block_cases_cover_the_block_edges(bound, window):
    assert_block_cases_cover_the_block_edges(bound, True, window)


@pytest.mark.parametrize("window", WINDOW_BLOCKS)
@pytest.mark.parametrize("bound", BLOCK_BOUNDS)
def test_block_cases_without_a_hop_table_cover_the_block_edges(bound, window):
    assert_block_cases_cover_the_block_edges(bound, False, window)


def test_heads_die_on_a_reception_in_the_first_block():
    """At 3e-4 J a head pays one reception and dies on its second, in round 0."""
    cfg, _ = block_case("reception")
    sim = Simulation(cfg)
    draws = simulation.rng_stream(cfg.seed, "election").random(cfg.net.n)
    heads = np.flatnonzero(draws < np.where(sim.state.is_advanced, cfg.net.p_advanced,
                                            cfg.net.p_normal))
    before = sim.state.energy[heads]
    sim.step(0)
    assert len(heads) > 1 and not sim.state.alive[heads].any()
    assert (sim.state.energy[heads] == before - rx_energy(cfg.radio, cfg.radio.packet_bits)).all()
    for bound in BLOCK_BOUNDS:
        blocks = block_run("reception", bound, True, 1)[3]
        assert blocks[0][:3] == (0, min(bound, simulation._SEP_FIRST_BLOCK), 0)


def test_a_stepped_round_is_paid_by_the_pay_loop():
    """A one-row window, as ``Simulation.step`` plays, is one block that skips the fold
    and pays its round through ``_pay_sep_round``, clean or not."""
    cfg = load_preset("sep", seed=0, max_rounds=40)
    sim = Simulation(cfg)
    with mock.patch.object(protocols, "_pay_sep_round", wraps=protocols._pay_sep_round) as pay:
        for r in range(cfg.max_rounds):
            sim.step(r)
    assert pay.call_count == cfg.max_rounds and sim.state.alive.all()


def test_block_draws_match_one_row_per_round():
    """A (b x n) window of election draws holds the bits of b draws of n."""
    a = simulation.rng_stream(7, "election")
    b = simulation.rng_stream(7, "election")
    assert a.random((5, 13)).tobytes() == np.concatenate([b.random(13) for _ in range(5)]).tobytes()


# The death record by id: ``Simulation.run`` hands ``RunMetrics._of_run`` each
# node's death round, and a twin stepped round by round gives each id's round
# as the one in which its ``state.alive`` flips. A record that kept only the
# multiset of death rounds, as a count of deaths per round would, fails here.
def run_dies(sim):
    """``sim.run()``'s metrics and the death record it handed ``RunMetrics._of_run``."""
    with mock.patch.object(simulation.RunMetrics, "_of_run",
                           wraps=simulation.RunMetrics._of_run) as of_run:
        m = sim.run()
    return m, of_run.call_args.args[1]


def stepped_dies(sim):
    """Each id's death round over a round-by-round ``step`` loop: -1 if dead at the
    start, ``max_rounds`` if alive at the end."""
    R = sim.cfg.max_rounds
    dies = np.where(sim.state.alive, R, -1)
    for r in range(R):
        was = sim.state.alive.copy()
        sim.step(r)
        dies[was & ~sim.state.alive] = r
    return dies


def assert_dies_by_id(cfg, dead=None):
    fast = start(Simulation(cfg), dead)
    ref = start(Simulation(cfg), dead)
    m, dies = run_dies(fast)
    np.testing.assert_array_equal(dies, stepped_dies(ref))
    np.testing.assert_array_equal(fast.state.alive, dies == cfg.max_rounds)
    return m, dies


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_run_records_each_death_round_by_id(name):
    m, _ = assert_dies_by_id(load_preset(name, seed=0, max_rounds=5000))
    assert m.first_death_round is not None


@pytest.mark.parametrize("dead", DEAD_AT_START)
@pytest.mark.parametrize("name", ["cl-sep", "sc10-srp", "ss-srp", "sep"])
def test_run_records_each_death_round_by_id_with_dead_nodes_at_start(name, dead):
    _, dies = assert_dies_by_id(load_preset(name, seed=0, max_rounds=3000), dead)
    assert (dies[DEAD_AT_START[dead]] == -1).all()


@pytest.mark.parametrize("dead", [None, *DEAD_AT_START])
def test_sep_records_each_death_round_by_id_on_other_hop_path(dead):
    cfg = load_preset("sep", seed=0, max_rounds=3000)
    with other_hop_path(cfg.net.n):
        assert_dies_by_id(cfg, dead)


def test_sep_records_heads_dying_on_a_reception_by_id():
    """Several heads die in round 0's block, each at round 0, and only they."""
    cfg, dead = block_case("reception")
    _, dies = assert_dies_by_id(cfg, dead)
    assert (dies == 0).sum() > 1


# The per-node fold's block edges. ``_CHUNK`` is patched so that the first
# block holds ``FOLD_BLOCK`` attempts of each node in range, and the reach
# table's costs are made dyadic, so that a node's energy can be the exact sum
# of its first attempts' costs and each death falls where its case needs it.
FOLD_BLOCK = 40


def fold_edge_run(stop_rule):
    """A cc-srp run whose nodes a to d fail, by attempt index: a at ``FOLD_BLOCK``,
    after a residual of exactly 0.0 on the first block's last attempt; b on that
    last attempt and c on its first; d on the first of its second tour. Returns
    the run, its stepped twin, the death record and each case's round."""
    cfg = dataclasses.replace(load_preset("cc-srp", seed=0, max_rounds=3 * 360),
                              stop_rule=stop_rule)
    fast, ref = Simulation(cfg), Simulation(cfg)
    offsets = fast._offsets
    k = np.diff(offsets)
    a, b, c = np.flatnonzero(k > FOLD_BLOCK)[:3]
    d = np.flatnonzero((k > 0) & (k < FOLD_BLOCK // 2))[0]
    cases = {a: (FOLD_BLOCK, 0.0), b: (FOLD_BLOCK - 1, 0.5), c: (0, 0.5), d: (k[d], 0.0)}
    for sim in (fast, ref):
        sim._cost[:] = 2.0 ** -(8 + np.arange(len(sim._cost)) % 3)
        for i, (j, left) in cases.items():
            costs = sim._cost[offsets[i] + np.arange(j + 1) % k[i]]  # its first j + 1 attempts
            sim.state.energy[i] = costs[:j].sum() + left * costs[j]
    rounds = {i: j // k[i] * fast._S + fast._slot[offsets[i] + j % k[i]]
              for i, (j, _) in cases.items()}
    with mock.patch.object(simulation, "_CHUNK", int((k > 0).sum()) * FOLD_BLOCK):
        m, dies = run_dies(fast)
    return fast, m, ref, dies, rounds


@pytest.mark.parametrize("stop_rule", STOP_RULES)
def test_fold_block_edges_match_stepped_loop(stop_rule):
    fast, m, ref, dies, rounds = fold_edge_run(stop_rule)
    assert_same_run(fast, m, ref, stepped_run(ref))
    assert {i: dies[i] for i in rounds} == rounds
