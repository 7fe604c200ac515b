"""``Simulation.run`` against a plain per-round ``Simulation.step`` loop.

srp and cl-sep runs are per-node folds and sep stops stepping at its last
death; every preset at the full horizon, under both stop rules, must match
the stepped loop bit for bit. sep's rounds must also match the numpy-scalar
``sep_round`` of ``oracles``, since ``run`` and ``step`` share one round, on
both hop paths: a HopTable up to its bound and each round's own block above.
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sinksim import load_preset, simulation
from sinksim.presets import PRESET_NAMES
from sinksim.protocols import MAX_NODES, HopTable, NetworkParams
from sinksim.simulation import STOP_ALL_DEAD, STOP_MAX_ROUNDS, STOP_RULES, Simulation

from oracles import assert_same_run, sep_oracle_run, stepped_run


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


def assert_sep_matches_oracle(cfg):
    fast = Simulation(cfg)
    m_fast = fast.run()
    ref, m_ref = sep_oracle_run(cfg)
    assert_same_run(fast, m_fast, ref, m_ref)
    assert m_ref.last_death_round is not None  # every round with a live node compared


def other_hop_path(n):
    """Move the HopTable bound so that a run of ``n`` nodes takes the other hop path."""
    return mock.patch.object(simulation, "_HOP_NODES", n - 1 if n <= simulation._HOP_NODES else n)


@pytest.mark.parametrize("seed,stop_rule,net", SEP_CASES, ids=SEP_IDS)
def test_sep_round_matches_oracle(seed, stop_rule, net):
    assert_sep_matches_oracle(sep_case(seed, stop_rule, net))


@pytest.mark.parametrize("seed,stop_rule,net", SEP_CASES, ids=SEP_IDS)
def test_sep_round_matches_oracle_on_other_hop_path(seed, stop_rule, net):
    """The same runs with each round's own hop block at preset sizes, a HopTable at n300."""
    cfg = sep_case(seed, stop_rule, net)
    with other_hop_path(cfg.net.n):
        assert_sep_matches_oracle(cfg)


@pytest.mark.parametrize("dead", [None, *DEAD_AT_START])
@pytest.mark.parametrize("stop_rule", STOP_RULES)
def test_sep_run_on_other_hop_path(stop_rule, dead):
    """The preset's stepped-loop equivalence, each round pricing its hops afresh."""
    cfg = dataclasses.replace(load_preset("sep", seed=0), stop_rule=stop_rule, max_rounds=4000)
    with other_hop_path(cfg.net.n):
        fast = Simulation(cfg)
        ref = Simulation(cfg)
        assert fast._hops is None
        for sim in (fast, ref):
            if dead is not None:
                sim.state.alive[DEAD_AT_START[dead]] = False
        assert_same_run(fast, fast.run(), ref, stepped_run(ref))


def test_hop_table_up_to_its_bound():
    """sep keeps a HopTable up to ``_HOP_NODES`` nodes and no n x n array above it."""
    base = load_preset("sep", seed=0)
    for n, kept in ((simulation._HOP_NODES, True), (simulation._HOP_NODES + 1, False)):
        sim = Simulation(dataclasses.replace(base, net=NetworkParams(n=n)))
        assert isinstance(sim._hops, HopTable) is kept
    cfg = dataclasses.replace(base, net=NetworkParams(n=MAX_NODES), max_rounds=3)
    tracemalloc.start()
    try:
        sim = Simulation(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sim._hops is None
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
