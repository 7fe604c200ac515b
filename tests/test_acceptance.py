"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Heavy multi-seed runs are shared via module-scoped fixtures. Medians over
seeds use censoring-aware semantics: a death round that was not reached by
the 50,000-round horizon counts as "beyond the horizon", so it exceeds any
defined value but cannot be strictly ordered against another censored one.
"""

import dataclasses
import functools
import json
import math
import time

import numpy as np
import pytest

from sinksim import load_preset
from sinksim.cli import main as cli_main
from sinksim.energy import tx_energy
from sinksim.geometry import Point, StaticPath, Trajectory, coverage_radius
from sinksim.presets import PRESET_NAMES
from sinksim.protocols import NodeState, direct_round
from sinksim.simulation import Simulation, deploy, reach, run

from oracles import coverage_radius_grid, heads_elected

SEEDS = range(10)
HORIZON = 50_000
SRP_SCENARIOS = ("ss-srp", "sc10-srp", "sc20-srp", "sc40-srp", "cc-srp")


def _median(values):
    """Median over seeds; None when it falls on a censored (None) value."""
    xs = sorted(math.inf if v is None else float(v) for v in values)
    mid = (xs[(len(xs) - 1) // 2] + xs[len(xs) // 2]) / 2.0
    return None if math.isinf(mid) else mid


def _strictly_greater(a, b):
    """a > b where None means 'beyond the horizon'."""
    if a is None and b is None:
        return False  # both censored: order unknowable at this horizon
    if a is None:
        return True
    if b is None:
        return False
    return a > b


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def srp_results():
    """first/half/last death, packets@20k and runtime for each SRP preset."""
    t0 = time.time()
    results = {}
    for name in SRP_SCENARIOS:
        rows = []
        for seed in SEEDS:
            m = run(load_preset(name, seed=seed, max_rounds=HORIZON))
            rows.append({
                "first": m.first_death_round,
                "half": m.half_death_round,
                "last": m.last_death_round,
                "packets_20k": m.cumulative_packets[19_999],
            })
        results[name] = rows
    results["_elapsed"] = time.time() - t0
    return results


@pytest.fixture(scope="module")
def baseline_results():
    t0 = time.time()
    results = {}
    for name in ("sep", "cl-sep"):
        rows = []
        for seed in SEEDS:
            m = run(load_preset(name, seed=seed, max_rounds=HORIZON))
            rows.append({"first": m.first_death_round, "last": m.last_death_round})
        results[name] = rows
    results["_elapsed"] = time.time() - t0
    return results


def test_criterion_1_exact_single_node_oracles():
    """CL-SEP: a lone node at the sink dies at round 2500; at 100 m, at 694."""
    t0 = time.time()

    probe = dataclasses.replace(load_preset("cl-sep"),
                                net=dataclasses.replace(load_preset("cl-sep").net, n=1, m=0.0),
                                max_rounds=3000, stop_rule="all_dead")
    lone = deploy(probe)
    pos = Point(float(lone.xs[0]), float(lone.ys[0]))
    at_sink = dataclasses.replace(probe, trajectory=Trajectory(StaticPath(pos)))
    m = run(at_sink)
    expect_at_sink = int(0.5 // tx_energy(at_sink.radio, 4000, 0.0))

    # 100 m does not fit a 100 m field with a random node, so drive the
    # engine directly with an exact 100 m separation
    state = NodeState(np.array([150.0]), np.array([50.0]), np.array([False]),
                      np.array([0.5]))
    sink = Point(50.0, 50.0)
    _, ids, costs, _ = reach(state, probe.radio, [sink], None)
    death_100 = 0
    while state.alive[0]:
        direct_round(state, ids, costs)
        death_100 += 1
    death_100 -= 1
    expect_100 = int(0.5 // tx_energy(probe.radio, 4000, 100.0))

    elapsed = time.time() - t0
    ok = (m.first_death_round == m.last_death_round == expect_at_sink == 2500
          and death_100 == expect_100 == 694
          and elapsed < 1.0)
    _report(1, ok, f"at-sink death {m.first_death_round} (want 2500), "
                   f"100 m death {death_100} (want 694), {elapsed:.2f}s")
    assert m.first_death_round == 2500
    assert m.last_death_round == 2500
    assert death_100 == 694
    assert elapsed < 1.0


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_criterion_2_energy_audit(name):
    """5000 rounds per preset: residual fold is exact, counters monotone."""
    t0 = time.time()
    cfg = load_preset(name, seed=0, max_rounds=5000)
    sim = Simulation(cfg)
    m = sim.run()

    acc = m.initial_energy_j
    for cost, res in zip(m.round_cost_j, m.residual_j):
        acc = acc - cost
        assert acc == res, "residual series must be the exact fold of round costs"
    assert all(a >= b for a, b in zip(m.alive, m.alive[1:]))
    assert all(a <= b for a, b in zip(m.cumulative_packets, m.cumulative_packets[1:]))
    # every joule deducted from a node is accounted for in the cost series
    assert m.final_residual_j == pytest.approx(sim.state.total_energy(), abs=1e-9)

    elapsed = time.time() - t0
    _report(2, elapsed < 10.0, f"{name}: audit exact over {m.rounds_executed} rounds, "
                               f"{elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_3_geometry_oracle():
    """Closed-form coverage radii agree with the grid oracle on every preset."""
    worst = 0.0
    for name in SRP_SCENARIOS:
        cfg = load_preset(name)
        closed = coverage_radius(cfg.trajectory, cfg.field)
        grid = coverage_radius_grid(cfg.trajectory, cfg.field)
        worst = max(worst, abs(closed - grid))
        assert abs(closed - grid) <= 0.05, f"{name}: closed {closed} vs grid {grid}"
    ss = coverage_radius(load_preset("ss-srp").trajectory, load_preset("ss-srp").field)
    _report(3, abs(ss - 35.355) <= 0.01, f"square-in-square {ss:.4f} m, "
                                         f"worst grid gap {worst:.4f} m")
    assert abs(ss - 35.355) <= 0.01


def test_criterion_4_lifetime_orderings(srp_results):
    """Medians over 10 seeds: SC40 > SC20 > SC10 and CC > SS, both metrics."""
    med = {name: {k: _median([r[k] for r in srp_results[name]]) for k in ("first", "last")}
           for name in SRP_SCENARIOS}
    chains = [("sc40-srp", "sc20-srp"), ("sc20-srp", "sc10-srp"), ("cc-srp", "ss-srp")]
    failures = []
    for metric in ("first", "last"):
        for a, b in chains:
            if not _strictly_greater(med[a][metric], med[b][metric]):
                failures.append(f"{metric}: {a} ({med[a][metric]}) !> {b} ({med[b][metric]})")
    elapsed = srp_results["_elapsed"]
    detail = (f"first {[med[n]['first'] for n in SRP_SCENARIOS]}, "
              f"last {[med[n]['last'] for n in SRP_SCENARIOS]} "
              f"(None = survivors at {HORIZON}), {elapsed:.0f}s")
    _report(4, not failures and elapsed < 300, detail)
    assert elapsed < 300
    assert not failures, "; ".join(failures)


def test_criterion_5_clusterless_outlives_clustered(baseline_results):
    """CL-SEP median network lifetime exceeds SEP's."""
    sep_last = _median([r["last"] for r in baseline_results["sep"]])
    cl_last = _median([r["last"] for r in baseline_results["cl-sep"]])
    elapsed = baseline_results["_elapsed"]
    ok = _strictly_greater(cl_last, sep_last) and elapsed < 120
    _report(5, ok, f"cl-sep median last death {cl_last} vs sep {sep_last}, {elapsed:.0f}s")
    assert elapsed < 120
    assert _strictly_greater(cl_last, sep_last)


def test_criterion_6_first_death_magnitude(srp_results):
    """SS first death lands within a factor of two of the reported ~3000."""
    med = _median([r["first"] for r in srp_results["ss-srp"]])
    ok = med is not None and 1500 <= med <= 6000
    _report(6, ok, f"ss-srp median first death {med} (window [1500, 6000])")
    assert ok


def test_criterion_7_throughput_ordering(srp_results):
    """Cumulative packets at 20,000 rounds: CC >= SS >= SC40 >= SC20 >= SC10."""
    med = {name: _median([r["packets_20k"] for r in srp_results[name]])
           for name in SRP_SCENARIOS}
    order = ("cc-srp", "ss-srp", "sc40-srp", "sc20-srp", "sc10-srp")
    failures = [f"{a} ({med[a]}) < {b} ({med[b]})"
                for a, b in zip(order, order[1:]) if not med[a] >= med[b]]
    _report(7, not failures, f"packets@20k medians {[med[n] for n in order]}")
    assert not failures, "; ".join(failures)


def test_criterion_8_determinism_and_validate(tmp_path):
    """Reruns are byte-identical and every emitted CSV validates."""
    for name in PRESET_NAMES:
        a = tmp_path / f"{name}-a.csv"
        b = tmp_path / f"{name}-b.csv"
        for out in (a, b):
            code = cli_main(["simulate", "--scenario", name, "--seed", "1",
                             "--rounds", "400", "--out", str(out)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes(), f"{name}: reruns differ"
        assert json.loads((tmp_path / f"{name}-a.summary.json").read_text()) == \
               json.loads((tmp_path / f"{name}-b.summary.json").read_text())
        assert cli_main(["validate", str(a)]) == 0
    _report(8, True, f"{len(PRESET_NAMES)} presets byte-identical, all CSVs valid")


def test_criterion_9_election_statistics():
    """All-alive SEP: per-epoch mean head count within 3 binomial sigma of 10."""
    cfg = load_preset("sep", seed=42)
    sim = Simulation(cfg)
    state = sim.state
    epoch = math.ceil(1.0 / cfg.net.p_opt)
    counts = [heads_elected(state, r, cfg.net, functools.partial(sim.step, r))[1]
              for r in range(20 * epoch)]
    assert state.alive_count() == cfg.net.n, "window must end with all nodes alive"
    target = cfg.net.n * cfg.net.p_opt
    sigma = math.sqrt(cfg.net.n * cfg.net.p_opt * (1 - cfg.net.p_opt) / epoch)
    means = [sum(counts[e * epoch:(e + 1) * epoch]) / epoch for e in range(20)]
    bad = [m for m in means if abs(m - target) > 3 * sigma]
    _report(9, not bad, f"epoch means within {target} +/- {3 * sigma:.2f}: "
                        f"min {min(means):.1f}, max {max(means):.1f}")
    assert not bad, f"epoch means outside 3 sigma: {bad}"
