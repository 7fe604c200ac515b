"""The traced benchmark patches sinksim by name; every name must resolve.

``perfbench/spans.py`` wraps module attributes and ``Simulation`` methods
with setattr, so a rename in the library would break ``run.py --trace 1``
without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()
PATCHED = ([(mod, attr) for mod, attr, _, _ in spans.SPANNED]
           + list(spans.COUNTED)
           + [("sinksim.harness", "run")])


@pytest.mark.parametrize("module,attr", PATCHED, ids=lambda v: v)
def test_patched_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("method", ("__init__", "run", "step"))
def test_simulation_method_resolves(method):
    from sinksim.simulation import Simulation
    assert method in vars(Simulation)


def test_run_summary_reads_run_metrics():
    from sinksim import load_preset, run
    m = run(load_preset("cl-sep", seed=0, max_rounds=50))
    summary = spans.run_summary("cl-sep", m)
    assert summary["rounds"] == 50
    assert summary["node_rounds"] == 50 * m.n  # nobody dies in 50 rounds
    assert summary["active_rounds"] == 50
    assert summary["packets"] == m.total_packets > 0
    assert summary["deaths"] == 0


def test_a_traced_sep_run_equals_an_untraced_one():
    """The tracer wraps ``Simulation.step`` as ``fn(sim, round_idx)``; sep's run
    never reaches it, even in rounds with a death, and the wrapped run is unchanged."""
    from sinksim import load_preset
    from sinksim.simulation import Simulation
    from oracles import assert_same_run
    cfg = load_preset("sep", seed=0, max_rounds=1300)  # deaths from round 1047
    methods = dict(vars(Simulation))
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = Simulation(cfg)
        m_traced = traced.run()
    finally:
        tracer.uninstall()
    assert all(vars(Simulation)[k] is methods[k] for k in ("__init__", "run", "step"))
    plain = Simulation(cfg)
    assert_same_run(traced, m_traced, plain, plain.run())
    assert (m_traced.alive[:-1] != m_traced.alive[1:]).any()
    assert len(tracer.step_pairs()) == 0
    assert [s["step_spans"] for s in tracer.span_records()
            if s["name"] == spans.SIM_RUN] == [0]
