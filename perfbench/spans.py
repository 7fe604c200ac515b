"""Span tracer for the traced benchmark run.

The tracer wraps public functions of sinksim's modules from outside the
package, so nothing under ``src/`` changes. Each wrapped call becomes one
span kept in memory: name, start, end, parent span id and run id, where the
run id numbers the simulation runs of one iteration (``None`` outside a run).
Per-round ``Simulation.step`` calls are kept as (start, end) pairs on the
span of their ``Simulation.run``, because a 50,000-round run makes 50,000 of
them. ``energy.tx_energy`` gets a call counter instead of spans.

Per-layer metrics are derived from the spans of one iteration, with span
times scaled to the reference host speed like every other time (speed.py); a
layer's self time is its span's duration minus the durations of its child
spans.
Work the tracer itself does between spans (summing a returned ``RunMetrics``,
sizing an emitted file) is recorded as a ``trace.bookkeeping`` child, so it
counts as tracing overhead and never as a layer's self time.
"""

from __future__ import annotations

import array
import importlib
import os
import time
from collections import defaultdict

import numpy as np

PROTOCOLS = ("srp", "cl-sep", "sep")

SIM_RUN = "simulation.Simulation.run"
BOOKKEEPING = "trace.bookkeeping"


def _file_bytes(args) -> int:
    return os.path.getsize(args[0])


def _csv_rows(args) -> int:
    with open(args[0], "rb") as f:
        return f.read().count(b"\n") - 1


# (module, attribute, span name, per-call count taken after the call).
# "from x import f" makes a separate binding in each importing module, and
# sinksim calls these through those bindings, so each binding is wrapped.
SPANNED = (
    ("sinksim.harness", "simulate_to_files", "harness.simulate_to_files", None),
    ("sinksim.harness", "compare_scenarios", "harness.compare_scenarios", None),
    ("sinksim.harness", "sweep_radius", "harness.sweep_radius", None),
    ("sinksim.harness", "summary_dict", "harness.summary_dict", None),
    ("sinksim.harness", "write_run_csv", "harness.write_run_csv", _file_bytes),
    ("sinksim.harness", "write_json", "harness.write_json", None),
    ("sinksim.harness", "write_compare_csv", "harness.write_compare_csv", None),
    ("sinksim.harness", "write_sweep_csv", "harness.write_sweep_csv", None),
    ("sinksim.harness", "validate_run_csv", "harness.validate_run_csv", _csv_rows),
    ("sinksim.harness", "coverage_radius", "geometry.coverage_radius", None),
    ("sinksim.geometry", "coverage_radius", "geometry.coverage_radius", None),
    ("sinksim.harness", "config_from_dict", "presets.config_from_dict", None),
    ("sinksim.cli", "config_from_dict", "presets.config_from_dict", None),
    ("sinksim.presets", "config_from_dict", "presets.config_from_dict", None),
    ("sinksim.simulation", "deploy", "simulation.deploy", None),
)
COUNTED = (
    ("sinksim.energy", "tx_energy"),
    ("sinksim.simulation", "tx_energy"),
    ("sinksim.protocols", "tx_energy"),
)


def run_summary(protocol: str, m) -> dict:
    """Exact counts and useful-work tallies of one returned RunMetrics."""
    alive = np.asarray(m.alive, dtype=np.int64)
    rounds = len(alive)
    return {
        "protocol": protocol,
        "rounds": rounds,
        # Nodes alive when each round starts: n, then the count after each
        # earlier round.
        "node_rounds": m.n + int(alive[:-1].sum()) if rounds else 0,
        "active_rounds": int((np.asarray(m.round_cost_j) > 0.0).sum()),
        "packets": m.total_packets,
        "deaths": m.n - int(alive[-1]) if rounds else 0,
    }


class Tracer:
    """Installs the wrappers and keeps the spans of the current iteration."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # span: [name, start_ns, end_ns, parent id or -1, run id, extra]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id: int | None = None
        self.runs: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.tx_calls = 0
        self._steps: array.array | None = None

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, extra=None) -> list:
        stack = self._stack
        rec = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1,
               self.run_id, extra]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` with every call recorded as a span named ``name``."""
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                book = self._open(BOOKKEEPING)
                self.counts[name] += count(args)
                self._close(book)
            return result
        return traced

    def _wrap_run_fn(self, fn):
        """The module-level ``run(cfg)``: numbers the run, tallies its result."""
        inner = self.wrap("simulation.run", fn)

        def traced_run(cfg):
            self.run_id = len(self.runs)
            try:
                metrics = inner(cfg)
            finally:
                self.run_id = None
            book = self._open(BOOKKEEPING)
            self.runs.append(run_summary(cfg.protocol, metrics))
            self._close(book)
            return metrics
        return traced_run

    def _wrap_sim_run(self, fn):
        def traced_sim_run(sim):
            steps = array.array("q")
            outer, self._steps = self._steps, steps
            rec = self._open(SIM_RUN, (sim.cfg.protocol, steps))
            try:
                return fn(sim)
            finally:
                self._close(rec)
                self._steps = outer
        return traced_sim_run

    def _wrap_step(self, fn):
        clock = time.perf_counter_ns

        def traced_step(sim, round_idx):
            t0 = clock()
            out = fn(sim, round_idx)
            steps = self._steps
            steps.append(t0)
            steps.append(clock())
            return out
        return traced_step

    def _count_tx(self, fn):
        def counted(*args):
            self.tx_calls += 1
            return fn(*args)
        return counted

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for mod_name, attr, name, count in SPANNED:
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr), count))
        for mod_name, attr in COUNTED:
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, self._count_tx(getattr(mod, attr)))
        harness = importlib.import_module("sinksim.harness")
        self._patch(harness, "run", self._wrap_run_fn(harness.run))
        sim_cls = importlib.import_module("sinksim.simulation").Simulation
        self._patch(sim_cls, "__init__",
                    self.wrap("simulation.Simulation.__init__", sim_cls.__init__))
        self._patch(sim_cls, "run", self._wrap_sim_run(sim_cls.run))
        self._patch(sim_cls, "step", self._wrap_step(sim_cls.step))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, clock) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        ``clock(a, b)`` turns arrays of perf_counter() readings into raw and
        scaled seconds (``speed.SpeedMarks.span``); times here are scaled.
        """
        spans = self.spans
        bounds = np.array([s[1:3] for s in spans], dtype=np.int64).reshape(-1, 2) / 1e9
        dur = clock(bounds[:, 0], bounds[:, 1])[1]
        parent = np.array([s[3] for s in spans], dtype=np.int64)
        child = np.zeros(len(spans))
        np.add.at(child, parent[parent >= 0], dur[parent >= 0])
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        step_s = dict.fromkeys(PROTOCOLS, 0.0)
        step_calls = dict.fromkeys(PROTOCOLS, 0)
        for i, s in enumerate(spans):
            self_s = dur[i] - child[i]
            if s[0] == SIM_RUN and s[5][1]:
                protocol, steps = s[5]
                pairs = np.frombuffer(steps, dtype=np.int64).reshape(-1, 2) / 1e9
                in_steps = float(clock(pairs[:, 0], pairs[:, 1])[1].sum())
                step_s[protocol] += in_steps
                step_calls[protocol] += len(pairs)
                self_s -= in_steps
            total[s[0]] += dur[i]
            own[s[0]] += self_s

        out: dict[str, float] = {}
        for p in PROTOCOLS:
            runs = [r for r in self.runs if r["protocol"] == p]
            rounds = sum(r["rounds"] for r in runs)
            node_rounds = sum(r["node_rounds"] for r in runs)
            out[f"protocols.step.{p}_s"] = step_s[p]
            out[f"protocols.step.{p}.us_per_round"] = (
                step_s[p] / step_calls[p] * 1e6 if step_calls[p] else 0.0)
            out[f"protocols.active_round_share.{p}"] = (
                sum(r["active_rounds"] for r in runs) / rounds if rounds else 0.0)
            out[f"protocols.tx_per_alive_node_round.{p}"] = (
                sum(r["packets"] for r in runs) / node_rounds if node_rounds else 0.0)
        out["protocols.packets"] = sum(r["packets"] for r in self.runs)
        out["protocols.deaths"] = sum(r["deaths"] for r in self.runs)
        out["simulation.rounds"] = sum(r["rounds"] for r in self.runs)
        out["simulation.node_rounds"] = sum(r["node_rounds"] for r in self.runs)
        out["energy.tx_energy.calls"] = self.tx_calls
        out["simulation.metrics_capture_s"] = own[SIM_RUN]
        out["simulation.schedule_build_s"] = own["simulation.Simulation.__init__"]
        out["simulation.deploy_s"] = total["simulation.deploy"]
        out["presets.config_from_dict_s"] = total["presets.config_from_dict"]
        out["geometry.coverage_radius_s"] = total["geometry.coverage_radius"]
        out["cli.main.self_s"] = own["cli.main"]
        out["harness.compare_scenarios.self_s"] = own["harness.compare_scenarios"]
        out["harness.sweep_radius.self_s"] = own["harness.sweep_radius"]
        out["harness.write_run_csv_s"] = total["harness.write_run_csv"]
        out["harness.write_run_csv.bytes"] = self.counts["harness.write_run_csv"]
        out["harness.write_json_s"] = total["harness.write_json"]
        out["harness.validate_run_csv_s"] = total["harness.validate_run_csv"]
        out["harness.validate_run_csv.rows"] = self.counts["harness.validate_run_csv"]
        return out

    def span_records(self) -> list[dict]:
        """The recorded spans as plain dicts, step pairs counted per run."""
        recs = []
        for i, (name, start, end, parent, run, extra) in enumerate(self.spans):
            rec = {"id": i, "name": name, "start_ns": start, "end_ns": end,
                   "parent": parent, "run": run}
            if name == SIM_RUN:
                rec["protocol"] = extra[0]
                rec["step_spans"] = len(extra[1]) // 2
            recs.append(rec)
        return recs

    def step_pairs(self) -> np.ndarray:
        """Every recorded step span as rows of (run id, start_ns, end_ns)."""
        parts = []
        for name, _, _, _, run, extra in self.spans:
            if name == SIM_RUN and extra[1]:
                pairs = np.frombuffer(extra[1], dtype=np.int64).reshape(-1, 2)
                parts.append(np.column_stack(
                    [np.full(len(pairs), -1 if run is None else run, np.int64), pairs]))
        return np.concatenate(parts) if parts else np.zeros((0, 3), np.int64)


def wrapper_ns_per_call(calls: int = 20_000, repeats: int = 5) -> float:
    """Median cost of one span-recording wrapper around a no-op, in ns."""
    def noop():
        return None

    samples = []
    for _ in range(repeats):
        tracer = Tracer()
        traced = tracer.wrap("calibrate", noop)
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter_ns()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    samples.sort()
    return samples[len(samples) // 2]
