"""sinksim benchmark: drives the sinksim CLI in-process and reports metrics.

Run from the root of a sinksim checkout:

    python3 perfbench/run.py --workload paper-compare --seed 0 --seconds 35 --trace 0

The workload's CLI command sequence (see workloads.py) is repeated, closed
loop, in this one process until ``--seconds`` is used up, after one untimed
warm-up pass at a tiny horizon. Times are scaled to a reference host speed
(see speed.py). Every command's outputs are hashed and checked against the
golden record (golden.json) when the commands equal the recorded ones, and
otherwise against the first iteration of the run. With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` iterations alternate
untraced and traced, and the per-layer metrics come from the traced ones (see
spans.py). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ".perfbench-work"
DEFAULT_SEED = 0
SETUP_SAMPLES = 5

sys.path.insert(0, str(BENCH_DIR))
from spans import PROTOCOLS, Tracer, wrapper_ns_per_call  # noqa: E402
from speed import SpeedMarks  # noqa: E402
from workloads import SETUP_PRESETS, WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "run_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"protocols.step.{p}_s": "s" for p in PROTOCOLS},
    **{f"protocols.step.{p}.us_per_round": "us" for p in PROTOCOLS},
    **{f"protocols.active_round_share.{p}": "ratio" for p in PROTOCOLS},
    **{f"protocols.tx_per_alive_node_round.{p}": "ratio" for p in PROTOCOLS},
    "protocols.packets": "count",
    "protocols.deaths": "count",
    "simulation.rounds": "count",
    "simulation.node_rounds": "count",
    "energy.tx_energy.calls": "count",
    "simulation.metrics_capture_s": "s",
    "simulation.schedule_build_s": "s",
    "simulation.deploy_s": "s",
    "presets.config_from_dict_s": "s",
    "geometry.coverage_radius_s": "s",
    "cli.main.self_s": "s",
    "harness.compare_scenarios.self_s": "s",
    "harness.sweep_radius.self_s": "s",
    "harness.write_run_csv_s": "s",
    "harness.write_run_csv.bytes": "bytes",
    "harness.write_json_s": "s",
    "harness.validate_run_csv_s": "s",
    "harness.validate_run_csv.rows": "count",
    "trace.overhead_s": "s",
    "trace.wrapper_ns_per_call": "ns",
}

# Run in a fresh interpreter by setup_s: import the CLI, then load and
# validate every preset the workload uses. Scaled like every other time,
# with one reference-loop timing before and one after.
SETUP_CODE = """\
import json, sys, time
from speed import REFERENCE_S, time_reference
before = time_reference()
t0 = time.perf_counter()
import sinksim.cli
from sinksim.presets import apply_override, config_from_dict, preset_dict
for name, overrides in json.loads(sys.argv[1]):
    d = preset_dict(name)
    for o in overrides:
        apply_override(d, o)
    config_from_dict(d)
elapsed = time.perf_counter() - t0
print(elapsed, elapsed * 2 * REFERENCE_S / (before + time_reference()))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny horizons, for the benchmark's own self-check")
    p.add_argument("--golden", default=str(BENCH_DIR / "golden.json"),
                   help="golden record to check outputs against")
    p.add_argument("--record-golden", action="store_true",
                   help="store this run's outputs as the workload's golden record")
    return p.parse_args(argv)


def import_sinksim():
    """Import sinksim from this checkout's src/, never from elsewhere."""
    if not (SRC / "sinksim" / "cli.py").is_file():
        raise SystemExit(f"error: no sinksim sources under {SRC}; "
                         "run from the root of a sinksim checkout")
    sys.path.insert(0, str(SRC))
    import sinksim.cli
    import sinksim.harness
    if not Path(sinksim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: sinksim was imported from {sinksim.__file__}, not {SRC}")
    return sinksim.cli, sinksim.harness


class RunProbe:
    """Times every ``harness.run`` call and keeps its lifetime summary."""

    def __init__(self, harness):
        self._run = harness.run
        harness.run = self._timed
        self.intervals: list[tuple[float, float]] = []
        self.summaries: list[list] = []

    def _timed(self, cfg):
        t0 = time.perf_counter()
        m = self._run(cfg)
        self.intervals.append((t0, time.perf_counter()))
        self.summaries.append([m.first_death_round, m.half_death_round,
                               m.last_death_round, m.total_packets])
        return m


def sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    except FileNotFoundError:
        return None


def run_op(op, entry, probe: RunProbe) -> dict:
    """One CLI command: its interval, exit code, output digests and runs."""
    n_runs = len(probe.intervals)
    error = None
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = entry(list(op.argv))
    except (Exception, SystemExit):  # record, count as failed, keep going
        error = traceback.format_exc()
    t1 = time.perf_counter()
    return {
        "interval": (t0, t1),
        "run_intervals": probe.intervals[n_runs:],
        "rc": rc,
        "error": error,
        "files": {path: sha256(path) for path in op.outputs},
        "runs": probe.summaries[n_runs:],
    }


def run_iteration(ops, entry, probe: RunProbe, speed: SpeedMarks) -> dict:
    """The workload's commands once, with raw and scaled times."""
    speed.start()
    try:
        results = [run_op(op, entry, probe) for op in ops]
    finally:
        speed.stop()
    walls = [speed.span(*r["interval"]) for r in results]
    runs = [speed.span(*iv) for r in results for iv in r["run_intervals"]]
    return {
        "results": results,
        "wall_raw": sum(raw for raw, _ in walls),
        "wall": sum(scaled for _, scaled in walls),
        "run_raw": [raw for raw, _ in runs],
        "run": [scaled for _, scaled in runs],
    }


def op_problems(res: dict, ref: dict) -> list[str]:
    problems = []
    if res["error"] is not None:
        problems.append("raised:\n" + res["error"])
    elif res["rc"] != 0:
        problems.append(f"exit code {res['rc']}")
    for path, digest in res["files"].items():
        if digest is None:
            problems.append(f"{path} was not written")
        elif ref["files"].get(path) != digest:
            problems.append(f"{path} sha256 {digest} != reference {ref['files'].get(path)}")
    if res["runs"] != ref["runs"]:
        problems.append(f"runs (first, half, last death, total_packets) {res['runs']} "
                        f"!= reference {ref['runs']}")
    return problems


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median raw and scaled time, in fresh processes, of import and preset load."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    arg = json.dumps(SETUP_PRESETS[workload])
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, arg], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        r, s = out.stdout.split()
        raw.append(float(r))
        scaled.append(float(s))
    return statistics.median(raw), statistics.median(scaled)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "workload_seed": seed,
    }


def check(iterations: list[dict], ops, reference: list[dict]) -> tuple[int, int]:
    """Attempted and failed operations over every iteration."""
    attempted = failed = 0
    for it in iterations:
        for op, res, ref in zip(ops, it["results"], reference):
            attempted += 1
            problems = op_problems(res, ref)
            if problems:
                failed += 1
                print(f"FAILED {' '.join(op.argv)}: " + "; ".join(problems), file=sys.stderr)
    return attempted, failed


def write_trace(out_dir: str, traced_spans: list) -> None:
    """Spans of every traced iteration, written once the run has ended."""
    import numpy as np
    with open(f"{out_dir}/trace.jsonl", "w", encoding="utf-8") as f:
        for k, (records, _) in enumerate(traced_spans):
            for rec in records:
                f.write(json.dumps({"iteration": k, **rec}) + "\n")
    np.save(f"{out_dir}/trace-steps.npy", np.concatenate(
        [np.column_stack([np.full(len(pairs), k), pairs])
         for k, (_, pairs) in enumerate(traced_spans)]))
    print(f"spans written to {out_dir}/trace.jsonl and {out_dir}/trace-steps.npy")


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, harness = import_sinksim()
    os.chdir(ROOT)

    workload = WORKLOADS[args.workload]
    out_dir = f"{WORK}/{args.workload}"
    os.makedirs(f"{out_dir}/warmup", exist_ok=True)
    ops = workload(args.seed, out_dir, args.tiny)
    commands = [list(op.argv) for op in ops]
    env = environment(args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"tiny={int(args.tiny)} {json.dumps(env)}")

    golden_path = Path(args.golden)
    golden = json.loads(golden_path.read_text()) if golden_path.is_file() else {"workloads": {}}
    recorded = golden["workloads"].get(args.workload)
    use_golden = recorded is not None and recorded["commands"] == commands
    print(f"golden record: {'applies' if use_golden else 'does not apply to these commands'}")

    setup = setup_seconds(args.workload) if args.trace == 0 else None

    speed = SpeedMarks()
    probe = RunProbe(harness)
    tracer = Tracer()
    run_iteration(workload(args.seed, f"{out_dir}/warmup", True), cli.main, probe, speed)

    iterations = []
    traced_spans = []
    budget_end = time.perf_counter() + args.seconds
    needed = 2 if args.trace == 1 else 1
    while True:
        traced = args.trace == 1 and len(iterations) % 2 == 1
        started = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
            try:
                it = run_iteration(ops, tracer.wrap("cli.main", cli.main), probe, speed)
            finally:
                tracer.uninstall()
            it["layer"] = tracer.layer_metrics(speed.span)
            traced_spans.append((tracer.span_records(), tracer.step_pairs()))
        else:
            it = run_iteration(ops, cli.main, probe, speed)
        it["traced"] = traced
        iterations.append(it)
        now = time.perf_counter()
        if len(iterations) >= needed and now + (now - started) > budget_end:
            break

    # Correctness: every op of every iteration against the golden record, or
    # against the first iteration when the golden record does not apply.
    first = iterations[0]["results"]
    reference = ([{"files": f, "runs": r} for f, r in zip(recorded["files"], recorded["runs"])]
                 if use_golden else first)
    attempted, failed = check(iterations, ops, reference)

    for i, res in enumerate(first):
        for path, digest in res["files"].items():
            print(f"digest {path} {digest}")
        if res["runs"]:
            runs_digest = hashlib.sha256(json.dumps(res["runs"]).encode()).hexdigest()
            print(f"runs op{i} {len(res['runs'])} {runs_digest}")

    if args.record_golden:
        if failed:
            print("not recording a golden record from a run with failures", file=sys.stderr)
        else:
            golden["workloads"][args.workload] = {
                "commands": commands,
                "files": [r["files"] for r in first],
                "runs": [r["runs"] for r in first],
                "environment": env,
            }
            golden_path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
            print(f"recorded golden outputs of {args.workload} in {golden_path}")

    plain = [it for it in iterations if not it["traced"]]
    wall_s = statistics.median(it["wall"] for it in plain)
    raw = {"wall_s": statistics.median(it["wall_raw"] for it in plain)}
    if args.trace == 0:
        runs = [s for it in plain for s in it["run"]]
        raw["run_s_p50"] = statistics.median(s for it in plain for s in it["run_raw"])
        raw["setup_s"] = setup[0]
        metrics = {
            "wall_s": wall_s,
            "run_s_p50": statistics.median(runs),
            "setup_s": setup[1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print(f"wall_s {wall_s:.6f} s (median of {len(plain)} iterations; "
              f"raw {raw['wall_s']:.6f} s)")
        print(f"run_s_p50 {metrics['run_s_p50']:.6f} s (median of {len(runs)} runs; "
              f"raw {raw['run_s_p50']:.6f} s)")
        print(f"setup_s {metrics['setup_s']:.6f} s (median of {SETUP_SAMPLES} fresh processes; "
              f"raw {raw['setup_s']:.6f} s)")
        print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    else:
        traced_its = [it for it in iterations if it["traced"]]
        metrics = {k: statistics.median(it["layer"][k] for it in traced_its)
                   for k in traced_its[0]["layer"]}
        metrics["trace.overhead_s"] = statistics.median(it["wall"] for it in traced_its) - wall_s
        metrics["trace.wrapper_ns_per_call"] = wrapper_ns_per_call()
        units = PER_LAYER
        write_trace(out_dir, traced_spans)
        print(f"per-layer metrics: medians of {len(traced_its)} traced iterations "
              f"({len(plain)} untraced)")
        for name, unit in PER_LAYER.items():
            print(f"{name} {metrics[name]:.9g} {unit}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results_dir = Path(WORK) / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "raw": raw,
                    "wall_s_samples": [it["wall"] for it in plain],
                    "wall_s_raw_samples": [it["wall_raw"] for it in plain], **result},
                   indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
