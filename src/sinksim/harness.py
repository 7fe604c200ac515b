"""CSV/JSON emitters, multi-seed comparison, radius sweeps and validation.

All emitters write UTF-8 with LF line endings and format floats with
``%.17g`` so files round-trip exactly and identical runs produce identical
bytes. Death rounds that were not reached by the horizon are encoded as empty
CSV fields / JSON nulls; medians whose middle falls on such a censored value
are reported as null with a censored count, and ordering verdicts treat a
censored median as "beyond the horizon".
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

from .errors import ConfigurationError
from .geometry import CirclePath, coverage_radius
from .presets import config_from_dict, config_to_dict
from .simulation import RunMetrics, ScenarioConfig, rng_identity, run

CSV_HEADER = "round,alive,residual_energy_j,cumulative_packets"
METRIC_KEYS = ("first_death", "half_death", "last_death", "total_packets")
COMPARE_HEADER = ",".join(("scenario", "seed", *METRIC_KEYS))
SWEEP_HEADER = ",".join(("radius_m", "valid", "coverage_radius_m",
                         *(f"{k}_median" for k in METRIC_KEYS)))
THROUGHPUT_UNIT = "packets"
CSV_BLOCK_ROWS = 4096


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _opt(v) -> str:
    """One CSV field: None encodes as empty, a float as ``fmt_float``, else ``str``."""
    if v is None:
        return ""
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


def _write_table(path: str | Path, header: str, rows: list[dict]) -> None:
    """CSV of ``rows``, each field looked up by its header name and ``_opt``-encoded."""
    keys = header.split(",")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(header + "\n")
        f.writelines(",".join(_opt(row[k]) for k in keys) + "\n" for row in rows)


def write_run_csv(path: str | Path, metrics: RunMetrics) -> None:
    """Per-round series as plot-ready CSV, converted a block of rows at a time."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for lo in range(0, metrics.rounds_executed, CSV_BLOCK_ROWS):
            hi = lo + CSV_BLOCK_ROWS
            rows = zip(range(lo, hi), metrics.alive[lo:hi].tolist(),
                       metrics.residual_j[lo:hi].tolist(),
                       metrics.cumulative_packets[lo:hi].tolist())
            f.write("".join(f"{r},{alive},{fmt_float(res)},{pk}\n"
                            for r, alive, res, pk in rows))


def summary_dict(cfg: ScenarioConfig, metrics: RunMetrics,
                 scenario: str | None = None) -> dict:
    """Run summary with the fully resolved config and RNG identity embedded."""
    return {
        "scenario": scenario,
        "protocol": cfg.protocol,
        "sensing_range_m": cfg.trajectory.sensing_range,
        "seed": cfg.seed,
        "max_rounds": cfg.max_rounds,
        "stop_rule": cfg.stop_rule,
        "rounds_executed": metrics.rounds_executed,
        "first_death_round": metrics.first_death_round,
        "half_death_round": metrics.half_death_round,
        "last_death_round": metrics.last_death_round,
        "total_packets": metrics.total_packets,
        "initial_energy_j": metrics.initial_energy_j,
        "final_residual_j": metrics.final_residual_j,
        "throughput_unit": THROUGHPUT_UNIT,
        "config": config_to_dict(cfg),
        "rng": rng_identity(),
    }


def write_json(path: str | Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def sidecar_path(out: str | Path, kind: str) -> Path:
    """`run.csv` -> `run.<kind>.json` next to the main output."""
    p = Path(out)
    base = p.with_suffix("") if p.suffix else p
    return base.with_name(base.name + f".{kind}.json")


def simulate_to_files(cfg: ScenarioConfig, out_csv: str | Path,
                      scenario: str | None = None) -> dict:
    """Run one scenario, write the per-round CSV and its summary sidecar."""
    metrics = run(cfg)
    write_run_csv(out_csv, metrics)
    summary = summary_dict(cfg, metrics, scenario)
    write_json(sidecar_path(out_csv, "summary"), summary)
    return summary


# ---------------------------------------------------------------------------
# Censoring-aware statistics over seeds
# ---------------------------------------------------------------------------

def _percentile_censored(values: list, q: float) -> float | None:
    """Linear-interpolation percentile where None means "beyond the horizon".

    Returns None when the percentile position lands on a censored value.
    """
    xs = sorted(math.inf if v is None else float(v) for v in values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if math.isinf(xs[lo]) or math.isinf(xs[hi]):
        return None
    if lo == hi:
        return xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def censored_stats(values: list) -> dict:
    """Median, interquartile range and censored count for one metric."""
    median = _percentile_censored(values, 0.5)
    q1 = _percentile_censored(values, 0.25)
    q3 = _percentile_censored(values, 0.75)
    return {
        "median": median,
        "iqr": None if q1 is None or q3 is None else q3 - q1,
        "censored": sum(1 for v in values if v is None),
        "values": values,
    }


def ordering_verdict(stats_a: dict, stats_b: dict) -> str:
    """Compare two medians where a censored median exceeds any defined one."""
    a, b = (math.inf if s["median"] is None else s["median"] for s in (stats_a, stats_b))
    if a == b:
        return "indeterminate" if math.isinf(a) else "equal"
    return "greater" if a > b else "less"


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _per_seed(cfg: ScenarioConfig, seed_count: int) -> list[dict]:
    """The METRIC_KEYS of ``cfg`` run on seeds 0..seed_count-1, in seed order."""
    out = []
    for seed in range(seed_count):
        m = run(replace(cfg, seed=seed))
        out.append(dict(zip(METRIC_KEYS, (m.first_death_round, m.half_death_round,
                                          m.last_death_round, m.total_packets))))
    return out


def compare_scenarios(scenario_dicts: dict[str, dict], seed_count: int,
                      max_rounds: int | None = None) -> dict:
    """Run every scenario on seeds 0..seed_count-1 and build the report.

    Runs execute and aggregate in (scenario, seed) order, so the report is
    independent of any scheduling.
    """
    if len(scenario_dicts) < 2:
        raise ConfigurationError("compare needs at least two scenarios")
    if seed_count < 1:
        raise ConfigurationError("compare needs at least one seed")
    horizon = {} if max_rounds is None else {"max_rounds": max_rounds}

    rows = []
    scenarios = {}
    resolved_configs: dict[str, dict] = {}
    for name, base in scenario_dicts.items():
        cfg = replace(config_from_dict({**base, **horizon}), seed=0)
        resolved_configs[name] = config_to_dict(cfg)
        per_seed = _per_seed(cfg, seed_count)
        rows += [{"scenario": name, "seed": s, **m} for s, m in enumerate(per_seed)]
        scenarios[name] = {k: censored_stats([m[k] for m in per_seed]) for k in METRIC_KEYS}

    orderings = [{"metric": k, "a": a, "b": b,
                  "verdict": ordering_verdict(scenarios[a][k], scenarios[b][k])}
                 for a, b in itertools.combinations(scenario_dicts, 2) for k in METRIC_KEYS]
    report = {
        "seeds": list(range(seed_count)),
        "max_rounds": max_rounds,
        "throughput_unit": THROUGHPUT_UNIT,
        "scenarios": scenarios,
        "orderings": orderings,
        "configs": resolved_configs,  # resolved echo at seed 0 of each scenario
        "rng": rng_identity(),
    }
    return {"report": report, "rows": rows}


def write_compare_csv(path: str | Path, rows: list[dict]) -> None:
    _write_table(path, COMPARE_HEADER, rows)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_radius(base: dict, radii: list[float], seed_count: int) -> list[dict]:
    """Vary a circular trajectory's radius; one aggregated row per value.

    The base config must itself be valid. Each radius gets the
    coverage-derived sensing range for its geometry. Radii that place the
    trajectory outside the field produce an invalid row and the sweep
    continues.
    """
    if seed_count < 1:
        raise ConfigurationError("sweep needs at least one seed")
    cfg = config_from_dict(base)
    if not isinstance(cfg.trajectory.path, CirclePath):
        raise ConfigurationError("sweep requires a base scenario with a circular trajectory")
    rows = []
    for radius in radii:
        try:
            traj = replace(cfg.trajectory, path=replace(cfg.trajectory.path, radius=radius))
            traj = replace(traj, sensing_range=coverage_radius(traj, cfg.field))
            swept = replace(cfg, trajectory=traj)
        except ConfigurationError:
            rows.append({**dict.fromkeys(SWEEP_HEADER.split(",")), "radius_m": radius, "valid": 0})
            continue
        per_seed = _per_seed(swept, seed_count)
        rows.append({"radius_m": radius, "valid": 1, "coverage_radius_m": traj.sensing_range,
                     **{f"{k}_median": _percentile_censored([m[k] for m in per_seed], 0.5)
                        for k in METRIC_KEYS}})
    return rows


def write_sweep_csv(path: str | Path, rows: list[dict]) -> None:
    _write_table(path, SWEEP_HEADER, rows)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def validate_run_csv(path: str | Path) -> list[str]:
    """Check an emitted per-round CSV's header, schema and monotonicity.

    Returns a list of problems; empty means the file is valid.
    """
    problems: list[str] = []
    rows = 0
    # Lines end only at "\n" (as str.split("\n") would cut them) and are
    # read one at a time, so a long run's file is never held whole. A byte
    # that is not UTF-8 decodes to a lone surrogate, which no int() or
    # float() parses, so its row is reported as unparsable.
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="\n") as f:
        lines = (line[:-1] if line.endswith("\n") else line for line in f)
        header = next(lines, None)
        if header is None:
            return ["file is empty"]
        if header != CSV_HEADER:
            return [f"bad header: expected {CSV_HEADER!r}, got {header!r}"]

        prev_alive = None
        prev_res = None
        prev_pk = None
        for idx, line in enumerate(lines):
            rows += 1
            fields = line.split(",")
            if len(fields) != 4:
                problems.append(f"row {idx}: expected 4 fields, got {len(fields)}")
                break
            try:
                rnd = int(fields[0])
                alive = int(fields[1])
                res = float(fields[2])
                pk = int(fields[3])
            except ValueError:
                problems.append(f"row {idx}: unparsable fields {line!r}")
                break
            if rnd != idx:
                problems.append(f"row {idx}: round column is {rnd}, expected {idx}")
            if res - res != 0.0:                          # nan or +-inf
                problems.append(f"row {idx}: non-finite residual energy {fields[2]}")
            if alive < 0:
                problems.append(f"row {idx}: negative alive count")
            if prev_alive is not None and alive > prev_alive:
                problems.append(f"row {idx}: alive count increased {prev_alive} -> {alive}")
            if prev_res is not None and res > prev_res:
                problems.append(f"row {idx}: residual energy increased {prev_res} -> {res}")
            if prev_pk is not None and pk < prev_pk:
                problems.append(f"row {idx}: cumulative packets decreased {prev_pk} -> {pk}")
            prev_alive, prev_res, prev_pk = alive, res, pk
            if len(problems) >= 20:
                problems.append("too many problems; stopping")
                break
    if not rows:
        return ["no data rows"]
    return problems
