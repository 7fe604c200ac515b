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

import numpy as np

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
CSV_BLOCK_ROWS = 2048  # rows per write; a block's rows and their tails are live at once
_FLOAT_FIELD = "{:.17g}"  # every float an emitter writes, so the CSVs and summaries agree
_RUN_TAIL = ",{}," + _FLOAT_FIELD + ",{}\n"
_POW10 = 10 ** np.arange(18, -1, -1, dtype=np.int64)  # place values of an int64's 19 digits

fmt_float = _FLOAT_FIELD.format


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
    """Per-round series as plot-ready CSV, assembled as bytes a block of rows at a time.

    Most rows repeat the row above but for the round number, so each block
    formats the ``,alive,residual,packets`` tail only at the rows where a
    field changes; the residual is compared by its bits, so ``-0.0`` and
    ``nan`` format as they are. A block is one byte matrix: each row holds
    its round's decimal digits, computed from the integer, and then its tail,
    gathered from the zero-padded table of distinct tails. The padding (the
    digit columns left of a short round, the bytes past a short tail) is 0,
    which no field's text contains, so dropping every 0 byte leaves the rows.
    """
    with open(path, "wb") as f:
        f.write(CSV_HEADER.encode() + b"\n")
        rounds = metrics.rounds_executed
        for lo in range(0, rounds, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, rounds)
            alive = metrics.alive[lo:hi]
            res = metrics.residual_j[lo:hi]
            pk = metrics.cumulative_packets[lo:hi]
            bits = res.view(np.int64)
            new = np.ones(hi - lo, dtype=bool)
            new[1:] = (alive[1:] != alive[:-1]) | (bits[1:] != bits[:-1]) | (pk[1:] != pk[:-1])
            starts = np.flatnonzero(new)
            tails = np.array(list(map(_RUN_TAIL.format, alive[starts].tolist(),
                                      res[starts].tolist(), pk[starts].tolist())), dtype="S")
            width = len(str(hi - 1))
            place = np.arange(lo, hi)[:, None] // _POW10[-width:]
            block = np.empty((hi - lo, width + tails.itemsize), dtype=np.uint8)
            block[:, :width] = np.where(place > 0, place % 10 + 48, 0)
            block[:, width - 1] = place[:, -1] % 10 + 48  # round 0 still writes its "0"
            block[:, width:] = tails.view(np.uint8).reshape(len(tails), -1)[np.cumsum(new) - 1]
            f.write(block[block != 0].tobytes())


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
    base = Path(out).with_suffix("")
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

    Each dict holds its own horizon; ``max_rounds`` is only echoed. Every
    scenario is checked before any runs. Runs execute and aggregate in
    (scenario, seed) order, so the report is independent of any scheduling.
    """
    if len(scenario_dicts) < 2:
        raise ConfigurationError("compare needs at least two scenarios")
    if seed_count < 1:
        raise ConfigurationError("compare needs at least one seed")

    cfgs = {name: replace(config_from_dict(base), seed=0) for name, base in scenario_dicts.items()}
    resolved_configs = {name: config_to_dict(cfg) for name, cfg in cfgs.items()}
    rows = []
    scenarios = {}
    for name, cfg in cfgs.items():
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

# The start of a run CSV's row 0 bounds, then what the CSV must give. The
# energies (``*_j``) are JSON floats, the rest JSON integers or null.
_SUMMARY_KEYS = ("initial_energy_j", "rounds_executed", "total_packets", "final_residual_j",
                 "first_death_round", "half_death_round", "last_death_round")


def _read_summary(path: str | Path) -> tuple[dict | None, list[str]]:
    """The ``*.summary.json`` beside a run CSV, if there is one, and its problems."""
    side = sidecar_path(path, "summary")
    if not side.exists():
        return None, []
    try:
        summary = json.loads(side.read_text(encoding="utf-8"))
        summary["n"] = summary["config"]["net"]["n"]
        missing = [k for k in _SUMMARY_KEYS if k not in summary]
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as e:
        return None, [f"summary {side.name} is not readable: {e!r}"]
    if missing or type(summary["n"]) is not int:
        return None, [f"summary {side.name} lacks an integer config.net.n or "
                      f"{', '.join(_SUMMARY_KEYS)}"]
    problems = []
    for k in _SUMMARY_KEYS:
        # A JSON 3000.0 or true would compare equal to 3000 or 1: check each type first.
        energy = k.endswith("_j")
        if type(summary[k]) not in ((float,) if energy else (int, type(None))):
            problems.append(f"summary {side.name}: {k} is {summary[k]!r}, not a JSON "
                            + ("float" if energy else "integer or null"))
    return (None if problems else summary), problems


def validate_run_csv(path: str | Path) -> list[str]:
    """Check an emitted per-round CSV's header, schema and monotonicity.

    Each node alive at a round's start sends at most one packet in it, so a
    row's rise in cumulative packets may not pass the previous row's alive
    count. When its ``*.summary.json`` sits beside it, row 0 must not rise
    above the summary's n (in alive nodes and in packets) and
    ``initial_energy_j``, and the CSV must also give the summary's
    ``rounds_executed`` (its row count), ``total_packets`` and
    ``final_residual_j`` (its last row, through ``fmt_float``) and death
    rounds (its first rows with fewer than n, at most n // 2 and no nodes
    alive); each of these must be a JSON integer or null, and the energies
    JSON floats. Returns a list of problems; empty means the file is valid.
    """
    summary, problems = _read_summary(path)
    n = math.nan if summary is None else summary["n"]  # no row compares true to nan
    deaths = [None, None, None]  # rows of the first, half and last death
    # Lines end only at "\n" (as str.split("\n") would cut them) and are
    # read one at a time, so a long run's file is never held whole. A byte
    # that is not UTF-8 decodes to a lone surrogate, which no int() or
    # float() parses, so its row is reported as unparsable.
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="\n") as f:
        header = next(f, None)
        if header is None:
            return ["file is empty"]
        header = header.removesuffix("\n")
        if header != CSV_HEADER:
            return [f"bad header: expected {CSV_HEADER!r}, got {header!r}"]

        # Row 0 compares against the summary's start, or else bounds no row can cross.
        prev_alive, prev_res, prev_pk = ((math.inf, math.inf, -math.inf) if summary is None
                                         else (n, summary["initial_energy_j"], -math.inf))
        # A row whose round field is its index and whose tail (the text after
        # the first comma, line end included) repeats that of a row that
        # raised no problem raises none either and leaves the previous values
        # as they are, so it is not parsed again.
        prev_tail = prev_res_field = None
        idx = -1
        for idx, line in enumerate(f):
            rnd_field, _, tail = line.partition(",")
            if tail == prev_tail and rnd_field == str(idx):
                continue
            line = line.removesuffix("\n")
            found = len(problems)
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
            if pk < 0:
                problems.append(f"row {idx}: negative cumulative packets")
            if alive > prev_alive:
                problems.append(f"row {idx}: alive count increased {prev_alive} -> {alive}")
            if res > prev_res:
                problems.append(f"row {idx}: residual energy increased {prev_res} -> {res}")
            if pk < prev_pk:
                problems.append(f"row {idx}: cumulative packets decreased {prev_pk} -> {pk}")
            # Row 0 rises from 0. The cheap first test, which the clamp only
            # tightens, settles most rows.
            if pk - prev_pk > prev_alive and (rise := pk - max(prev_pk, 0)) > prev_alive:
                problems.append(f"row {idx}: {rise} packets sent in a round that "
                                f"starts with {prev_alive} nodes alive")
            if alive != prev_alive:
                deaths = [idx if d is None and dead else d for d, dead in
                          zip(deaths, (alive < n, alive <= n // 2, alive == 0))]
            prev_alive, prev_res, prev_pk = alive, res, pk
            prev_res_field = fields[2]
            prev_tail = tail if len(problems) == found else None
            if len(problems) >= 20:
                problems.append("too many problems; stopping")
                break
    if idx < 0:
        return ["no data rows"]
    if summary is not None and not problems:
        got = {"rounds_executed": idx + 1, "total_packets": prev_pk,
               "final_residual_j": prev_res_field,
               **dict(zip(_SUMMARY_KEYS[4:], deaths))}
        want = {**summary, "final_residual_j": _opt(summary["final_residual_j"])}
        problems += [f"summary {k} is {want[k]!r}, but the CSV gives {got[k]!r}"
                     for k in _SUMMARY_KEYS[1:] if got[k] != want[k]]
    return problems
