"""Command-line interface.

Subcommands: ``simulate`` one scenario to CSV + summary JSON, ``compare``
several scenarios over a common seed set, ``sweep`` a circular trajectory's
radius, ``validate`` an emitted CSV. Exit codes: 0 success, 2 usage or
configuration error, 3 I/O error, 4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import harness
from .errors import ConfigurationError
from .presets import PRESET_NAMES, apply_override, config_from_dict, preset_dict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INVALID = 4


def _load_base(args) -> tuple[dict, str | None]:
    """Scenario dict from --scenario or --config, plus the preset name if any."""
    if getattr(args, "scenario", None):
        return preset_dict(args.scenario), args.scenario
    path = getattr(args, "config", None)
    if not path:
        raise ConfigurationError("one of --scenario or --config is required")
    with open(path, "r", encoding="utf-8") as f:
        try:
            d = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
            raise ConfigurationError(f"config file {path} is not valid UTF-8 JSON: {e}") from e
    if not isinstance(d, dict):
        raise ConfigurationError(f"config file {path} is not a JSON object")
    return d, None


def _apply_common(d: dict, args) -> None:
    if getattr(args, "seed", None) is not None:
        d["seed"] = args.seed
    if getattr(args, "rounds", None) is not None:
        d["max_rounds"] = args.rounds
    for assignment in getattr(args, "override", None) or []:
        apply_override(d, assignment)


def _cmd_simulate(args) -> int:
    d, name = _load_base(args)
    _apply_common(d, args)
    cfg = config_from_dict(d)
    out = args.out or f"{name or 'custom'}-seed{cfg.seed}.csv"
    summary = harness.simulate_to_files(cfg, out, name)
    print(f"wrote {out} and {harness.sidecar_path(out, 'summary')}")
    print(f"first_death={summary['first_death_round']} "
          f"half_death={summary['half_death_round']} "
          f"last_death={summary['last_death_round']} "
          f"total_packets={summary['total_packets']}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    names = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    scenario_dicts = {}
    for name in names:
        if name in scenario_dicts:
            raise ConfigurationError(f"duplicate scenario {name!r}")
        d = preset_dict(name)
        for assignment in args.override or []:
            apply_override(d, assignment)
        scenario_dicts[name] = d
    result = harness.compare_scenarios(scenario_dicts, args.seeds, args.rounds)
    out = args.out or "compare.csv"
    harness.write_compare_csv(out, result["rows"])
    harness.write_json(harness.sidecar_path(out, "report"), result["report"])
    print(f"wrote {out} and {harness.sidecar_path(out, 'report')}")
    for name in names:
        stats = result["report"]["scenarios"][name]
        print(f"{name}: first_death median={stats['first_death']['median']} "
              f"last_death median={stats['last_death']['median']} "
              f"total_packets median={stats['total_packets']['median']}")
    return EXIT_OK


def _radius(item: str) -> float:
    """One ``--values`` item as a finite number of meters."""
    try:
        value = float(item)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigurationError(f"--values item {item.strip()!r} is not a finite number")
    return value


def _cmd_sweep(args) -> int:
    d, _ = _load_base(args)
    _apply_common(d, args)
    radii = [_radius(v) for v in args.values.split(",") if v.strip()]
    if not radii:
        raise ConfigurationError("sweep needs at least one radius value")
    rows = harness.sweep_radius(d, radii, args.seeds)
    out = args.out or "sweep.csv"
    harness.write_sweep_csv(out, rows)
    print(f"wrote {out}")
    for row in rows:
        print(f"radius={row['radius_m']} valid={row['valid']} "
              f"coverage={row['coverage_radius_m']} "
              f"last_death_median={row['last_death_median']}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    problems = harness.validate_run_csv(args.csv)
    if problems:
        for p in problems:
            print(f"{args.csv}: {p}", file=sys.stderr)
        return EXIT_INVALID
    print(f"{args.csv}: valid")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinksim",
        description="Round-based WSN lifetime simulator with mobile-sink trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p: argparse.ArgumentParser, with_seed: bool) -> None:
        p.add_argument("--scenario", help=f"preset name: {', '.join(PRESET_NAMES)}")
        p.add_argument("--config", help="path to a scenario config JSON file")
        if with_seed:
            p.add_argument("--seed", type=int, default=None, help="run seed")
        p.add_argument("--rounds", type=int, default=None, help="maximum rounds")
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="config override, e.g. trajectory.sensing_range=51.35")

    p_sim = sub.add_parser("simulate", help="run one scenario, write CSV + summary JSON")
    add_scenario_args(p_sim, with_seed=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run several scenarios over seeds 0..N-1")
    p_cmp.add_argument("--scenarios", required=True,
                       help="comma-separated preset names (at least two)")
    p_cmp.add_argument("--seeds", type=int, default=10, help="number of seeds (default 10)")
    p_cmp.add_argument("--rounds", type=int, default=None, help="maximum rounds")
    p_cmp.add_argument("--out", default=None, help="output CSV path")
    p_cmp.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="override applied to every scenario")
    p_cmp.set_defaults(func=_cmd_compare)

    p_swp = sub.add_parser("sweep", help="sweep a circular trajectory radius")
    add_scenario_args(p_swp, with_seed=False)
    p_swp.add_argument("--values", required=True, help="comma-separated radii in meters")
    p_swp.add_argument("--seeds", type=int, default=10, help="number of seeds (default 10)")
    p_swp.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="check an emitted per-round CSV")
    p_val.add_argument("csv", help="path to a per-round CSV")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
