"""Preset catalog and config serialization round-trips."""

import json
from pathlib import Path

import pytest

from sinksim.energy import RadioParams
from sinksim.errors import ConfigurationError
from sinksim.geometry import (CirclePath, SquarePath, StaticPath,
                              coverage_radius)
from sinksim.presets import (PRESET_NAMES, apply_override, config_from_dict,
                             config_to_dict, load_preset, preset_dict)
from sinksim.protocols import NetworkParams
from sinksim.simulation import ScenarioConfig

CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))


class TestPresetCatalog:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_loads_and_validates(self, name):
        cfg = load_preset(name)
        assert cfg.net.n == 100
        assert cfg.net.m == 0.1
        assert cfg.net.alpha == 1.0
        assert cfg.net.e0 == 0.5
        assert cfg.net.p_opt == 0.1
        assert cfg.radio.e_elect == 50e-9
        assert cfg.radio.e_da == 5e-9
        assert cfg.radio.eps_fs == 10e-12
        assert cfg.radio.eps_mp == 0.0013e-12
        assert cfg.radio.packet_bits == 4000
        assert cfg.max_rounds == 50_000

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            load_preset("nosuch")

    @pytest.mark.parametrize("name", ["ss-srp", "sc10-srp", "sc20-srp", "sc40-srp", "cc-srp"])
    def test_sensing_range_equals_coverage_radius(self, name):
        cfg = load_preset(name)
        assert abs(cfg.trajectory.sensing_range
                   - coverage_radius(cfg.trajectory, cfg.field)) <= 0.01

    def test_expected_sensing_ranges(self):
        assert load_preset("ss-srp").trajectory.sensing_range == pytest.approx(35.355, abs=0.01)
        assert load_preset("sc40-srp").trajectory.sensing_range == pytest.approx(40.0, abs=0.01)
        assert load_preset("sc20-srp").trajectory.sensing_range == pytest.approx(50.711, abs=0.01)
        assert load_preset("sc10-srp").trajectory.sensing_range == pytest.approx(60.711, abs=0.01)
        assert load_preset("cc-srp").trajectory.sensing_range == pytest.approx(25.0, abs=0.01)

    def test_trajectory_shapes(self):
        assert isinstance(load_preset("ss-srp").trajectory.path, SquarePath)
        assert load_preset("ss-srp").trajectory.sojourn_count == 200
        for name in ("sc10-srp", "sc20-srp", "sc40-srp", "cc-srp"):
            cfg = load_preset(name)
            assert isinstance(cfg.trajectory.path, CirclePath)
            assert cfg.trajectory.sojourn_count == 360

    def test_static_baselines_at_field_center(self):
        for name in ("sep", "cl-sep"):
            cfg = load_preset(name)
            assert isinstance(cfg.trajectory.path, StaticPath)
            assert (cfg.trajectory.path.point.x, cfg.trajectory.path.point.y) == (50.0, 50.0)
            assert cfg.trajectory.sensing_range is None

    def test_cc_uses_circular_field(self):
        cfg = load_preset("cc-srp")
        assert type(cfg.field).__name__ == "CircleField"
        assert cfg.field.radius == 50.0
        assert cfg.trajectory.path.radius == 25.0

    def test_sojourn_spacing_within_r_max(self):
        for name in PRESET_NAMES:
            t = load_preset(name).trajectory
            assert t.spacing() <= t.r_max

    def test_seed_and_rounds_overridable(self):
        cfg = load_preset("sep", seed=9, max_rounds=123)
        assert cfg.seed == 9 and cfg.max_rounds == 123


class TestConfigSerialization:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_round_trip_exact(self, name):
        cfg = load_preset(name, seed=5, max_rounds=777)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_missing_key_reported(self):
        d = preset_dict("sep")
        del d["field"]
        with pytest.raises(ConfigurationError):
            config_from_dict(d)

    def test_unknown_shape_reported(self):
        d = preset_dict("sep")
        d["field"] = {"shape": "hexagon", "side": 1.0}
        with pytest.raises(ConfigurationError):
            config_from_dict(d)

    def test_omitted_keys_take_dataclass_defaults(self):
        d = preset_dict("sep")
        cfg = config_from_dict({k: d[k] for k in ("field", "trajectory", "protocol")})
        default = ScenarioConfig(cfg.field, cfg.trajectory, cfg.protocol)
        assert cfg.net == NetworkParams()
        assert cfg.radio == RadioParams()
        assert cfg == default

    # (key, JSON text of its value): every one must raise naming the key.
    STRICT_CASES = [
        ("net.n", "100.9"), ("radio.packet_bits", "4000.5"), ("max_rounds", "10.5"),
        ("net.n", "true"), ("net.m", "true"), ("seed", "false"),
        ("net.m", '"0.25"'), ("seed", '"3"'), ("max_rounds", "null"),
        ("net.e0", "Infinity"), ("net.e0", "NaN"), ("max_rounds", "NaN"),
        ("net.e0", "1e400"), ("net.e0", "1" + "0" * 400), ("trajectory.r_max", "Infinity"),
        ("seed", str(2**63)), ("seed", str(-2**63 - 1)), ("seed", str(2**64 - 1)),
        ("net.bogus", "1"), ("radio.bogus", "1"), ("bogus", "1"),
        ("net", "5"), ("radio", "[1]"),
        ("max_rounds", str(10**7 + 1)), ("net.n", str(10**4 + 1)),
        ("trajectory.sojourn_count", str(10**4 + 1)),
        ("field.bogus", "1"), ("field.radius", "5"), ("field.center", "[1, 2]"),
        ("field.shape", "[1]"), ("field.side", "[1, 2]"),
    ]
    # (scenario, key, JSON text): field and trajectory keys are checked per kind.
    TRAJECTORY_CASES = [
        ("ss-srp", "trajectory.bogus", "1"), ("ss-srp", "trajectory.radius", "5"),
        ("sc40-srp", "trajectory.side", "5"), ("sc40-srp", "trajectory.point", "[1, 2]"),
        ("sep", "trajectory.center", "[1, 2]"), ("sep", "trajectory.bogus", "1"),
        ("sep", "trajectory.point", "5"), ("cc-srp", "field.side", "5"),
    ]

    @pytest.mark.parametrize(
        "scenario,key,raw",
        [("sep", k, r) for k, r in STRICT_CASES] + TRAJECTORY_CASES,
        ids=[f"{k}={r[:20]}" for k, r in STRICT_CASES]
        + [f"{s}:{k}={r}" for s, k, r in TRAJECTORY_CASES])
    def test_strict_values_and_keys(self, scenario, key, raw):
        d = preset_dict(scenario)
        *parents, last = key.split(".")
        target = d
        for part in parents:
            target = target[part]
        target[last] = json.loads(raw)
        with pytest.raises(ConfigurationError, match=last):
            config_from_dict(d)

    @pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
    def test_shipped_config_round_trips(self, path):
        d = json.loads(path.read_text(encoding="utf-8"))
        assert config_to_dict(config_from_dict(d)) == d

    @pytest.mark.parametrize("key,value,expected", [
        ("n", 60.0, 60), ("e0", 1, 1.0), ("seed", -2**63, -2**63),
        ("seed", 2**63 - 1, 2**63 - 1), ("max_rounds", 10**7, 10**7), ("n", 10**4, 10**4),
        ("sojourn_count", 10**4, 10**4),
    ])
    def test_integral_and_boundary_numbers_accepted(self, key, value, expected):
        d = preset_dict("sep")
        part = next((p for p in ("net", "trajectory") if key in d[p]), None)
        (d[part] if part else d)[key] = value
        cfg = config_from_dict(d)
        got = getattr(getattr(cfg, part) if part else cfg, key)
        assert got == expected and type(got) is type(expected)


class TestOverrides:
    def test_nested_override(self):
        d = preset_dict("sc20-srp")
        apply_override(d, "trajectory.sensing_range=51.35")
        cfg = config_from_dict(d)
        assert cfg.trajectory.sensing_range == 51.35

    def test_top_level_override(self):
        d = preset_dict("sep")
        apply_override(d, "stop_rule=all_dead")
        assert config_from_dict(d).stop_rule == "all_dead"

    def test_numeric_parsing(self):
        d = preset_dict("sep")
        apply_override(d, "net.n=60")
        apply_override(d, "net.m=0.25")
        cfg = config_from_dict(d)
        assert cfg.net.n == 60 and cfg.net.m == 0.25
        assert cfg.net.advanced_count == 15

    def test_unknown_path_rejected(self):
        d = preset_dict("sep")
        with pytest.raises(ConfigurationError):
            apply_override(d, "net.bogus=1")
        with pytest.raises(ConfigurationError):
            apply_override(d, "no_equals_sign")
