"""CLI contracts: outputs, exit codes, determinism, validate."""

import contextlib
import io
import json
import math
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinksim import PRESET_NAMES, harness, load_preset, run, simulation
from sinksim.cli import main
from sinksim.harness import CSV_HEADER, validate_run_csv
from sinksim.presets import preset_dict


def read(path):
    return path.read_text(encoding="utf-8")


class TestSimulate:
    def test_writes_csv_and_summary(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(["simulate", "--scenario", "cl-sep", "--seed", "1",
                     "--rounds", "800", "--out", str(out)])
        assert code == 0
        lines = read(out).splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 801  # header + one row per round
        summary = json.loads(read(tmp_path / "run.summary.json"))
        assert summary["scenario"] == "cl-sep"
        assert summary["rounds_executed"] == 800
        assert summary["config"]["seed"] == 1
        assert summary["rng"]["generator"] == "numpy.PCG64"

    def test_monotone_columns(self, tmp_path):
        out = tmp_path / "run.csv"
        main(["simulate", "--scenario", "cl-sep", "--seed", "1",
              "--rounds", "5000", "--out", str(out)])
        alive, packets = [], []
        for line in read(out).splitlines()[1:]:
            f = line.split(",")
            alive.append(int(f[1]))
            packets.append(int(f[3]))
        assert all(a >= b for a, b in zip(alive, alive[1:]))
        assert all(a <= b for a, b in zip(packets, packets[1:]))

    def test_sc40_summary_reports_sensing_range(self, tmp_path):
        out = tmp_path / "sc40.csv"
        code = main(["simulate", "--scenario", "sc40-srp", "--seed", "7",
                     "--rounds", "50", "--out", str(out)])
        assert code == 0
        summary = json.loads(read(tmp_path / "sc40.summary.json"))
        assert summary["sensing_range_m"] == 40.0

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["simulate", "--scenario", "nosuch", "--rounds", "10"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["net.m=abc", "max_rounds=NaN", "net=5",
                                          pytest.param("net=" + "[" * 20_000 + "]" * 20_000,
                                                       id="net=deep"),
                                          pytest.param("seed=1" + "0" * 5000, id="seed=long-int")])
    def test_malformed_value_exits_2(self, override, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(["simulate", "--scenario", "sep", "--rounds", "10",
                     "--override", override, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--rounds", "1000000000000"],
                                      ["--override", "net.n=100000000"],
                                      ["--override", "trajectory.sojourn_count=1000000"]],
                             ids=["rounds", "net.n", "sojourn_count"])
    def test_oversized_run_exits_2(self, args, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(["simulate", "--scenario", "sc40-srp", *args, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("scenario,overrides", [
        ("sep", ["net.m=0", "net.p_opt=1.0"]),
        ("sep", ["net.m=0", "net.p_opt=0.6"]),
        ("sep", ["net.m=0.001", "net.p_opt=0.6"]),  # m*n rounds to no advanced node
        ("cl-sep", ["net.e0=1e308"]),
        ("cl-sep", ["net.e0=1e307", "net.n=10000"]),
        ("cl-sep", ["radio.eps_mp=1e296"]),  # the price of a hop across the field
        ("cl-sep", ["field.side=1e200", "trajectory.point=[5e199,5e199]"]),
        ("sep", ["radio.packet_bits=1" + "0" * 400]),  # beyond the float range
        ("sep", ["net.p_opt=5e-324"]),  # 1/p_normal overflows: no finite epoch
        ("sep", ["net.p_opt=5e-324", "net.m=1"]),  # p_normal rounds to 0
        ("cl-sep", ["net.p_opt=5e-324"]),
        ("sep", ["radio.e_da=1e305"]),  # a head's aggregation overflows to inf
    ], ids=["p_opt=1", "p_opt=0.6", "m=0.001", "e0=1e308", "e0=1e307-n=10000",
            "eps_mp=1e296", "side=1e200", "packet_bits=1e400", "p_opt=5e-324",
            "p_opt=5e-324-m=1", "cl-sep-p_opt=5e-324", "e_da=1e305"])
    def test_unrunnable_network_exits_2(self, scenario, overrides, tmp_path, capsys):
        out = tmp_path / "run.csv"
        args = [a for o in overrides for a in ("--override", o)]
        code = main(["simulate", "--scenario", scenario, "--rounds", "5", *args,
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("protocol", ["sep", "cl-sep"])
    def test_tiny_p_opt_with_finite_epoch_runs(self, protocol, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["simulate", "--scenario", protocol, "--rounds", "5",
                     "--override", "net.p_opt=1e-300", "--out", str(out)]) == 0
        assert validate_run_csv(out) == []
        assert len(out.read_text().splitlines()) == 1 + 5

    @pytest.mark.parametrize("content,args", [
        (b"[1]", ["simulate", "--seed", "1"]),
        (b'"abc"', ["simulate", "--rounds", "5"]),
        (b"[1]", ["sweep", "--values", "10", "--rounds", "5"]),
        (b"\xff\xfe{", ["simulate", "--rounds", "5"]),
        (b'{"field": ' + b"[" * 100000 + b"]" * 100000 + b"}", ["simulate", "--rounds", "5"]),
        (b'{"seed": 1' + b"0" * 5000 + b"}", ["simulate", "--rounds", "5"]),
    ], ids=["list", "string", "sweep-list", "not-utf8", "too-deep", "long-int"])
    def test_malformed_config_file_exits_2(self, content, args, tmp_path, capsys):
        cfg = tmp_path / "f.json"
        cfg.write_bytes(content)
        code = main([args[0], "--config", str(cfg), *args[1:],
                     "--out", str(tmp_path / "run.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: config file {cfg} is not ")
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]

    def test_unwritable_output_exits_3(self, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "run.csv"
        code = main(["simulate", "--scenario", "cl-sep", "--rounds", "10",
                     "--out", str(out)])
        assert code == 3

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["simulate", "--scenario", "sc10-srp", "--seed", "3",
                  "--rounds", "600", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_config_echo_reproduces_run(self, tmp_path):
        out1 = tmp_path / "one.csv"
        main(["simulate", "--scenario", "sc20-srp", "--seed", "5",
              "--rounds", "400", "--out", str(out1)])
        echo = json.loads(read(tmp_path / "one.summary.json"))["config"]
        cfg_path = tmp_path / "echo.json"
        cfg_path.write_text(json.dumps(echo), encoding="utf-8")
        out2 = tmp_path / "two.csv"
        main(["simulate", "--config", str(cfg_path), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_override_changes_sensing_range(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(["simulate", "--scenario", "sc20-srp", "--seed", "1",
                     "--rounds", "20", "--out", str(out),
                     "--override", "trajectory.sensing_range=51.35"])
        assert code == 0
        summary = json.loads(read(tmp_path / "run.summary.json"))
        assert summary["sensing_range_m"] == 51.35

    def test_tour_on_disk_rim_runs_and_validates(self, tmp_path):
        out = tmp_path / "rim.csv"
        assert main(["simulate", "--scenario", "cc-srp", "--rounds", "400", "--out", str(out),
                     "--override", "trajectory.radius=50"]) == 0
        assert main(["validate", str(out)]) == 0


class TestValidate:
    def test_valid_file_passes(self, tmp_path):
        out = tmp_path / "run.csv"
        main(["simulate", "--scenario", "cl-sep", "--seed", "1",
              "--rounds", "300", "--out", str(out)])
        assert main(["validate", str(out)]) == 0

    def test_bad_header_fails(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("round,alive,energy,packets\n0,1,1.0,1\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 4

    def test_non_monotone_alive_fails(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_HEADER + "\n0,5,10.0,1\n1,6,9.0,2\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 4
        problems = validate_run_csv(bad)
        assert any("alive" in p for p in problems)

    def test_increasing_residual_fails(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_HEADER + "\n0,5,10.0,1\n1,5,11.0,2\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 4

    def test_non_utf8_fails(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(CSV_HEADER.encode() + b"\n0,5,10.0,1\n1,\xff\xfe,9.0,2\n")
        assert main(["validate", str(bad)]) == 4
        assert validate_run_csv(bad) == ["row 1: unparsable fields '1,\\udcff\\udcfe,9.0,2'"]

    @pytest.mark.parametrize("first,second", [("nan", "nan"), ("inf", "-inf")])
    def test_non_finite_residual_fails(self, first, second, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_HEADER + f"\n0,5,{first},1\n1,5,{second},2\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 4
        assert validate_run_csv(bad) == [f"row 0: non-finite residual energy {first}",
                                         f"row 1: non-finite residual energy {second}"]

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.csv")]) == 3

    def test_packets_rise_by_at_most_the_nodes_alive(self, tmp_path):
        # Row 0 has no alive count before it without a summary; row 1 starts with 5.
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_HEADER + "\n0,5,10.0,30\n1,2,9.0,36\n2,2,8.0,38\n", encoding="utf-8")
        assert validate_run_csv(bad) == [
            "row 1: 6 packets sent in a round that starts with 5 nodes alive"]

    def test_first_row_packets_are_bounded_by_the_summary_n(self, tmp_path):
        # Every cl-sep node sends each round, so each row rises by exactly its alive count.
        out = tmp_path / "v.csv"
        assert main(["simulate", "--scenario", "cl-sep", "--rounds", "5", "--out", str(out)]) == 0
        assert main(["validate", str(out)]) == 0
        lines = read(out).split("\n")
        assert lines[1:3] == ["0,100,54.972915290277406,100", "1,100,54.945830580554812,200"]
        lines[1] = "0,100,54.972915290277406,200"
        out.write_text("\n".join(lines), encoding="utf-8")
        assert main(["validate", str(out)]) == 4
        assert validate_run_csv(out) == [
            "row 0: 200 packets sent in a round that starts with 100 nodes alive"]

    def test_first_row_is_checked_against_nothing(self, tmp_path):
        # Only a later row can rise or fall, so an alive count past any float
        # and negative packets in the one row raise no monotonicity problem;
        # the negative packets still fail the per-row sign check.
        one = tmp_path / "one.csv"
        one.write_text(CSV_HEADER + f"\n0,{10**400},1.0,-5\n", encoding="utf-8")
        assert validate_run_csv(one) == ["row 0: negative cumulative packets"]


@pytest.fixture(scope="module")
def sep_run(tmp_path_factory):
    """A 3000-round sep CSV and its summary: deaths at rounds 1047, 1217 and 2156."""
    out = tmp_path_factory.mktemp("sep") / "sep.csv"
    assert main(["simulate", "--scenario", "sep", "--rounds", "3000", "--out", str(out)]) == 0
    return read(out), json.loads(read(out.with_name("sep.summary.json")))


class TestValidateAgainstSummary:
    """A CSV with a ``*.summary.json`` beside it must give the summary's numbers."""

    def write(self, tmp_path, csv, summary):
        out = tmp_path / "run.csv"
        out.write_text(csv, encoding="utf-8")
        (tmp_path / "run.summary.json").write_text(json.dumps(summary), encoding="utf-8")
        return out

    def test_run_and_summary_agree(self, sep_run, tmp_path):
        csv, summary = sep_run
        assert [summary[k] for k in ("first_death_round", "half_death_round",
                                     "last_death_round")] == [1047, 1217, 2156]
        assert main(["validate", str(self.write(tmp_path, csv, summary))]) == 0

    def test_a_cut_csv_fails(self, sep_run, tmp_path):
        csv, summary = sep_run
        cut = "".join(csv.splitlines(keepends=True)[:1500])  # header and 1499 rows
        out = self.write(tmp_path, cut, summary)
        assert main(["validate", str(out)]) == 4
        assert validate_run_csv(out) == [
            "summary rounds_executed is 3000, but the CSV gives 1499",
            f"summary total_packets is {summary['total_packets']}, but the CSV gives 12605",
            f"summary final_residual_j is {harness.fmt_float(summary['final_residual_j'])!r}, "
            "but the CSV gives '1.8000735227400808'",
            "summary last_death_round is 2156, but the CSV gives None"]

    @pytest.mark.parametrize("key,value", [
        ("rounds_executed", 2999), ("rounds_executed", 3001), ("total_packets", 14450),
        ("final_residual_j", "ulp"), ("first_death_round", 1048), ("first_death_round", None),
        ("half_death_round", 1216), ("last_death_round", None), ("last_death_round", 2157)])
    def test_each_summary_field_is_checked(self, sep_run, tmp_path, key, value):
        csv, summary = sep_run
        if value == "ulp":  # one ulp off: the check is bit for bit
            value = math.nextafter(summary[key], math.inf)
        out = self.write(tmp_path, csv, {**summary, key: value})
        assert main(["validate", str(out)]) == 4
        problems = validate_run_csv(out)
        assert len(problems) == 1 and problems[0].startswith(f"summary {key} is ")

    @pytest.mark.parametrize("key,value", [
        ("rounds_executed", 3000.0), ("total_packets", 14451.0), ("final_residual_j", "text"),
        ("first_death_round", 1047.0), ("first_death_round", True), ("half_death_round", 1217.0),
        ("last_death_round", 2156.0), ("last_death_round", "2156"), ("initial_energy_j", 55),
        ("initial_energy_j", "text")])
    def test_each_mistyped_summary_field_fails(self, sep_run, tmp_path, key, value):
        csv, summary = sep_run
        if value == "text":  # the energy as the CSV writes it, but a JSON string
            value = harness.fmt_float(summary[key])
        out = self.write(tmp_path, csv, {**summary, key: value})
        assert main(["validate", str(out)]) == 4
        kind = "float" if key.endswith("_j") else "integer or null"
        assert validate_run_csv(out) == [f"summary run.summary.json: {key} is {value!r}, "
                                         f"not a JSON {kind}"]

    @pytest.mark.parametrize("text", ["{", "[]", '{"config": {"net": {"n": "100"}}}', "{}"])
    def test_an_unreadable_summary_fails(self, sep_run, tmp_path, text):
        out = self.write(tmp_path, sep_run[0], {})
        out.with_name("run.summary.json").write_text(text, encoding="utf-8")
        assert main(["validate", str(out)]) == 4
        assert validate_run_csv(out)[0].startswith("summary run.summary.json ")

    @pytest.mark.parametrize("column,value,rows,bound", [
        (1, "150", 5, "alive count increased 100 -> 150"),
        (2, "1000000.0", 1, "residual energy increased {} -> 1000000.0"),
    ], ids=["alive", "residual"])
    def test_row_0_is_checked_against_the_summary(self, tmp_path, column, value, rows, bound):
        """Row 0 may not rise above the summary's n and initial energy."""
        out = tmp_path / "v.csv"
        assert main(["simulate", "--scenario", "cl-sep", "--rounds", "5", "--out", str(out)]) == 0
        initial = json.loads(read(out.with_name("v.summary.json")))["initial_energy_j"]
        header, *lines = read(out).splitlines()
        fields = [line.split(",") for line in lines]
        assert [f[1] for f in fields] == ["100"] * 5 and float(fields[0][2]) < initial
        for f in fields[:rows]:
            f[column] = value
        out.write_text("\n".join([header, *map(",".join, fields)]) + "\n", encoding="utf-8")
        assert main(["validate", str(out)]) == 4
        assert validate_run_csv(out) == ["row 0: " + bound.format(initial)]

    def test_a_csv_with_problems_is_not_compared(self, sep_run, tmp_path):
        csv, summary = sep_run
        out = self.write(tmp_path, csv.replace("\n1,", "\n7,", 1), summary)
        assert validate_run_csv(out) == ["row 1: round column is 7, expected 1"]


class TestCompare:
    def test_report_and_rows(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--scenarios", "sep,cl-sep", "--seeds", "2",
                     "--rounds", "400", "--out", str(out)])
        assert code == 0
        lines = read(out).splitlines()
        assert lines[0] == "scenario,seed,first_death,half_death,last_death,total_packets"
        assert len(lines) == 1 + 2 * 2  # two scenarios x two seeds
        report = json.loads(read(tmp_path / "cmp.report.json"))
        assert set(report["scenarios"]) == {"sep", "cl-sep"}
        assert report["seeds"] == [0, 1]
        stats = report["scenarios"]["cl-sep"]["total_packets"]
        assert stats["median"] is not None
        verdicts = {(o["a"], o["b"], o["metric"]): o["verdict"]
                    for o in report["orderings"]}
        assert ("sep", "cl-sep", "total_packets") in verdicts

    def test_rows_equal_direct_runs(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--scenarios", "sep,cc-srp", "--seeds", "2",
                     "--rounds", "300", "--out", str(out)]) == 0
        rows = [line.split(",") for line in read(out).splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("sep", "0"), ("sep", "1"), ("cc-srp", "0"), ("cc-srp", "1")]
        for name, seed, first, half, last, packets in rows:
            m = run(load_preset(name, seed=int(seed), max_rounds=300))
            expected = [m.first_death_round, m.half_death_round, m.last_death_round]
            assert [first, half, last] == ["" if v is None else str(v) for v in expected]
            assert int(packets) == m.total_packets

    def test_single_scenario_rejected(self):
        assert main(["compare", "--scenarios", "sep", "--rounds", "10"]) == 2

    def test_duplicate_scenario_rejected(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--scenarios", "sep,sep", "--rounds", "10",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: duplicate scenario 'sep'\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["abc", "1.5", "9223372036854775808"])
    def test_bad_seed_override_rejected(self, seed, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--scenarios", "sep,cl-sep", "--seeds", "1", "--rounds", "5",
                     "--override", f"seed={seed}", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_seed_override_still_runs_seeds_from_0(self, tmp_path):
        for argv, suffixes in ((["compare", "--scenarios", "sep,cc-srp"], (".csv", ".report.json")),
                               (["sweep", "--scenario", "cc-srp", "--values", "10,20"], (".csv",))):
            for name, extra in (("plain", []), ("seeded", ["--override", "seed=5"])):
                assert main([*argv, "--seeds", "2", "--rounds", "300", *extra,
                             "--out", str(tmp_path / f"{argv[0]}-{name}.csv")]) == 0
            for suffix in suffixes:
                assert ((tmp_path / f"{argv[0]}-plain{suffix}").read_bytes()
                        == (tmp_path / f"{argv[0]}-seeded{suffix}").read_bytes())

    def test_every_scenario_checked_before_any_runs(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run", lambda cfg: calls.append(cfg))
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--scenarios", "sep,cl-sep,sc10-srp", "--seeds", "5",
                     "--override", "trajectory.r_max=0.1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: sojourn spacing")
        assert calls == []
        assert not out.exists()

    def test_single_seed_degenerate_iqr(self, tmp_path):
        out = tmp_path / "cmp.csv"
        main(["compare", "--scenarios", "sep,cl-sep", "--seeds", "1",
              "--rounds", "300", "--out", str(out)])
        report = json.loads(read(tmp_path / "cmp.report.json"))
        for name in ("sep", "cl-sep"):
            assert report["scenarios"][name]["total_packets"]["iqr"] == 0

    def test_censored_deaths_encode_as_empty_and_null(self, tmp_path):
        out = tmp_path / "cmp.csv"
        main(["compare", "--scenarios", "sep,cl-sep", "--seeds", "1",
              "--rounds", "50", "--out", str(out)])  # nobody dies in 50 rounds
        for line in read(out).splitlines()[1:]:
            scenario, seed, first, half, last, packets = line.split(",")
            assert first == "" and half == "" and last == ""
        report = json.loads(read(tmp_path / "cmp.report.json"))
        stats = report["scenarios"]["sep"]["last_death"]
        assert stats["median"] is None
        assert stats["censored"] == 1


class TestSweep:
    def test_rows_and_invalid_radius(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--scenario", "cc-srp", "--values", "10,25,60",
                     "--seeds", "1", "--rounds", "200", "--out", str(out)])
        assert code == 0
        lines = read(out).splitlines()
        assert lines[0] == ("radius_m,valid,coverage_radius_m,first_death_median,"
                            "half_death_median,last_death_median,total_packets_median")
        assert lines[3] == "60,0,,,,,"  # outside the 50 m field
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        by_radius = {float(r[0]): r for r in rows}
        valid = {r: float(by_radius[r][2]) for r in (10.0, 25.0)}
        assert min(valid, key=valid.get) == 25.0  # coverage-optimal radius

    def test_radius_on_field_rim_runs(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", "cc-srp", "--values", "50,49.999999",
                     "--rounds", "400", "--seeds", "2", "--out", str(out)]) == 0
        rim, inside = (line.split(",") for line in read(out).splitlines()[1:])
        assert rim[:3] == ["50", "1", "50"]
        assert float(inside[0]) == 49.999999 and inside[1] == "1"
        assert rim[3:] == inside[3:] and rim[6] != ""

    def test_sweep_single_value_matches_preset_run(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--scenario", "cc-srp", "--values", "25",
              "--seeds", "1", "--rounds", "300", "--out", str(out)])
        row = read(out).splitlines()[1].split(",")
        sim_out = tmp_path / "direct.csv"
        main(["simulate", "--scenario", "cc-srp", "--seed", "0",
              "--rounds", "300", "--out", str(sim_out)])
        summary = json.loads(read(tmp_path / "direct.summary.json"))
        assert float(row[6]) == summary["total_packets"]

    def test_requires_circular_trajectory(self):
        assert main(["sweep", "--scenario", "ss-srp", "--values", "10",
                     "--rounds", "10"]) == 2

    def test_invalid_base_rejected(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--scenario", "cc-srp", "--values", "10,25",
                     "--override", "protocol=bogus", "--rounds", "10", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_nonpositive_seed_count_rejected(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        for seeds in ("0", "-3"):
            code = main(["sweep", "--scenario", "cc-srp", "--values", "25",
                         "--seeds", seeds, "--rounds", "10", "--out", str(out)])
            assert code == 2
            assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("values", ["abc", "10,abc", "10,nan", "inf"])
    def test_malformed_value_rejected(self, values, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--scenario", "cc-srp", "--values", values,
                     "--rounds", "10", "--out", str(out)])
        assert code == 2
        bad = values.split(",")[-1]
        assert capsys.readouterr().err == (
            f"error: --values item {bad!r} is not a finite number\n")
        assert not out.exists()


# Each of these runs reaches every one of its 100 nodes from some sojourn
# point, so its reach table holds at least 100 entries; cl-sep's holds exactly
# 100, in one slot.
@pytest.mark.parametrize("argv", [["simulate", "--scenario", "cl-sep"],
                                  ["compare", "--scenarios", "sep,cl-sep", "--seeds", "1"],
                                  ["sweep", "--scenario", "cc-srp", "--values", "25",
                                   "--seeds", "1"]],
                         ids=["simulate", "compare", "sweep"])
def test_reach_table_over_cap_exits_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simulation, "MAX_REACH_ENTRIES", 99)
    code = main([*argv, "--rounds", "360", "--out", str(tmp_path / "out.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: the reach table needs more than 99 ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["simulate", "--rounds", "5"],
                                  ["sweep", "--values", "25", "--seeds", "1", "--rounds", "5"]],
                         ids=["simulate", "sweep"])
def test_scenario_and_config_exit_2(argv, tmp_path, capsys):
    config = tmp_path / "base.json"
    config.write_text(json.dumps(preset_dict("cc-srp")), encoding="utf-8")
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--scenario", "cc-srp", "--config", str(config), "--out", str(out)])
    assert exit_info.value.code == 2
    assert "error: argument --config: not allowed with argument --scenario" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,override", [
    (["simulate", "--scenario", "sep", "--rounds", "5"], "max_rounds=6"),
    (["compare", "--scenarios", "sep,cl-sep", "--seeds", "1", "--rounds", "5"], "max_rounds=6"),
    (["sweep", "--scenario", "cc-srp", "--values", "25", "--seeds", "1", "--rounds", "5"],
     "max_rounds=6"),
    (["simulate", "--scenario", "sep", "--seed", "1", "--rounds", "5"], " seed=2"),
    (["sweep", "--scenario", "cc-srp", "--values", "10,20", "--seeds", "1", "--rounds", "300"],
     "trajectory.radius=40"),
    (["sweep", "--scenario", "cc-srp", "--values", "10,20", "--seeds", "1", "--rounds", "300"],
     "trajectory.sensing_range=3"),
    (["sweep", "--scenario", "cc-srp", "--values", "10,20", "--seeds", "1", "--rounds", "300"],
     'trajectory={"path": "circle", "center": [50, 50], "radius": 40, "sojourn_count": 360}'),
], ids=["simulate", "compare", "sweep", "simulate-seed", "sweep-radius", "sweep-sensing_range",
        "sweep-trajectory"])
def test_flag_and_override_of_one_key_exit_2(argv, override, tmp_path, capsys):
    code = main([*argv, "--override", override, "--out", str(tmp_path / "out.csv")])
    assert code == 2
    key = override.split("=")[0].strip()
    assert capsys.readouterr().err.startswith(f"error: {key} is given both as a flag and ")
    assert not any(tmp_path.iterdir())


def test_reach_table_at_cap_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(simulation, "MAX_REACH_ENTRIES", 100)
    assert main(["simulate", "--scenario", "cl-sep", "--rounds", "360",
                 "--out", str(tmp_path / "out.csv")]) == 0


def _paths(d, prefix=""):
    for key, value in d.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _paths(value, f"{prefix}{key}.")


OVERRIDE_KEYS = sorted({p for name in PRESET_NAMES for p in _paths(preset_dict(name))})

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([2**63, -2**64, 10**300, 10**400, 5e-324]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6).map(json.dumps)
_deep_values = st.builds(lambda depth, shape: shape[0] * depth + "0" + shape[1] * depth,
                         st.integers(1, 20_000), st.sampled_from([("[", "]"), ('{"a":', "}")]))
_overrides = st.lists(st.builds("{}={}".format, st.sampled_from(OVERRIDE_KEYS),
                                _json_values | _deep_values | st.text(max_size=6)
                                | st.sampled_from(["1" + "0" * 5000, "[-" + "9" * 5000 + "]"])),
                      max_size=3)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.sampled_from(["simulate", "sweep"]), st.sampled_from(PRESET_NAMES), _overrides)
def test_fuzzed_overrides_exit_0_or_2(command, scenario, overrides):
    """Any override a user can type either runs or exits 2 with an error line."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out.csv"
        argv = [command, "--scenario", scenario, "--rounds", "3", "--out", str(out)]
        if command == "sweep":
            argv += ["--values", "20", "--seeds", "1"]
        for assignment in overrides:
            argv += ["--override", assignment]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert not any(pathlib.Path(tmp).iterdir())
