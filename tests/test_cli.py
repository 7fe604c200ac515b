"""CLI contracts: outputs, exit codes, determinism, validate."""

import json

import pytest

from sinksim import load_preset, run
from sinksim.cli import main
from sinksim.harness import CSV_HEADER, validate_run_csv


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

    @pytest.mark.parametrize("override", ["net.m=abc", "max_rounds=NaN", "net=5"])
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
    ], ids=["p_opt=1", "p_opt=0.6", "m=0.001", "e0=1e308", "e0=1e307-n=10000"])
    def test_unrunnable_network_exits_2(self, scenario, overrides, tmp_path, capsys):
        out = tmp_path / "run.csv"
        args = [a for o in overrides for a in ("--override", o)]
        code = main(["simulate", "--scenario", scenario, "--rounds", "5", *args,
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("content,args", [
        (b"[1]", ["simulate", "--seed", "1"]),
        (b'"abc"', ["simulate", "--rounds", "5"]),
        (b"[1]", ["sweep", "--values", "10", "--rounds", "5"]),
        (b"\xff\xfe{", ["simulate", "--rounds", "5"]),
        (b'{"field": ' + b"[" * 100000 + b"]" * 100000 + b"}", ["simulate", "--rounds", "5"]),
    ], ids=["list", "string", "sweep-list", "not-utf8", "too-deep"])
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
        for name, extra in (("plain", []), ("seeded", ["--override", "seed=5"])):
            assert main(["compare", "--scenarios", "sep,cc-srp", "--seeds", "2",
                         "--rounds", "300", *extra, "--out", str(tmp_path / f"{name}.csv")]) == 0
        for suffix in (".csv", ".report.json"):
            assert ((tmp_path / f"plain{suffix}").read_bytes()
                    == (tmp_path / f"seeded{suffix}").read_bytes())

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
