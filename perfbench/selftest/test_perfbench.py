"""Self-check of the benchmark at tiny horizons.

Run from the root of the checkout:

    python3 -m pytest -p no:cacheprovider perfbench/selftest

Every run writes only under .perfbench-work/ in the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
WORK = ROOT / ".perfbench-work" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("protocols.packets", "protocols.deaths", "simulation.rounds",
                "simulation.node_rounds", "energy.tx_energy.calls")


def bench(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def golden() -> Path:
    """A golden record of every workload's tiny-horizon outputs."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / "golden.json"
    path.unlink(missing_ok=True)
    for w in WORKLOADS:
        assert result(bench(w, "--golden", str(path), "--record-golden"))["failed"] == 0
    return path


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(golden, workload, trace, group):
    proc = bench(workload, "--trace", str(trace), "--golden", str(golden))
    res = result(proc)
    assert "golden record: applies" in proc.stdout
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[group]}
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    assert f"error_rate 0 ratio (0 failed of {res['attempted']} attempted)" in proc.stdout


def test_corrupted_golden_digest_counts_as_failed(golden):
    record = json.loads(golden.read_text())
    files = record["workloads"]["trace-emit"]["files"][0]
    path = next(iter(files))
    files[path] = "0" * 64
    corrupted = WORK / "golden-corrupted.json"
    corrupted.write_text(json.dumps(record))
    proc = bench("trace-emit", "--golden", str(corrupted))
    res = result(proc)
    assert res["correct"] is False
    assert res["failed"] >= 1
    assert "error_rate 0 " not in proc.stdout
    assert f"{path} sha256" in proc.stderr


def test_corrupted_golden_run_counts_as_failed(golden):
    record = json.loads(golden.read_text())
    record["workloads"]["paper-compare"]["runs"][0][0][3] += 1
    corrupted = WORK / "golden-corrupted-run.json"
    corrupted.write_text(json.dumps(record))
    res = result(bench("paper-compare", "--golden", str(corrupted)))
    assert res["correct"] is False and res["failed"] == res["attempted"]


def test_exact_counts_repeat_across_traced_runs(golden):
    counts = []
    for _ in range(2):
        metrics = result(bench("dense-sweep", "--trace", "1", "--golden", str(golden)))["metrics"]
        counts.append({k: metrics[k]["value"] for k in EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["energy.tx_energy.calls"] > 0


def test_fails_without_program_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("paper-compare", cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
