"""Self-test of the benchmark harness. Run from the root of the repository:

    python3 -m pytest perfbench/tests/selftest_harness.py

The file name does not match ``test_*.py``, so the repository's own test run
does not collect it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import worker  # noqa: E402
from spans import SHOULD_MOVE  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]


def test_every_workload_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seed", "7", "--seconds", "0", "--ops-limit", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    results = _results(proc.stdout)
    assert proc.stdout.splitlines()[-1] == json.dumps(results[-1])
    assert len(results) == 2 * len(SPEC["workloads"])  # untraced and traced per workload
    for res in results:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    for group, runs in (("end_to_end", results[0::2]), ("per_layer", results[1::2])):
        for res in runs:
            assert set(res["metrics"]) == {m["name"] for m in SPEC[group]}
            for m in SPEC[group]:
                got = res["metrics"][m["name"]]
                assert got["unit"] == m["unit"]
                assert isinstance(got["value"], (int, float))
                assert f" {m['name']} " in proc.stdout


@pytest.mark.parametrize(
    "workload, constant, perturbed",
    [
        ("closed_form", "LOG_SCALED_ROOT", gate.LOG_SCALED_ROOT * (1.0 + 1e-4)),
        ("mc_verify", "K_SIGMA", 0.0),
    ],
)
def test_a_perturbed_expectation_counts_in_fail_frac(tmp_path, monkeypatch, workload, constant, perturbed):
    record = worker.run_workload(workload, 7, 0.0, False, tmp_path, ops_limit=2)
    assert record["failed"] == 0
    monkeypatch.setattr(gate, constant, perturbed)
    record = worker.run_workload(workload, 7, 0.0, False, tmp_path, ops_limit=2)
    assert record["failed"] >= 1
    assert record["metrics"]["fail_frac"] == record["failed"] / record["attempted"]


def test_every_layer_metric_names_what_it_should_move():
    assert set(SHOULD_MOVE) == {m["name"] for m in SPEC["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed_form", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not _results(proc.stdout)
