"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that tiny runs of every workload are correct, and that a tampered
golden digest is caught as a failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
GOLDEN = json.loads(bench.GOLDEN.read_text())


def run(workload: str, seed: int, trace: bool, golden: dict = GOLDEN) -> tuple[dict, dict]:
    """One benchmark run at the tiny sizes, one repetition long."""
    report, result = bench.measure(workload, seed, 1, trace, "tiny", golden)
    json.dumps(result)  # the result line must be printable as JSON
    return report, result


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    report, result = run(workload, 0, False)
    assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["golden_checked"]
    assert report["metrics"]["failed_ratio"] == {"value": 0.0, "unit": "ratio"}
    assert {"python", "nproc", "git_commit"} <= set(report["environment"])
    if workload != "tables_cold":
        assert report["config"]["max_n"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    report, result = run(workload, 5, True)
    assert_metrics(result, SPEC["per_layer"])
    assert result["correct"]
    assert min(report["traced_samples"]) >= 1 and report["spans"]
    layers = result["metrics"]
    if workload == "tables_cold":
        assert layers["bernoulli.classical.max_n"]["value"] == 30
        assert layers["harness.results"]["value"] == 0
    else:
        assert layers["harness.results"]["value"] > 0
        assert layers["identities.counterexamples"]["value"] == 0
        assert layers["poly.mul.calls"]["value"] > 0


def test_seeds_draw_new_points():
    report0, _ = run("suite_default", 0, False)
    report7, result7 = run("suite_default", 7, False)
    assert report0["config"]["lambda_points"] == ["0", "1", "2", "1/2"]
    assert report7["config"]["lambda_points"] != report0["config"]["lambda_points"]
    assert not report7["golden_checked"] and result7["correct"]


def test_tampered_golden_raises_failed_ratio():
    golden = json.loads(json.dumps(GOLDEN))
    golden["tables"]["tiny/generalized/8"] = "0" * 64
    report, result = run("tables_cold", 0, False, golden)
    assert not result["correct"] and result["failed"] >= 1
    assert report["metrics"]["failed_ratio"]["value"] > 0
