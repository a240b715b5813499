"""Smoke test of the benchmark at tiny population sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
TINY = {"identities": 2, "captures": 3}


def metric_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_matches_the_script():
    # lib_lowres_r1 runs by hand only; see README.md
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(bench.WORKLOADS) - {"lib_lowres_r1"}
    assert metric_units("end_to_end") == bench.END_TO_END_UNITS
    assert metric_units("per_layer") == bench.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "traced"])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_tiny_run_reports_every_metric_and_passes_the_gate(workload, trace):
    record = bench.run(workload, seed=3, seconds=0.2, trace=trace, **TINY)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        scored = record["env"]["pairs"] + record["env"]["genuine_pairs"]
        assert values["scoring.compare.calls"] == scored
        assert values["silhouette.rasterize.calls"] == 2 * scored
        via_cli = bench.WORKLOADS[workload].via_cli
        assert (values["fileio.load_face.calls"] > 0) == via_cli
    else:
        assert 0.0 < values["auc"] <= 1.0


def test_digest_mismatch_counts_failed_pairs(monkeypatch):
    monkeypatch.setattr(bench, "expected_digests",
                        lambda *args: {"report": "0", "model": "0", "csv": "0"})
    record = bench.run("lib_lowres_r1", seed=3, seconds=0.2, trace=False, **TINY)
    assert not record["result"]["correct"]
    assert record["result"]["failed"] >= record["env"]["pairs"]


def test_default_seed_outputs_match_committed_digests():
    workload = bench.WORKLOADS["lib_lowres_r1"]
    inputs = bench.set_up(workload, bench.DEFAULT_SEED, workload.identities, workload.captures)
    expected = bench.expected_digests(workload, bench.DEFAULT_SEED, workload.identities,
                                      workload.captures)
    assert expected is not None
    assert bench.lib_job(inputs).digests == expected


def test_fails_without_a_result_where_the_package_is_missing(tmp_path):
    shutil.copytree(Path(bench.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lib_lowres_r1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
