"""Smoke test of the benchmark harness at tiny sizes; it has no timing bound.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = Workload(
    name="tiny", d=8, d_raw=16, n_train=16, n_test=12,
    epochs=3,
)


def _metric_names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_untraced_then_traced_run_report_every_declared_metric(tmp_path):
    store = tmp_path / "digests.json"
    result, record = harness.run(TINY, 3, 0.0, False, tmp_path / "a", store)
    assert result["correct"], record["checks"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _metric_names("end_to_end")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float), name

    # same seed again, traced: the stored digest must repeat
    traced, record = harness.run(TINY, 3, 0.0, True, tmp_path / "b", store)
    assert traced["correct"], record["checks"]
    assert record["checks"]["digest_repeats_across_runs"]
    assert set(traced["metrics"]) == _metric_names("per_layer")
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, metric in traced["metrics"].items():
        assert metric["unit"] == units[name]
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_changed_digest_fails_the_run(tmp_path):
    store = tmp_path / "digests.json"
    harness.run(TINY, 4, 0.0, False, tmp_path / "a", store)
    known = json.loads(store.read_text())
    store.write_text(json.dumps({k: "0" * 64 for k in known}))
    result, record = harness.run(TINY, 4, 0.0, False, tmp_path / "b", store)
    assert not result["correct"] and result["failed"] > 0
    assert record["checks"]["digest_repeats_across_runs"] is False


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "synth-d64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
