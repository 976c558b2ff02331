"""Tiny-size smoke test of the benchmark harness: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import layer_seconds  # noqa: E402

# K = 100 on the batch lattice, so its N must stay above 100 for distinct medians
TINY = {"vectors": 150, "landmarks": 10, "online": 40, "online_epochs": 1, "probe": 30,
        "probe_landmarks": 5}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_is_checked_and_fully_reported(name):
    out = run.measure(name, seed=3, seconds=0, trace=True, sizes=TINY)
    res = out["result"]
    assert res["correct"]
    assert res["attempted"] == 2 * len(out["jobs"])  # one plain and one traced pass
    # the landmark-online probe is the only job allowed to fail
    assert {job for job, _ in out["failures"]} <= {"relational-online-landmarks"}
    assert res["failed"] == len(out["failures"])
    assert list(res["metrics"]) == [key for key, _, _ in run.PER_LAYER]
    assert out["end_to_end"]["wall_s"] > out["end_to_end"]["setup_s"] > 0.0
    assert res["metrics"]["relsom.distance_calls"]["value"] > 0


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_self_time_subtracts_child_spans():
    spans = [["relsom.train_online_relational", 0, 10_000, None, None],
             ["relsom.relational_distances", 2_000, 5_000, 0, 0.5],
             ["relsom.relational_distances", 6_000, 7_000, 0, 0.25]]
    layers = layer_seconds(spans)
    assert layers["relsom.online_s"] == pytest.approx(6e-6)
    assert layers["relsom.distance_s"] == pytest.approx(4e-6)
    assert layers["relsom.distance_calls"] == 2
    assert layers["relsom.distance_gflop"] == pytest.approx(0.75)


def test_fails_without_printing_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
