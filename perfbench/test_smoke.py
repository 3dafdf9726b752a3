"""Tiny-size smoke test of the benchmark's three workloads and its traced run.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# Metrics each workload's traced run must see work in.
EXERCISED = {
    "extract-long": ("dataio.read_signal_s", "cwt.transform_calls", "cwt.direct_macs", "features.reduce_s"),
    "train-pronostia": (
        "nn.layers.Conv1d.backward_s",
        "nn.model.backward_s",
        "nn.train.steps",
        "forest.split_scan_calls",
        "forest.nodes",
        "checkpoint.bytes",
    ),
    "monitor-pronostia": ("checkpoint.load_s", "forest.predict_s", "pipeline.predict_s", "cwt.transform_s"),
}


def _run(name, trace, tmp_path, seed=7):
    run.load_carle()
    import workloads

    return run.run_workload(
        name, seed, 0.0, trace, sizes=workloads.TINY, out_dir=tmp_path, setup_loads=2, import_samples=1
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_run_is_correct_and_complete(name, tmp_path):
    result, _ = _run(name, 0, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_layers_and_repeats_counts(name, tmp_path):
    import spans

    first, notes = _run(name, 1, tmp_path)
    second, _ = _run(name, 1, tmp_path)
    assert first["correct"] and second["correct"]
    assert "absent spans: none" in notes
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
    for metric in EXERCISED[name]:
        assert first["metrics"][metric]["value"] > 0, metric
    for count in spans.COMPUTED_COUNTS:
        assert first["metrics"][count]["value"] == second["metrics"][count]["value"], count
    assert (tmp_path / f"trace-{name}-seed7.json").is_file()


def test_wrappers_are_restored_and_missing_names_reported(monkeypatch):
    run.load_carle()
    import carle.cwt
    import carle.features
    import carle.nn.layers
    import spans

    original = carle.features.transform
    wraps = (*spans.WRAPS, ("carle.forest", "no_such_function", "forest.gone", None))
    monkeypatch.setattr(spans, "WRAPS", wraps)
    with spans.traced(spans.Recorder()) as absent:
        assert carle.features.transform is not original
    assert absent == ["forest.gone"]
    assert carle.features.transform is original is carle.cwt.transform
    assert "forward" in vars(carle.nn.layers.Dense)


def test_fails_without_the_program(tmp_path):
    bench_dir = run.ROOT / "perfbench"
    shutil.copytree(bench_dir, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
